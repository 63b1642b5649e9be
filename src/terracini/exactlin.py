"""Exact rational linear algebra and sparse multivariate polynomials.

Every verdict produced by the higher modules (defects, speciality,
regularity, determinant vanishing) is a rank condition, so this layer is
all exact arithmetic over Q; no floating point anywhere.  Rank and
determinant run on integer rows.  Every span of the analysis reaches
``span_rank`` as rows of ``int``: the numerators read from a chart's
derivative tables, whose nonzero row and column scales rank ignores.
Only the smoothness test still hands over ``Fraction`` rows, which are
cleared per row with integer arithmetic first, as ``Matrix`` clears its
own.  Rank has one route: elimination modulo a 28-bit prime on packed
rows (one int per row, see ``_kernels.mod_rank``), which can only
underestimate, decides every full rank and fraction-free Bareiss the
rest.  ``integer_det`` is the last Bareiss pivot; ``Matrix.det`` divides
it by the row multipliers once.  The ``Fraction`` ``Matrix`` remains for
nullspaces.  Polynomials carry what the symbolic determinant audit
(``poly_det``) needs; their reference routes live in ``tests/oracles.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from ._kernels import bareiss_echelon, mod_rank

Vector = tuple[Fraction, ...]

# Prime of the modular pre-screen: the largest below 2^28, so that a
# packed row's 64-bit slot takes 256 multiply-adds between reductions.  A
# rank it misses (probability about rank/p) only sends the span to Bareiss.
SCREEN_PRIME = 268435399

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotSquareError(ValueError):
    """Determinant requested of a non-square matrix."""


class BadIndexError(IndexError):
    """Variable index outside 0..num_vars-1."""


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        rows = tuple(tuple(Fraction(x) for x in r) for r in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Fraction]]) -> "Matrix":
        return cls(list(rows))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Fraction]]) -> "Matrix":
        cols = list(cols)
        if not cols:
            return cls([])
        height = len(cols[0])
        return cls([[col[i] for col in cols] for i in range(height)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def det(self) -> Fraction:
        """Exact determinant: Bareiss on the cleared rows, over their multipliers."""
        if self.rows != self.cols:
            raise NotSquareError(f"{self.rows}x{self.cols} matrix has no determinant")
        ints, scale = [], 1
        for r in self.entries:
            row, m = cleared_row(r)
            ints.append(row)
            scale *= m
        return Fraction(integer_det(ints), scale)

    def right_nullspace(self) -> list[Vector]:
        """Basis of {v : M v = 0}, one vector per non-pivot column."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [tuple(_F1 if i == j else _F0 for i in range(self.cols))
                    for j in range(self.cols)]
        ech, pivots, _ = bareiss_echelon([cleared_row(r)[0] for r in self.entries])
        pivot_set = set(pivots)
        free_cols = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free_cols:
            v = [_F0] * self.cols
            v[f] = _F1
            # back-substitute pivot rows bottom-up
            for i in range(len(pivots) - 1, -1, -1):
                pc = pivots[i]
                s = sum((Fraction(ech[i][j]) * v[j] for j in range(pc + 1, self.cols)
                         if v[j]), _F0)
                v[pc] = -s / ech[i][pc]
            basis.append(tuple(v))
        return basis


def cleared_row(row: Sequence) -> tuple[Sequence[int], int]:
    """Integer row m * row and its multiplier m; a row of ints comes back as is.

    For Fractions, m is the lcm of the denominators and each entry becomes
    ``x.numerator * (m // x.denominator)``: integer arithmetic only.
    """
    if all(type(x) is int for x in row):
        return row, 1
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row], m


def span_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of a family of vectors (modular pre-screen enabled).

    Entries are ints or Fractions.  Rank does not change under nonzero row
    and column scales, so rows of integer numerators read from derivative
    tables of one chart (entry c over den_c times a per-row factor) can be
    ranked as they are.  If the reduction mod SCREEN_PRIME has full rank,
    that is the exact rank (modular rank never exceeds it); otherwise
    fraction-free elimination decides.
    """
    rows = [cleared_row(v)[0] for v in vectors]
    if not rows or not rows[0]:
        return 0
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    full = min(len(rows), len(rows[0]))
    if mod_rank(rows, SCREEN_PRIME) == full:
        return full
    return len(bareiss_echelon(rows)[1])


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last fraction-free pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquareError(f"{n}-row matrix is not square")
    if n == 0:
        return 1
    ech, pivots, sign = bareiss_echelon(rows)
    return sign * ech[n - 1][pivots[-1]] if len(pivots) == n else 0


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class MultiPoly:
    """Sparse polynomial in ``num_vars`` variables: {exponent tuple: coefficient}.

    Zero coefficients are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != num_vars:
                    raise ValueError(f"exponent {e} has wrong length for {num_vars} vars")
                c = Fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(c)})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "MultiPoly":
        if not 0 <= i < num_vars:
            raise BadIndexError(f"variable index {i} out of range for {num_vars} vars")
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): _F1})

    @classmethod
    def monomial(cls, num_vars: int, exp: Sequence[int], c=1) -> "MultiPoly":
        return cls(num_vars, {tuple(exp): Fraction(c)})

    # -- predicates / measurements ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"u{i}^{k}" if k > 1 else f"u{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed variable counts")
            return other
        return MultiPoly.constant(self.num_vars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e, _F0) + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return MultiPoly(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            if c == 0:
                return MultiPoly.zero(self.num_vars)
            return MultiPoly(self.num_vars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(e, _F0) + c1 * c2
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        return MultiPoly(self.num_vars, out)

    __rmul__ = __mul__

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong length")
        total = _F0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def divexact(self, d: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ArithmeticError if d does not divide self."""
        d = self._coerce(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        out: dict[tuple[int, ...], Fraction] = {}
        dlead = max(d.terms, key=_grlex_key)
        dc = d.terms[dlead]
        while rem:
            lead = max(rem, key=_grlex_key)
            e = tuple(a - b for a, b in zip(lead, dlead))
            if any(x < 0 for x in e):
                raise ArithmeticError("not divisible")
            c = rem[lead] / dc
            out[e] = c
            for de, dcf in d.terms.items():
                ke = tuple(a + b for a, b in zip(e, de))
                nv = rem.get(ke, _F0) - c * dcf
                if nv:
                    rem[ke] = nv
                else:
                    rem.pop(ke, None)
        return MultiPoly(self.num_vars, out)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), _F0)


def poly_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials.

    Fraction-free Bareiss over the polynomial ring: every division is by the
    previous pivot and is exact.  Pivots are chosen as the nonzero candidate
    with the fewest terms (ties by row order) to keep intermediate
    polynomials small.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nv = rows[0][0].num_vars
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise NotSquareError("polynomial matrix is not square")
    one = MultiPoly.constant(nv, 1)
    zero = MultiPoly.zero(nv)
    sign = 1
    prev = one
    for c in range(n):
        cand = [(len(m[i][c].terms), i) for i in range(c, n) if not m[i][c].is_zero()]
        if not cand:
            return zero
        _, piv = min(cand)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, n):
            t = m[i][c]
            for j in range(c + 1, n):
                m[i][j] = (p * m[i][j] - t * m[c][j]).divexact(prev)
            m[i][c] = zero
        prev = p
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# randomized polynomial identity testing (Schwartz-Zippel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SZResult:
    """Outcome of a Schwartz-Zippel identity test.

    ``identically_zero`` verdicts are probabilistic: the polynomial may still
    be nonzero with probability at most ``error_bound`` (per-trial failure is
    degree_bound / sample set size, trials are independent).  A
    ``nonzero`` verdict is certain and carries the witness point.
    """

    identically_zero: bool
    witness: tuple[int, ...] | None
    witness_value: Fraction | None
    trials: int
    degree_bound: int
    sample_radius: int
    error_bound: Fraction


def sz_zero_test(evaluator: Callable[[tuple[int, ...]], Fraction], num_vars: int,
                 degree_bound: int, trials: int = 20, seed: int = 0) -> SZResult:
    """Decide whether a degree-bounded polynomial function is identically zero.

    Samples integer points with coordinates in [-B, B], B = 16 * degree_bound,
    so each trial errs with probability at most degree_bound/(2B+1) < 1/32.
    """
    radius = max(1, 16 * degree_bound)
    per_trial = Fraction(degree_bound, 2 * radius + 1)
    rng = random.Random(seed)
    for _ in range(trials):
        pt = tuple(rng.randint(-radius, radius) for _ in range(num_vars))
        value = evaluator(pt)
        if value != 0:
            return SZResult(False, pt, value, trials, degree_bound, radius,
                            error_bound=_F0)
    return SZResult(True, None, None, trials, degree_bound, radius,
                    error_bound=per_trial ** trials)
