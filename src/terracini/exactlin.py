"""Exact rational linear algebra and sparse multivariate polynomials.

Every verdict produced by the higher modules (defects, speciality,
regularity, determinant vanishing) is a rank condition, so this layer is
all exact arithmetic over Q; no floating point anywhere.  Rank,
determinant and nullspace run fraction-free (Bareiss) on
denominator-cleared integer matrices via the kernel backend; a modular
elimination with a 31-bit prime is available as a rank pre-screen that
can only ever underestimate the true rank.

The ground field type ``Rational`` is ``fractions.Fraction``, which
guarantees the lowest-terms / positive-denominator invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from ._kernels import BACKEND as KERNEL_BACKEND  # noqa: F401  (re-exported)
from ._kernels import bareiss_echelon, mod_rank

Rational = Fraction
Vector = tuple[Fraction, ...]

# Mersenne prime used by the modular pre-screen.
SCREEN_PRIME = (1 << 31) - 1

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotSquareError(ValueError):
    """Determinant requested of a non-square matrix."""


class BadPrimeError(ValueError):
    """A stored denominator vanishes modulo the requested prime."""


class BadIndexError(IndexError):
    """Variable index outside 0..num_vars-1."""


class OrderMismatchError(ValueError):
    """Curve component series shorter than the requested truncation order."""


# ---------------------------------------------------------------------------
# small vector helpers shared across the package
# ---------------------------------------------------------------------------

def vdot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _F0)


def vaccum(length: int, parts: Iterable[tuple[Fraction, Sequence[Fraction]]]) -> Vector:
    """Sum of ``coeff * vector`` contributions, skipping zero coefficients."""
    acc = [_F0] * length
    for c, v in parts:
        if c == 0:
            continue
        for i, x in enumerate(v):
            if x:
                acc[i] += c * x
    return tuple(acc)


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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_F1 if i == j else _F0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def _cleared_rows(self) -> tuple[list[list[int]], list[int]]:
        """Integer rows after clearing each row's denominators; returns multipliers."""
        out = []
        mults = []
        for r in self.entries:
            m = lcm(*(x.denominator for x in r)) if r else 1
            out.append([int(x * m) for x in r])
            mults.append(m)
        return out, mults

    def rank(self) -> int:
        """Exact rank over Q (fraction-free elimination)."""
        if self.rows == 0 or self.cols == 0:
            return 0
        ints, _ = self._cleared_rows()
        _, pivots, _ = bareiss_echelon(ints)
        return len(pivots)

    def rank_fast(self) -> int:
        """Exact rank, using the modular pre-screen as a shortcut.

        If the reduction mod SCREEN_PRIME already has full rank, the exact
        rank equals it (modular rank never exceeds the exact one); otherwise
        fall back to the fraction-free elimination.
        """
        if self.rows == 0 or self.cols == 0:
            return 0
        ints, _ = self._cleared_rows()
        full = min(self.rows, self.cols)
        if mod_rank(ints, SCREEN_PRIME) == full:
            return full
        _, pivots, _ = bareiss_echelon(ints)
        return len(pivots)

    def rank_mod(self, p: int) -> int:
        """Rank of the entry-wise reduction mod p; requires no denominator divisible by p."""
        if self.rows == 0 or self.cols == 0:
            return 0
        reduced = []
        for r in self.entries:
            row = []
            for x in r:
                if x.denominator % p == 0:
                    raise BadPrimeError(f"denominator {x.denominator} vanishes mod {p}")
                row.append(x.numerator * pow(x.denominator, -1, p) % p)
            reduced.append(row)
        return mod_rank(reduced, p)

    def det(self) -> Fraction:
        """Exact determinant (Bareiss: last pivot of the fraction-free echelon)."""
        if self.rows != self.cols:
            raise NotSquareError(f"{self.rows}x{self.cols} matrix has no determinant")
        n = self.rows
        if n == 0:
            return _F1
        ints, mults = self._cleared_rows()
        ech, pivots, sign = bareiss_echelon(ints)
        if len(pivots) < n:
            return _F0
        scale = 1
        for m in mults:
            scale *= m
        return Fraction(sign * ech[n - 1][pivots[-1]], scale)

    def right_nullspace(self) -> list[Vector]:
        """Basis of {v : M v = 0}, one vector per non-pivot column."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [tuple(_F1 if i == j else _F0 for i in range(self.cols))
                    for j in range(self.cols)]
        ints, _ = self._cleared_rows()
        ech, pivots, _ = bareiss_echelon(ints)
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


def rank_exact(m: Matrix) -> int:
    return m.rank()


def rank_modular(m: Matrix, p: int) -> int:
    return m.rank_mod(p)


def determinant(m: Matrix) -> Fraction:
    return m.det()


def nullspace(m: Matrix, side: str = "right") -> list[Vector]:
    """Kernel basis; ``side="left"`` gives the covectors a with a M = 0."""
    if side == "right":
        return m.right_nullspace()
    if side == "left":
        return m.transpose().right_nullspace()
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def span_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the span of a family of vectors (modular pre-screen enabled)."""
    vectors = [v for v in vectors]
    if not vectors:
        return 0
    return Matrix.from_rows(vectors).rank_fast()


def solve_square(m: Matrix, rhs: Sequence[Fraction]) -> Vector:
    """Unique solution of M x = rhs for invertible square M (plain exact Gauss)."""
    if m.rows != m.cols:
        raise NotSquareError("solve_square needs a square matrix")
    n = m.rows
    a = [list(r) + [Fraction(rhs[i])] for i, r in enumerate(m.entries)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c] / pv
                for j in range(c, n + 1):
                    a[i][j] -= f * a[c][j]
    return tuple(a[i][n] / a[i][i] for i in range(n))


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

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.num_vars:
            raise BadIndexError(f"variable index {i} out of range for {self.num_vars} vars")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = list(e)
            e2[i] = k - 1
            out[tuple(e2)] = c * k
        return MultiPoly(self.num_vars, out)

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

    def substitute_affine(self, base: Sequence[Fraction], m: Matrix) -> "MultiPoly":
        """Substitute u_i = base_i + sum_j m[i][j] w_j; returns a polynomial in w."""
        n = self.num_vars
        if m.rows != n:
            raise ValueError("substitution matrix has wrong height")
        nw = m.cols
        subs = []
        for i in range(n):
            p = MultiPoly.constant(nw, base[i])
            for j in range(nw):
                if m.entries[i][j]:
                    p = p + MultiPoly.monomial(nw, tuple(1 if t == j else 0 for t in range(nw)),
                                               m.entries[i][j])
            subs.append(p)
        out = MultiPoly.zero(nw)
        # power cache per variable, filled on demand
        powers: list[dict[int, MultiPoly]] = [{0: MultiPoly.constant(nw, 1)} for _ in range(n)]
        for e, c in self.terms.items():
            term = MultiPoly.constant(nw, c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                cache = powers[i]
                if k not in cache:
                    kk = max(cache)
                    p = cache[kk]
                    while kk < k:
                        p = p * subs[i]
                        kk += 1
                        cache[kk] = p
                term = term * cache[k]
            out = out + term
        return out

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


def poly_partial(p: MultiPoly, i: int) -> MultiPoly:
    return p.partial(i)


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
# truncated power series in one parameter t
# ---------------------------------------------------------------------------
# A series truncated at order k is a tuple of k+1 coefficients (t^0 .. t^k).

Series = tuple[Fraction, ...]


def series_const(c, order: int) -> Series:
    return (Fraction(c),) + (_F0,) * order


def series_add(a: Series, b: Series) -> Series:
    return tuple(x + y for x, y in zip(a, b))


def series_mul(a: Series, b: Series, order: int) -> Series:
    out = [_F0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y:
                out[i + j] += x * y
    return tuple(out)


def poly_compose_curve(p: MultiPoly, curve: Sequence[Sequence[Fraction]],
                       order: int) -> Series:
    """Compose p with a tuple of truncated series u_i(t), truncated at ``order``.

    Each curve component must carry coefficients at least up to t^order.
    """
    if len(curve) != p.num_vars:
        raise OrderMismatchError(
            f"curve has {len(curve)} components, polynomial has {p.num_vars} variables")
    comps: list[Series] = []
    for s in curve:
        if len(s) < order + 1:
            raise OrderMismatchError(
                f"curve component truncated at {len(s) - 1} < requested order {order}")
        comps.append(tuple(Fraction(x) for x in s[: order + 1]))
    out = [_F0] * (order + 1)
    powers: list[dict[int, Series]] = [{0: series_const(1, order)} for _ in comps]
    for e, c in p.terms.items():
        term = series_const(c, order)
        for i, k in enumerate(e):
            if k == 0:
                continue
            cache = powers[i]
            if k not in cache:
                kk = max(cache)
                s = cache[kk]
                while kk < k:
                    s = series_mul(s, comps[i], order)
                    kk += 1
                    cache[kk] = s
            term = series_mul(term, cache[k], order)
        for i, x in enumerate(term):
            out[i] += x
    return tuple(out)


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
