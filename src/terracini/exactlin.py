"""Exact rational linear algebra and polynomial identity testing.

Every verdict produced by the higher modules (defects, speciality,
regularity, determinant vanishing) is a rank condition, so this layer is
all exact arithmetic over Q; no floating point anywhere.  Rank and
determinant take integer rows.  Every span of the analysis, and the
Jacobian of the smoothness test, reaches ``span_rank`` as rows of
``int``: the numerators read from a chart's derivative tables, whose
nonzero row and column scales rank ignores.  Rank has one route:
elimination modulo a 28-bit prime on packed rows (one int per row, see
``_kernels.mod_rank``), which can only underestimate, decides every full
rank and fraction-free Bareiss the rest.  Bareiss brings a row up to date
only when it is next touched, since the scalings of the steps a row sits
out telescope to one factor, and skips cells whose operands are both zero
(see ``_kernels``): on the sparse, rank-deficient secant spans of a
defective Veronese that is half its work.  ``integer_det`` is the last
Bareiss pivot, and 0 below full rank; on a quadratic chart
``Gamma15Matrix.det`` reads its zero off the column structure and never
calls it.  The ``Fraction`` ``Matrix`` remains for nullspaces, the one
place where ``Fraction``s meet elimination: it clears each row by the lcm
of its denominators first.  No package path reads it: the duality oracle
of the tests does, and the benchmark's tracer looks the class up.  No
polynomial arithmetic is shipped: the polynomial ring and the symbolic
determinant audit built on it live in ``tests/oracles.py``, and
``sz_zero_test`` decides identities by evaluation alone.  Every seeded
draw of the package, point, trial or coefficient, is one ``randints`` call.
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

    def right_nullspace(self) -> list[Vector]:
        """Basis of {v : M v = 0}, one vector per non-pivot column."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [tuple(_F1 if i == j else _F0 for i in range(self.cols))
                    for j in range(self.cols)]
        ints = []
        for r in self.entries:
            m = lcm(*(x.denominator for x in r))
            ints.append([x.numerator * (m // x.denominator) for x in r])
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


def span_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the span of a family of integer rows (modular pre-screen enabled).

    Rank does not change under nonzero row and column scales, so rows of
    integer numerators read from derivative tables of one chart (entry c
    over den_c times a per-row factor) can be ranked as they are.  If the
    reduction mod SCREEN_PRIME has full rank, that is the exact rank
    (modular rank never exceeds it); otherwise fraction-free elimination
    decides.  A row of anything but ints is refused (``TypeError``).
    """
    rows = list(vectors)
    if not rows or not rows[0]:
        return 0
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    full = min(len(rows), len(rows[0]))
    if mod_rank(rows, SCREEN_PRIME) == full:
        return full
    return len(bareiss_echelon(rows)[1])


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot, 0 below full rank."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquareError(f"{n}-row matrix is not square")
    if n == 0:
        return 1
    ech, pivots, sign = bareiss_echelon(rows)
    return sign * ech[n - 1][pivots[-1]] if len(pivots) == n else 0


# ---------------------------------------------------------------------------
# seeded draws and randomized polynomial identity testing (Schwartz-Zippel)
# ---------------------------------------------------------------------------

def randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` draws from [lo, hi], the stream of as many ``rng.randint(lo, hi)`` calls."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k, bits, out = n.bit_length(), rng.getrandbits, []
    while len(out) < count:  # CPython 3.11's randrange loop: k bits, drawn again until below n
        x = bits(k)
        if x < n:
            out.append(lo + x)
    return out


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
                 degree_bound: int, trials: int, seed: int = 0) -> SZResult:
    """Decide whether a degree-bounded polynomial function is identically zero.

    Samples integer points with coordinates in [-B, B], B = 16 * degree_bound,
    so each trial errs with probability at most degree_bound/(2B+1) < 1/32.
    """
    radius = max(1, 16 * degree_bound)
    per_trial = Fraction(degree_bound, 2 * radius + 1)
    rng = random.Random(seed)
    for _ in range(trials):
        pt = tuple(randints(rng, -radius, radius, num_vars))
        value = evaluator(pt)
        if value != 0:
            return SZResult(False, pt, value, trials, degree_bound, radius,
                            error_bound=_F0)
    return SZResult(True, None, None, trials, degree_bound, radius,
                    error_bound=per_trial ** trials)
