"""Classical Terracini machinery.

Tangent and osculating spaces at points, secant-variety dimension and
defect by the Terracini tangent-span computation, and the second-order
osculating-regularity checks.  "General point" semantics everywhere is
max-rank over a seeded batch of random small-height rational draws: the
maximal rank attained is a certified lower bound for the generic rank,
which is exactly what the statements being audited quantify over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .chart import (
    AmbientTooSmallError,
    Chart,
    IntegerTable,
    contract,
    contract_numerators,
    fraction_vector,
    multi_indices,
    unit_vectors,
)
from .exactlin import Vector, span_rank

_F0 = Fraction(0)
_F1 = Fraction(1)

COORD_RADIUS = 5  # sample coordinates drawn from [-5, 5]


def sample_lattice_size(n: int) -> int:
    """Number of distinct sample points, (2 * COORD_RADIUS + 1)^n."""
    return (2 * COORD_RADIUS + 1) ** n


class SingularPointError(ValueError):
    """Tangent space requested where the chart is not smooth."""


# ---------------------------------------------------------------------------
# linear spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSpan:
    """Span of a finite family of coordinate vectors in Q^{ambient}."""

    generators: tuple[Vector, ...]
    rank: int
    ambient: int

    @classmethod
    def of(cls, vectors: Sequence[Vector], ambient: int | None = None) -> "LinearSpan":
        vecs = tuple(tuple(v) for v in vectors)
        amb = ambient if ambient is not None else (len(vecs[0]) if vecs else 0)
        return cls(vecs, span_rank(vecs), amb)

    @property
    def dim(self) -> int:
        """Projective dimension (rank - 1; -1 for the zero span)."""
        return self.rank - 1

    def union(self, other: "LinearSpan") -> "LinearSpan":
        return LinearSpan.of(self.generators + other.generators, self.ambient)

    def contains_vector(self, v: Vector) -> bool:
        return span_rank(self.generators + (tuple(v),)) == self.rank

    def contains_span(self, other: "LinearSpan") -> bool:
        return span_rank(self.generators + other.generators) == self.rank

    def same_span(self, other: "LinearSpan") -> bool:
        return self.rank == other.rank and self.contains_span(other)


# ---------------------------------------------------------------------------
# tangent / osculating spaces at a point
# ---------------------------------------------------------------------------

def _tangent_numerators(chart: Chart, t: IntegerTable, pt: Sequence[Fraction]
                        ) -> tuple[list, tuple[int, ...]]:
    """Numerator rows of x, x_1..x_n (entry c over dens[c]) and dens.

    ``t`` is the order-1 table at pt; pt itself only names the point in the
    error.  Raises SingularPointError when the rows span less than n+1
    dimensions.
    """
    zero = (0,) * len(t.dens)
    rows = [t.nums.get(key, zero) for key in multi_indices(chart.n, 1)]
    rank = span_rank(rows)
    if rank < chart.n + 1:
        raise SingularPointError(f"tangent rank {rank} < n+1 at"
                                 f" ({', '.join(map(str, pt))}) on {chart.label}")
    return rows, t.dens


def tangent_space(chart: Chart, pt: Sequence[Fraction]) -> LinearSpan:
    """Projective tangent space: span of x and the first derivatives."""
    rows, dens = _tangent_numerators(chart, chart.integer_table(pt, 1), pt)
    return LinearSpan(tuple(fraction_vector(row, dens) for row in rows), chart.n + 1,
                      chart.r + 1)


def osculating_space(chart: Chart, pt: Sequence[Fraction], h: int) -> LinearSpan:
    """h-osculating space: span of all derivative vectors of order <= h."""
    t = chart.integer_table(pt, h)
    e = unit_vectors(chart.n)
    return LinearSpan.of([contract(t, [(1, tuple(e[i] for i in idx))])
                          for idx in multi_indices(chart.n, h)], chart.r + 1)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def sample_point(rng: random.Random, n: int) -> Vector:
    return tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS)) for _ in range(n))


def sample_smooth_point(chart: Chart, rng: random.Random,
                        max_tries: int = 60) -> tuple[Vector, int]:
    """Random smooth chart point plus the number of resamples it took."""
    for tries in range(max_tries):
        pt = sample_point(rng, chart.n)
        if chart.is_smooth_at(pt):
            return pt, tries
    raise SingularPointError(f"no smooth sample found on {chart.label}")


# ---------------------------------------------------------------------------
# secant defects (Terracini)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectRecord:
    """Observed k-secant dimension against the expected min{r, kn+n+k}."""

    k: int
    expected: int
    observed: int
    defect: int
    witness_points: tuple[tuple[Vector, ...], ...]
    samples: int
    resamples: int
    seed: int


def _require_smooth_lattice_points(chart: Chart, needed: int) -> None:
    """Raise SingularPointError unless the sample lattice holds ``needed`` smooth points.

    Counts by enumeration, which draws nothing from the sampler's rng.
    """
    found = 0
    for coords in product(range(-COORD_RADIUS, COORD_RADIUS + 1), repeat=chart.n):
        found += chart.is_smooth_at(tuple(map(Fraction, coords)))
        if found == needed:
            return
    raise SingularPointError(f"k+1 = {needed} distinct smooth points needed, but"
                             f" [-{COORD_RADIUS}, {COORD_RADIUS}]^{chart.n} holds only"
                             f" {found} on {chart.label}")


def secant_defect(chart: Chart, k: int, samples: int = 5, seed: int = 0) -> DefectRecord:
    """k-secant dimension as max rank of k+1 tangent spans at random points.

    Each sample draws k+1 distinct smooth points; the span of their tangent
    spaces is the Terracini tangent space of the secant variety at a general
    point of the spanned plane, so its max dimension over the batch is the
    observed secant dimension.  The points come from the sample lattice, so
    k+1 may not exceed its size; when a run of duplicate draws as long as
    the lattice suggests it holds fewer than k+1 smooth points, the lattice
    is counted and the shortfall raised as SingularPointError.
    """
    if k < 1 or samples < 1:
        raise ValueError("need k >= 1 and samples >= 1")
    if k + 1 > sample_lattice_size(chart.n):
        raise ValueError(f"k+1 = {k + 1} exceeds the {sample_lattice_size(chart.n)} sample points")
    rng = random.Random(seed)
    expected = min(chart.r, k * chart.n + chart.n + k)
    best = -1
    witness: tuple[Vector, ...] = ()
    resamples = 0
    for _ in range(samples):
        pts: list[Vector] = []
        tables: list[IntegerTable] = []
        repeats = 0
        while len(pts) < k + 1:
            pt, extra = sample_smooth_point(chart, rng)
            resamples += extra
            if pt in pts:  # distinct points required
                resamples += 1
                repeats += 1
                if repeats == sample_lattice_size(chart.n):
                    _require_smooth_lattice_points(chart, k + 1)
                continue
            pts.append(pt)
            # the smoothness test just evaluated pt's order-1 table
            tables.append(chart.integer_table(pt, 1))
            repeats = 0
        # numerator rows of every point share the column scales den_c
        rows = [row for pt, t in zip(pts, tables)
                for row in _tangent_numerators(chart, t, pt)[0]]
        observed = span_rank(rows) - 1
        if observed > best:
            best = observed
            witness = tuple(pts)
    return DefectRecord(k=k, expected=expected, observed=best,
                        defect=expected - best, witness_points=(witness,),
                        samples=samples, resamples=resamples, seed=seed)


# ---------------------------------------------------------------------------
# 2-osculating regularity
# ---------------------------------------------------------------------------

def _osc2_terms(n: int, lam: Sequence[Fraction], mu: Sequence[Fraction]) -> list[list]:
    """``contract`` terms of the 3n+1 criterion vectors, one list per vector.

    Their generic independence is 2-osculating regularity: x; x_i; the
    Hessian contractions sum_i x_ij lam_i for each j; and for each k the
    vectors sum_{i,j} x_kij lam_i lam_j + 2 sum_j x_kj mu_j.
    """
    e = unit_vectors(n)
    return ([[(1, ())]] + [[(1, (ei,))] for ei in e]
            + [[(1, (lam, ej))] for ej in e]
            + [[(1, (ek, lam, lam)), (2, (ek, mu))] for ek in e])


def _osc2_rank(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
               mu: Sequence[Fraction]) -> int:
    """Rank of the ``_osc2_terms`` vectors at pt, taken of their numerator rows."""
    t = chart.integer_table(pt, 3)
    return span_rank([contract_numerators(t, terms)[0]
                      for terms in _osc2_terms(chart.n, lam, mu)])


@dataclass(frozen=True)
class Osc2Verdict:
    regular: bool
    max_rank: int
    needed: int
    trial_ranks: tuple[int, ...]
    witness: tuple[Vector, Vector, Vector] | None  # (pt, lam, mu) attaining max
    trials: int
    seed: int


def osc2_regular(chart: Chart, trials: int = 5, seed: int = 0) -> Osc2Verdict:
    """2-osculating regularity by rank sampling of the 3n+1 criterion vectors.

    lam is normalized to lam_1 = 1 and mu to mu_1 = 0, matching the
    parametrization the criterion is derived from.
    """
    n = chart.n
    if chart.r < 3 * n:
        raise AmbientTooSmallError(f"r={chart.r} < 3n={3 * n}")
    rng = random.Random(seed)
    needed = 3 * n + 1
    ranks: list[int] = []
    best = -1
    witness = None
    for _ in range(trials):
        pt, _ = sample_smooth_point(chart, rng)
        lam = (_F1,) + tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
                             for _ in range(n - 1))
        mu = (_F0,) + tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
                            for _ in range(n - 1))
        rank = _osc2_rank(chart, pt, lam, mu)
        ranks.append(rank)
        if rank > best:
            best = rank
            witness = (pt, lam, mu)
    return Osc2Verdict(regular=(best == needed), max_rank=best, needed=needed,
                       trial_ranks=tuple(ranks), witness=witness, trials=trials,
                       seed=seed)


@dataclass(frozen=True)
class Osc2CoordinateVerdict:
    """Sufficient condition along a coordinate curve: True implies regular."""

    sufficient: bool
    rank: int
    needed: int


def osc2_regular_coordinate(chart: Chart, pt: Sequence[Fraction]) -> Osc2CoordinateVerdict:
    """Independence of x, x_i, x_1i, x_11i implies 2-osculating regularity.

    A False result is inconclusive (it is the criterion vectors at the
    special value lam = e_1, mu = 0, whose rank can drop below the generic
    one).
    """
    n = chart.n
    rank = _osc2_rank(chart, pt, unit_vectors(n)[0], (0,) * n)
    return Osc2CoordinateVerdict(sufficient=(rank == 3 * n + 1), rank=rank,
                                 needed=3 * n + 1)


# ---------------------------------------------------------------------------
# osculating-variety dimension via its parametrization
# ---------------------------------------------------------------------------

def osc_variety_dim(chart: Chart, m: int, samples: int = 5, seed: int = 0) -> int:
    """Generic dimension of the variety of m-osculating spaces (m = 1 or 2).

    Computed from the Jacobian of the parametrization
    y = x + alpha sum x_i lam_i [+ beta (sum x_ij lam_i lam_j + 2 sum mu_i x_i)]
    with lam_1 = 1, mu_1 = 0: the projective dimension of the image is the
    generic rank of {y, all partials of y} minus 1.  This is a route
    independent of the 3n+1-vector criterion, which is what makes their
    agreement a meaningful cross-check.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    n = chart.n
    e = unit_vectors(n)
    rng = random.Random(seed)
    best = -1
    for _ in range(samples):
        pt, _ = sample_smooth_point(chart, rng)
        lam = (_F1,) + tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
                             for _ in range(n - 1))
        mu = (_F0,) + tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
                            for _ in range(n - 1))
        alpha = Fraction(rng.randint(1, COORD_RADIUS))
        beta = Fraction(rng.randint(1, COORD_RADIUS))
        # y, then its partials in lam_j and mu_j (j >= 2), alpha and beta
        y = [(1, ()), (alpha, (lam,))]
        dlam = [[(alpha, (ej,))] for ej in e[1:]]
        dparams = [[(1, (lam,))]]
        if m == 2:
            quad = [(1, (lam, lam)), (2, (mu,))]
            y += [(beta * c, vs) for c, vs in quad]
            dlam = [[(alpha, (ej,)), (2 * beta, (lam, ej))] for ej in e[1:]]
            dparams += [[(2 * beta, (ej,))] for ej in e[1:]] + [quad]
        # d/du_k raises every term by one slot in direction e_k
        du = [[(c, (ek,) + vs) for c, vs in y] for ek in e]
        t = chart.integer_table(pt, m + 1)
        # the rows share the table's column scales, so their numerators rank alike
        rows = [contract_numerators(t, terms)[0] for terms in [y] + du + dlam + dparams]
        best = max(best, span_rank(rows) - 1)
    return best
