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
from typing import Sequence

from .chart import AmbientTooSmallError, Chart, contract, unit_vectors
from .exactlin import Vector, span_rank

_F0 = Fraction(0)
_F1 = Fraction(1)

COORD_RADIUS = 5  # sample coordinates drawn from [-5, 5]


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

def tangent_space(chart: Chart, pt: Sequence[Fraction]) -> LinearSpan:
    """Projective tangent space: span of x and the first derivatives."""
    vecs = [chart.derivative_vector(pt, ())]
    vecs += [chart.derivative_vector(pt, (i,)) for i in range(chart.n)]
    span = LinearSpan.of(vecs, chart.r + 1)
    if span.rank < chart.n + 1:
        raise SingularPointError(f"tangent rank {span.rank} < n+1 at {pt}")
    return span


def osculating_space(chart: Chart, pt: Sequence[Fraction], h: int) -> LinearSpan:
    """h-osculating space: span of all derivative vectors of order <= h."""
    return LinearSpan.of([vec for _, vec in chart.taylor_block(pt, h)], chart.r + 1)


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


def secant_defect(chart: Chart, k: int, samples: int = 5, seed: int = 0) -> DefectRecord:
    """k-secant dimension as max rank of k+1 tangent spans at random points.

    Each sample draws k+1 distinct smooth points; the span of their tangent
    spaces is the Terracini tangent space of the secant variety at a general
    point of the spanned plane, so its max dimension over the batch is the
    observed secant dimension.
    """
    if k < 1 or samples < 1:
        raise ValueError("need k >= 1 and samples >= 1")
    rng = random.Random(seed)
    expected = min(chart.r, k * chart.n + chart.n + k)
    best = -1
    witness: tuple[Vector, ...] = ()
    resamples = 0
    for _ in range(samples):
        pts: list[Vector] = []
        while len(pts) < k + 1:
            pt, extra = sample_smooth_point(chart, rng)
            resamples += extra
            if pt in pts:  # distinct points required
                resamples += 1
                continue
            pts.append(pt)
        vecs: list[Vector] = []
        for pt in pts:
            vecs.extend(tangent_space(chart, pt).generators)
        observed = span_rank(vecs) - 1
        if observed > best:
            best = observed
            witness = tuple(pts)
    return DefectRecord(k=k, expected=expected, observed=best,
                        defect=expected - best, witness_points=(witness,),
                        samples=samples, resamples=resamples, seed=seed)


# ---------------------------------------------------------------------------
# 2-osculating regularity
# ---------------------------------------------------------------------------

def osc2_vectors(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
                 mu: Sequence[Fraction]) -> list[Vector]:
    """The 3n+1 vectors whose generic independence is 2-osculating regularity.

    x; x_i; the Hessian contractions sum_i x_ij lam_i for each j; and for
    each k the vectors sum_{i,j} x_kij lam_i lam_j + 2 sum_j x_kj mu_j.
    """
    t = chart.integer_table(pt, 3)
    e = unit_vectors(chart.n)
    return ([contract(t, [(1, ())])] + [contract(t, [(1, (ei,))]) for ei in e]
            + [contract(t, [(1, (lam, ej))]) for ej in e]
            + [contract(t, [(1, (ek, lam, lam)), (2, (ek, mu))]) for ek in e])


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
        rank = span_rank(osc2_vectors(chart, pt, lam, mu))
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
    d = chart.derivative_table(pt, 3)
    vecs = [d[()]] + [d[(i,)] for i in range(n)]
    vecs += [d[tuple(sorted((0, i)))] for i in range(n)]
    vecs += [d[tuple(sorted((0, 0, i)))] for i in range(n)]
    rank = span_rank(vecs)
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
        rows = [contract(t, terms) for terms in [y] + du + dlam + dparams]
        best = max(best, span_rank(rows) - 1)
    return best
