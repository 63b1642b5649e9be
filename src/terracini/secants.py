"""Classical Terracini machinery.

Tangent and osculating spaces at points, secant-variety dimension and
defect by the Terracini tangent-span computation, and the second-order
osculating-regularity checks.  "General point" semantics everywhere is
max-rank over a seeded batch of random small-height rational draws: the
maximal rank attained is a certified lower bound for the generic rank,
which is exactly what the statements being audited quantify over.
Every span is a ``LinearSpan`` of integer numerator rows read from one
chart's derivative tables, and it is ranked as such; a tangent span's
rank is the chart's memoized ``tangent_rank`` of the point.  Every draw
is one ``exactlin.randints`` call; a point's draws index ``_LATTICE``, so
they build no ``Fraction``.  Curve trials are drawn by ``sample_curve``;
a sampled verdict is the largest value over its trials, witnessed by the
first trial that attains it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import perm
from operator import itemgetter
from typing import Sequence

from .chart import (
    AmbientTooSmallError,
    Chart,
    contract_numerators,
    jet_terms,
    multi_indices,
    unit_vectors,
)
from .exactlin import _F0, _F1, Vector, randints, span_rank

COORD_RADIUS = 5  # sample coordinates drawn from [-5, 5]
_LATTICE = tuple(Fraction(v) for v in range(-COORD_RADIUS, COORD_RADIUS + 1))
SMOOTH_TRIES = 60  # draws before sample_smooth_point gives up


def sample_lattice_size(n: int) -> int:
    """Number of distinct sample points, (2 * COORD_RADIUS + 1)^n."""
    return (2 * COORD_RADIUS + 1) ** n


def expected_tangent_dim(n: int, k: int, r: int) -> int:
    """tau_{n,k} = min{r, k(n+1) - 1}."""
    return min(r, k * (n + 1) - 1)


class SingularPointError(ValueError):
    """Tangent space requested where the chart is not smooth."""


# ---------------------------------------------------------------------------
# linear spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSpan:
    """Span of a finite family of vectors in Q^{ambient}, as integer numerator rows.

    Entry c of vector i is ``rows[i][c] / (scales[i] * dens[c])``: a row
    scale (q^D of the point times the contraction's own scale) and the
    chart's column scale den_c.  Rank ignores both, so it is taken of the rows.
    """

    rows: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]
    dens: tuple[int, ...]

    @classmethod
    def contracted(cls, chart: Chart, pt: Sequence[Fraction],
                   term_lists: Sequence[Sequence[tuple]]) -> "LinearSpan":
        """Span of the term lists, contracted from pt's table of the most directions in a term."""
        order = max((len(vs) for terms in term_lists for _, vs in terms), default=0)
        t = chart.integer_table(pt, order)
        return cls(*contract_numerators(t, term_lists), t.dens)

    @cached_property
    def rank(self) -> int:
        return span_rank(self.rows)

    @property
    def dim(self) -> int:
        """Projective dimension (rank - 1; -1 for the zero span)."""
        return self.rank - 1

    def contains_span(self, other: "LinearSpan") -> bool:
        # stacked numerator rows span the stacked vectors only under one column scale
        if other.dens != self.dens:
            raise ValueError("spans have different column scales")
        return span_rank(self.rows + other.rows) == self.rank


# ---------------------------------------------------------------------------
# tangent / osculating spaces at a point
# ---------------------------------------------------------------------------

def tangent_space(chart: Chart, pt: Sequence[Fraction]) -> LinearSpan:
    """Projective tangent space: span of x and x_1..x_n; SingularPointError below rank n+1.

    The rank is the chart's memoized ``tangent_rank``, which the smoothness
    test of a drawn point has already taken.
    """
    rank = chart.tangent_rank(pt)
    if rank < chart.n + 1:
        raise SingularPointError(f"tangent rank {rank} < n+1 at"
                                 f" ({', '.join(map(str, pt))}) on {chart.label}")
    return osculating_space(chart, pt, 1)


def osculating_space(chart: Chart, pt: Sequence[Fraction], h: int) -> LinearSpan:
    """h-osculating space: span of all derivative vectors of order <= h."""
    t = chart.integer_table(pt, h)
    rows = t.rows(multi_indices(chart.n, h))
    return LinearSpan(rows, (t.scale,) * len(rows), t.dens)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def sample_point(rng: random.Random, n: int) -> Vector:
    return tuple(map(_LATTICE.__getitem__, randints(rng, 0, 2 * COORD_RADIUS, n)))


def sample_smooth_point(chart: Chart, rng: random.Random) -> tuple[Vector, int]:
    """Random smooth chart point plus the number of resamples it took."""
    for tries in range(SMOOTH_TRIES):
        pt = sample_point(rng, chart.n)
        if chart.is_smooth_at(pt):
            return pt, tries
    raise SingularPointError(f"no smooth sample found on {chart.label}")


def sample_curve(chart: Chart, rng: random.Random) -> tuple[Vector, Vector, Vector]:
    """(pt, lam, mu) of a curve pt + lam t + mu t^2: pt smooth, lam_1 = 1, mu_1 = 0."""
    pt, _ = sample_smooth_point(chart, rng)
    return pt, (_F1,) + sample_point(rng, chart.n - 1), (_F0,) + sample_point(rng, chart.n - 1)


# ---------------------------------------------------------------------------
# secant defects (Terracini)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectRecord:
    """Observed k-secant dimension against the expected tau_{n,k+1}.

    The k-secant variety is swept by the spans of k+1 points, so its expected
    dimension is tau_{n,k+1} = min{r, (k+1)(n+1) - 1} (``expected_tangent_dim``).
    """

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
    is counted and the shortfall raised as SingularPointError.  Each
    accepted point is ranked once: its smoothness test takes the chart's
    memoized tangent rank, which ``tangent_space`` reads.  No union can
    pass expected, so once a trial reaches it the later trials make their
    draws and check each point's tangent rank but rank no union.
    """
    if k < 1 or samples < 1:
        raise ValueError("need k >= 1 and samples >= 1")
    if k + 1 > sample_lattice_size(chart.n):
        raise ValueError(f"k+1 = {k + 1} exceeds the {sample_lattice_size(chart.n)} sample points")
    rng = random.Random(seed)
    expected = expected_tangent_dim(chart.n, k + 1, chart.r)
    best = -1
    witness: tuple[Vector, ...] = ()
    resamples = 0
    for _ in range(samples):
        pts: list[Vector] = []
        rows: list[tuple[int, ...]] = []
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
            # the order-1 table and tangent rank the smoothness test just took; all rows share den_c
            rows += tangent_space(chart, pt).rows
            repeats = 0
        # no union passes expected, so once a trial reaches it no later rank can change the report
        if best < expected:
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

def _osc2_rank(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
               mu: Sequence[Fraction]) -> int:
    """Rank of the 3n+1 criterion vectors at pt, taken of their numerator rows.

    Their generic independence is 2-osculating regularity: x; x_i; the
    Hessian contractions d_j x' = sum_i x_ij lam_i; and d_k x'' =
    sum_{i,j} x_kij lam_i lam_j + 2 sum_j x_kj mu_j, derivatives along the
    curve pt + lam t + mu t^2.
    """
    groups = [(0, ())] + [(h, (v,)) for h in (0, 1, 2) for v in unit_vectors(chart.n)]
    return LinearSpan.contracted(chart, pt, [jet_terms(h, (lam, mu), along)
                                             for h, along in groups]).rank


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
    # each trial's tables are read right after its draw, while the chart's memo holds them
    curves = (sample_curve(chart, rng) for _ in range(trials))
    pairs = [(_osc2_rank(chart, *curve), curve) for curve in curves]
    best, witness = max(pairs, key=itemgetter(0), default=(-1, None))
    return Osc2Verdict(regular=(best == needed), max_rank=best, needed=needed,
                       trial_ranks=tuple(rank for rank, _ in pairs), witness=witness,
                       trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# osculating-variety dimension via its parametrization
# ---------------------------------------------------------------------------

def osc_variety_dim(chart: Chart, m: int, samples: int = 5, seed: int = 0) -> int:
    """Generic dimension of the variety of m-osculating spaces (m = 1 or 2).

    Computed from the Jacobian of the parametrization
    y = x + alpha x' [+ beta x''], the t-derivatives along the curve
    u + lam t + mu t^2 with lam_1 = 1, mu_1 = 0: the projective dimension
    of the image is the generic rank of {y, all partials of y} minus 1.
    This is a route independent of the 3n+1-vector criterion, which is
    what makes their agreement a meaningful cross-check.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    e = unit_vectors(chart.n)
    rng = random.Random(seed)
    best = -1
    for _ in range(samples):
        pt, lam, mu = sample_curve(chart, rng)
        alpha, beta = map(Fraction, randints(rng, 1, COORD_RADIUS, 2))
        weights = (1, alpha, beta)[:m + 1]

        def dy(s: int, along: tuple = ()) -> list:
            # x(u + lam t + mu t^2) has d/d lam_j = t d_j and d/d mu_j = t^2 d_j,
            # so d_along t^s maps x^(h) to h!/(h-s)! d_along x^(h-s)
            return [(w * perm(h, s) * c, vs) for h, w in enumerate(weights) if h >= s
                    for c, vs in jet_terms(h - s, (lam, mu), along)]

        # y, then its partials in u_k, lam_j and mu_j (j >= 2), alpha and beta
        terms = [dy(0)] + [dy(0, (ek,)) for ek in e]
        terms += [dy(s, (ej,)) for s in range(1, m + 1) for ej in e[1:]]
        terms += [jet_terms(h, (lam, mu)) for h in range(1, m + 1)]
        best = max(best, LinearSpan.contracted(chart, pt, terms).dim)
    return best
