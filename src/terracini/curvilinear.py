"""Tangent spaces along curvilinear schemes of length 2 and 3.

The tangent space along a jet is the intersection of all hyperplanes whose
section of the variety is singular along the scheme; dually it is the span
of an explicit generator list of chart derivatives at the normalized jet.
Through the normalizing frame each generator is a curve derivative of x
or of one of its partials, whose ``jet_terms`` are contracted from one
integer derivative table at the jet's base; ``tangent_along`` returns
that span alone.  The scheme is special when its dim falls short of the
expected dimension min{r, k(n+1)-1}.  The dual route, a covector basis of
that hyperplane system, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .chart import (
    AmbientTooSmallError,
    Chart,
    CurvilinearJet,
    _normalized_frame,
    jet_terms,
    unit_vectors,
)
from .secants import LinearSpan, expected_tangent_dim, sample_point, sample_smooth_point


def tangent_along(chart: Chart, jet: CurvilinearJet) -> LinearSpan:
    """Span of the tangent space along a length-2 or length-3 curvilinear scheme.

    For the normalized jet (u = base + M w, lambda = e_1, mu_1 = 0) the
    generators are x, x_1..x_n, x_11..x_1n, x_111 and, for length 3,
    2*sum x_ih mu_i + x_11h (h >= 2), 12*sum x_ij mu_i mu_j + 12*sum x_11i
    mu_i + x_1111 and 60*sum x_1ij mu_i mu_j + 20*sum x_111i mu_i + x_11111.
    By the chain rule each is a derivative of x, or of its partial along a
    column M e_j, along the line (lambda,) or the curve (lambda, mu - w_1
    lambda), read from the chart's own table at the jet's base (tests
    compare a substituted chart).  A generator that vanishes (the quintic
    one on a quadratic chart) is kept as a zero row.
    """
    if jet.length == 3 and chart.r < 3 * chart.n + 2:
        raise AmbientTooSmallError(
            f"length-3 analysis needs r >= 3n+2 = {3 * chart.n + 2}, have r={chart.r}"
            " (project the chart first)")
    frame, mu = _normalized_frame(jet)
    line = (jet.lam,)
    gens = [jet_terms(0, line)] + [jet_terms(0, line, (v,)) for v in frame]
    gens += [jet_terms(1, line, (v,)) for v in frame] + [jet_terms(3, line)]
    if jet.length == 3:
        curve = line + (mu,)
        gens += [jet_terms(2, curve, (v,)) for v in frame[1:]]
        gens += [jet_terms(4, curve), jet_terms(5, curve)]
    return LinearSpan.contracted(chart, jet.base, gens)


# ---------------------------------------------------------------------------
# generic speciality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialityVerdict:
    length: int
    special: bool
    expected: int
    best_dim: int
    trial_dims: tuple[int, ...]
    witness: CurvilinearJet | None  # jet attaining the best dimension
    trials: int
    seed: int


def random_jet(chart: Chart, rng: random.Random, length: int) -> CurvilinearJet:
    base, _ = sample_smooth_point(chart, rng)
    while True:
        lam = sample_point(rng, chart.n)
        if any(c != 0 for c in lam):
            break
    mu = sample_point(rng, chart.n)
    return CurvilinearJet(base=base, lam=lam, mu=mu, length=length)


def generic_speciality(chart: Chart, length: int, trials: int = 5,
                       seed: int = 0) -> SpecialityVerdict:
    """Speciality along a general curvilinear scheme of the given length.

    Regular iff some trial attains the expected dimension; the max over the
    seeded trials is a lower bound for the generic dimension.
    """
    if trials < 1:
        raise ValueError("trials >= 1")
    rng = random.Random(seed)
    expected = expected_tangent_dim(chart.n, length, chart.r)
    # each trial's tables are read right after its draw, while the chart's memo holds them
    jets = (random_jet(chart, rng, length) for _ in range(trials))
    pairs = [(tangent_along(chart, jet).dim, jet) for jet in jets]
    best, witness = max(pairs, key=itemgetter(0))
    return SpecialityVerdict(length=length, special=(best < expected),
                             expected=expected, best_dim=best,
                             trial_dims=tuple(dim for dim, _ in pairs), witness=witness,
                             trials=trials, seed=seed)


def special_position_jets(chart: Chart, count: int, seed: int = 0) -> list[CurvilinearJet]:
    """Spot-check jets in special position: mu = 0, lambda along coordinate axes."""
    rng = random.Random(seed)
    axes = unit_vectors(chart.n)
    out = []
    for i in range(count):
        base, _ = sample_smooth_point(chart, rng)
        out.append(CurvilinearJet(base=base, lam=axes[i % chart.n], mu=(0,) * chart.n, length=3))
    return out
