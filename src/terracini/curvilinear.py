"""Tangent spaces along curvilinear schemes of length 2 and 3.

The tangent space along a jet is the intersection of all hyperplanes whose
section of the variety is singular along the scheme; dually it is the span
of an explicit generator list of chart derivatives at the normalized jet.
Each generator is a list of ``contract`` terms over directions in the
normalized coordinates w, read through the normalizing frame from one
integer derivative table at the jet's base.  The scheme is special when
that span falls short of the expected dimension min{r, k(n+1)-1}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .chart import (
    AmbientTooSmallError,
    Chart,
    CurvilinearJet,
    normalized_derivatives,
    unit_vectors,
)
from .exactlin import Matrix, Vector, vdot
from .secants import COORD_RADIUS, LinearSpan, sample_smooth_point

_F0 = Fraction(0)
_F1 = Fraction(1)


def expected_tangent_dim(n: int, k: int, r: int) -> int:
    """tau_{n,k} = min{r, k(n+1) - 1}."""
    return min(r, k * (n + 1) - 1)


@dataclass(frozen=True)
class TangentAlongScheme:
    """Span of the tangent space along a curvilinear scheme, with verdict."""

    jet: CurvilinearJet          # normalized jet actually used
    span: LinearSpan
    expected: int
    special: bool
    zero_generators: tuple[int, ...]  # indices of generators that vanished
    generator_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.span.dim


def _generators(jet: CurvilinearJet) -> list[tuple[str, list]]:
    """Labelled ``contract`` terms, over w-directions, of the generator list.

    Stated for the normalized jet (lambda = e_1, mu_1 = 0), so each sum over
    i >= 2 in a label is a contraction with mu.
    """
    e = unit_vectors(jet.n)
    e1, mu = e[0], jet.mu
    gens = [("x", [(1, ())])]
    gens += [(f"x_{i}", [(1, (ei,))]) for i, ei in enumerate(e, 1)]
    gens += [(f"x_1{j}", [(1, (e1, ej))]) for j, ej in enumerate(e, 1)]
    gens.append(("x_111", [(1, (e1,) * 3)]))
    if jet.length == 3:
        gens += [(f"2*sum x_i{h} mu_i + x_11{h}", [(2, (mu, eh)), (1, (e1, e1, eh))])
                 for h, eh in enumerate(e[1:], 2)]
        gens.append(("12*sum x_ij mu_i mu_j + 12*sum x_11i mu_i + x_1111",
                     [(12, (mu, mu)), (12, (e1, e1, mu)), (1, (e1,) * 4)]))
        gens.append(("60*sum x_1ij mu_i mu_j + 20*sum x_111i mu_i + x_11111",
                     [(60, (e1, mu, mu)), (20, (e1, e1, e1, mu)), (1, (e1,) * 5)]))
    return gens


def tangent_along(chart: Chart, jet: CurvilinearJet) -> TangentAlongScheme:
    """Tangent space along a length-2 or length-3 curvilinear scheme.

    The generator list is stated for normalized jets (lambda = e_1,
    mu_1 = 0).  Their chart derivatives come from ``normalized_derivatives``,
    which contracts this chart's derivative table at the jet's base with the
    normalizing frame; ``jet_normalize`` builds the same data symbolically
    and serves as the reference route in tests.  Zero generators (e.g. the
    quintic combination on a quadratic chart) are kept in the list and
    flagged, they cannot affect the rank.
    """
    if jet.length == 3 and chart.r < 3 * chart.n + 2:
        raise AmbientTooSmallError(
            f"length-3 analysis needs r >= 3n+2 = {3 * chart.n + 2}, have r={chart.r}"
            " (project the chart first)")
    njet, cw = normalized_derivatives(chart, jet)
    gens = _generators(njet)
    vecs = [cw(terms) for _, terms in gens]
    span = LinearSpan.of(vecs, chart.r + 1)
    expected = expected_tangent_dim(chart.n, jet.length, chart.r)
    zeros = tuple(i for i, v in enumerate(vecs) if all(c == 0 for c in v))
    return TangentAlongScheme(jet=njet, span=span, expected=expected,
                              special=span.dim < expected, zero_generators=zeros,
                              generator_labels=tuple(label for label, _ in gens))


# ---------------------------------------------------------------------------
# the dual hyperplane system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperplaneSystem:
    """Hyperplanes singular along the scheme: annihilator of the tangent span."""

    covectors: tuple[Vector, ...]
    dim: int                   # projective dimension of the system
    tangent_dim: int
    speciality_threshold: int  # system dim > threshold exactly when special
    special: bool


def hyperplane_system(chart: Chart, jet: CurvilinearJet) -> HyperplaneSystem:
    """Covector basis of the hyperplanes whose section is singular along the jet."""
    tas = tangent_along(chart, jet)
    m = Matrix.from_rows(tas.span.generators)
    covs = tuple(m.right_nullspace())
    for a in covs:  # nullspace contract: every covector kills every generator
        assert all(vdot(a, v) == 0 for v in tas.span.generators)
    threshold = chart.r - jet.length * (chart.n + 1)
    sys_dim = len(covs) - 1
    return HyperplaneSystem(covectors=covs, dim=sys_dim, tangent_dim=tas.dim,
                            speciality_threshold=threshold,
                            special=sys_dim > threshold)


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
        lam = tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
                    for _ in range(chart.n))
        if any(c != 0 for c in lam):
            break
    mu = tuple(Fraction(rng.randint(-COORD_RADIUS, COORD_RADIUS))
               for _ in range(chart.n))
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
    dims: list[int] = []
    best = -1
    witness = None
    for _ in range(trials):
        jet = random_jet(chart, rng, length)
        tas = tangent_along(chart, jet)
        dims.append(tas.dim)
        if tas.dim > best:
            best = tas.dim
            witness = jet
    return SpecialityVerdict(length=length, special=(best < expected),
                             expected=expected, best_dim=best,
                             trial_dims=tuple(dims), witness=witness,
                             trials=trials, seed=seed)


def special_position_jets(chart: Chart, count: int, seed: int = 0) -> list[CurvilinearJet]:
    """Spot-check jets in special position: mu = 0, lambda along coordinate axes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        base, _ = sample_smooth_point(chart, rng)
        axis = i % chart.n
        lam = tuple(_F1 if j == axis else _F0 for j in range(chart.n))
        out.append(CurvilinearJet(base=base, lam=lam,
                                  mu=tuple(_F0 for _ in range(chart.n)), length=3))
    return out
