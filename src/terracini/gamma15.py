"""Quasi-asymptotic curve machinery and the theorem audit pipeline.

For an n-fold in P^{3n+2}, the existence of a 3(n-1)-dimensional family of
(1,5)-quasi-asymptotic curves (one through each general length-3
curvilinear scheme) is equivalent to the identical vanishing, in the jet
coefficients (lambda, mu), of the determinant D of a fixed (3n+3)-square
matrix of derivative contractions.  This module builds that matrix (its
column structure once per n, its terms contracted in one
``chart.contract_numerators`` pass on first use; a column of partials above
the chart degree gives D = 0 with no term built), decides D == 0 by seeded
Schwartz-Zippel testing (the exact symbolic expansion of D for n <= 3 is
a test oracle in ``tests/oracles.py``), takes the five-jet rank of a curve,
audits the constancy of the span Pi along coordinate curves, and the
equivalence of the determinant verdict with curvilinear speciality, and
runs the end-to-end 2-defectivity pipeline.

Convention note (recorded in every report): the fifth-order tangential
column contracts the order-5 symmetric derivative tensor x_{ijklm} against
lambda five times; all multi-index symbols follow the symmetric-tensor
convention forced by Taylor's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import prod
from typing import Sequence

from .chart import (
    AmbientTooSmallError,
    Chart,
    DegenerateJetError,
    _partitions,
    jet_terms,
    unit_vectors,
)
from .curvilinear import (
    SpecialityVerdict,
    generic_speciality,
    special_position_jets,
    tangent_along,
)
from .exactlin import (
    _F0,
    SZResult,
    Vector,
    integer_det,
    span_rank,
    sz_zero_test,
)
from .secants import DefectRecord, LinearSpan, Osc2Verdict, osc2_regular, secant_defect

CONVENTION_NOTE = ("quintic column uses the five-index symmetric derivative "
                   "tensor x_ijklm contracted with lambda^5")
SPOT_CHECKS = 4  # special-position jets per defect_pipeline run
SZ_TRIALS = 20  # Schwartz-Zippel trials per gamma15_identically_zero run


class AmbientMismatchError(ValueError):
    """Operation requires ambient dimension exactly 3n+2."""


class PreconditionFailedError(ValueError):
    """Coordinate curve fails the quasi-asymptotic rank condition."""


def _require_square_ambient(chart: Chart) -> None:
    if chart.r != 3 * chart.n + 2:
        raise AmbientMismatchError(
            f"need r = 3n+2 = {3 * chart.n + 2}, have r = {chart.r}"
            " (generically project the chart first)")


# ---------------------------------------------------------------------------
# the (3n+3)-square determinant matrix
# ---------------------------------------------------------------------------

@cache
def _gamma15_spec(n: int) -> tuple[tuple[int, tuple], ...]:
    """(m, along) per column of the determinant matrix; it depends on n alone.

    Column j is d_along (d/dt)^m x along the curve pt + lam t + mu t^2: x;
    x_1..x_n; the n Hessian contractions d_j x' = sum_i x_ij lam_i; the
    quartic x^(4); the n cubic combinations d_k x'' = 2 sum_i x_ik mu_i +
    sum_ij x_ijk lam_i lam_j; the quintic x^(5).
    """
    e = unit_vectors(n)
    return ((0, ()), *((0, (ei,)) for ei in e), *((1, (ej,)) for ej in e), (4, ()),
            *((2, (ek,)) for ek in e), (5, ()))


@cache
def _lowest_orders(n: int) -> tuple[int, ...]:
    """Per column, the lowest order of partials its terms read: len(along) + fewest parts of m."""
    return tuple(len(along) + min(len(p) for _, p in _partitions(m, 2))
                 for m, along in _gamma15_spec(n))


def _det(columns: LinearSpan) -> Fraction:
    """Determinant of the square matrix whose columns are the span's generators.

    Scaling rows and columns scales the determinant by their product, so it
    is the integer determinant of the numerator rows divided once by
    prod(dens) * prod(scales).
    """
    return Fraction(integer_det(columns.rows), prod(columns.dens) * prod(columns.scales))


@dataclass(frozen=True)
class Gamma15Matrix:
    """The determinant matrix at (pt, lam, mu), ints and Fractions kept; contracted on first use."""

    chart: Chart
    pt: Vector
    lam: Vector
    mu: Vector

    @cached_property
    def terms(self) -> tuple[list, ...]:
        return tuple(jet_terms(m, (self.lam, self.mu), along)
                     for m, along in _gamma15_spec(self.chart.n))

    @cached_property
    def columns(self) -> LinearSpan:
        return LinearSpan.contracted(self.chart, self.pt, self.terms)

    def det(self) -> Fraction:
        if max(_lowest_orders(self.chart.n)) > self.chart.max_coord_degree():
            return _F0  # a column of partials above the chart degree is zero
        return _det(self.columns)


def _exact(v: Sequence) -> tuple:
    """v as a tuple, as given if all its entries are ints and Fractions, else through Fraction."""
    v = tuple(v)
    return v if {int, Fraction}.issuperset(map(type, v)) else tuple(map(Fraction, v))


def gamma15_matrix(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
                   mu: Sequence[Fraction]) -> Gamma15Matrix:
    """The (3n+3)-square matrix whose vanishing determinant is the curve condition; see _exact."""
    _require_square_ambient(chart)
    pt, lam, mu = _exact(pt), _exact(lam), _exact(mu)
    if all(c == 0 for c in lam):
        raise DegenerateJetError("lambda = 0")
    if any(len(v) != chart.n for v in (pt, lam, mu)):
        raise ValueError(f"point, lambda and mu need length n={chart.n}")
    return Gamma15Matrix(chart=chart, pt=pt, lam=lam, mu=mu)


def gamma15_degree_bound(chart: Chart) -> int:
    """Upper bound for the total degree of D in (pt, lambda, mu) jointly.

    Per column: the (lambda, mu)-degree is at most its m, and the point
    degree at most the coordinate degree minus the lowest derivative order
    the column reads.
    """
    d = chart.max_coord_degree()
    return sum(m + max(d - low, 0)
               for (m, _), low in zip(_gamma15_spec(chart.n), _lowest_orders(chart.n)))


@dataclass(frozen=True)
class Gamma15Verdict:
    identically_zero: bool
    witness_pt: tuple[int, ...] | None
    witness_lam: tuple[int, ...] | None
    witness_mu: tuple[int, ...] | None
    witness_value: Fraction | None
    degree_bound: int
    sz: SZResult
    note: str = CONVENTION_NOTE


def gamma15_identically_zero(chart: Chart, seed: int = 0) -> Gamma15Verdict:
    """Schwartz-Zippel identity test of D over (pt, lambda, mu) jointly, SZ_TRIALS trials.

    D identically zero in all 3n variables is the same as D identically
    zero in (lambda, mu) at a general point, which is the family-existence
    criterion.
    """
    _require_square_ambient(chart)
    n = chart.n
    bound = gamma15_degree_bound(chart)

    def evaluator(coords: tuple[int, ...]) -> Fraction:
        # the drawn ints go through as they are: no Fraction is built
        lam = coords[n:2 * n]
        if not any(lam):
            # legitimate zero of D (the Hessian contraction columns vanish)
            return _F0
        return gamma15_matrix(chart, coords[:n], lam, coords[2 * n:]).det()

    sz = sz_zero_test(evaluator, 3 * n, bound, trials=SZ_TRIALS, seed=seed)
    if sz.identically_zero:
        return Gamma15Verdict(True, None, None, None, None, bound, sz)
    w = sz.witness
    return Gamma15Verdict(False, w[:n], w[n:2 * n], w[2 * n:], sz.witness_value,
                          bound, sz)


# ---------------------------------------------------------------------------
# five-jet rank condition
# ---------------------------------------------------------------------------

def five_jet_rank(chart: Chart, base: Vector, coeffs: Sequence[Vector]) -> int:
    """Rank of x, x_1..x_n, x', ..., x^(5) along u = base + sum_k coeffs[k-1] t^k.

    Missing coefficients are zero.  The span reads the table at base of the
    order its terms need, 5 unless coeffs is empty, and ``pi_space``'s
    order-4 span then reads the same table.  x' lies in <x_1..x_n>
    identically, so the n+6 vectors never exceed rank n+5; the curve
    condition at base is rank <= n+4 (the span of the tangent space and the
    curve's fifth osculating flag falls below its expected dimension).
    """
    _require_square_ambient(chart)
    # x, x_1..x_n, then x', ..., x^(5) along the curve
    groups = [(0, ())] + [(0, (e,)) for e in unit_vectors(chart.n)] + [(k, ()) for k in range(1, 6)]
    return LinearSpan.contracted(chart, base,
                                 [jet_terms(h, coeffs, along) for h, along in groups]).rank


# ---------------------------------------------------------------------------
# the span Pi along coordinate curves
# ---------------------------------------------------------------------------

def pi_space(chart: Chart, u1: Fraction) -> LinearSpan:
    """Pi at a sample of the u_1 coordinate curve (other parameters at 0).

    Its rows are x, x_1..x_n, x_11..x_1n, x_111..x_11n and x_1111, in that
    order.  Precondition: the coordinate curve base + e_1 t is quasi-asymptotic
    at the sample, its ``five_jet_rank`` at most n+4.
    """
    n = chart.n
    e = unit_vectors(n)
    base = (Fraction(u1),) + (_F0,) * (n - 1)
    rank = five_jet_rank(chart, base, e[:1])
    if rank > n + 4:
        raise PreconditionFailedError(
            f"u_1-coordinate curve is not quasi-asymptotic at u1={u1} (rank {rank} > {n + 4})")
    # x, x_i, x_1j, x_11k, x_1111: derivatives along the u_1 line
    groups = [(0, ())] + [(h, (ei,)) for h in (0, 1, 2) for ei in e] + [(4, ())]
    return LinearSpan.contracted(chart, base,
                                 [jet_terms(h, e[:1], along) for h, along in groups])


@dataclass(frozen=True)
class PiConstancyReport:
    samples: tuple[Fraction, ...]
    dims: tuple[int, ...]
    constant: bool
    tangent_contained: bool
    dim_lower: int            # 3n
    dim_upper: int            # 3n + 1
    dims_within_bounds: bool
    note: str = CONVENTION_NOTE


def pi_constancy_check(chart: Chart, samples: Sequence[Fraction]) -> PiConstancyReport:
    """Pairwise equality of Pi across u_1 samples plus tangent containment.

    Equality is decided by mutual containment through ranks: all spans have
    equal rank and the union has the same rank.  Also records whether each
    dim lies in [3n, 3n+1]; the bound is reported, not enforced, so charts
    violating the regularity hypothesis still get a faithful report.

    ``tangent_contained`` decides nothing: each Pi contains its own first
    n+1 generators (x, x_i at its base) by construction.  ROADMAP.md item 6
    plans the real test, one sample's tangent space against another's Pi.
    """
    if not samples:
        raise ValueError("need at least one sample")
    spaces = [pi_space(chart, u1) for u1 in samples]
    dims = tuple(s.dim for s in spaces)
    # one chart, so every span's rows share the column scales den_c
    union = [row for s in spaces for row in s.rows]
    constant = len(set(dims)) == 1 and span_rank(union) == spaces[0].rank
    # the tangent space at the base is spanned by Pi's first n+1 rows, x and x_i
    k = chart.n + 1
    contained = all(s.contains_span(LinearSpan(s.rows[:k], s.scales[:k], s.dens))
                    for s in spaces)
    lo, hi = 3 * chart.n, 3 * chart.n + 1
    return PiConstancyReport(samples=tuple(Fraction(s) for s in samples), dims=dims,
                             constant=constant, tangent_contained=contained,
                             dim_lower=lo, dim_upper=hi,
                             dims_within_bounds=all(lo <= d <= hi for d in dims))


# ---------------------------------------------------------------------------
# equivalence of the two speciality criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    speciality: SpecialityVerdict
    gamma15: Gamma15Verdict
    consistent: bool


def equivalence_audit(chart: Chart, trials: int = 5, seed: int = 0) -> EquivalenceReport:
    """Check speciality along general length-3 schemes == identical vanishing of D."""
    _require_square_ambient(chart)
    spec = generic_speciality(chart, 3, trials=trials, seed=seed)
    gz = gamma15_identically_zero(chart, seed=seed)
    return EquivalenceReport(speciality=spec, gamma15=gz,
                             consistent=(spec.special == gz.identically_zero))


# ---------------------------------------------------------------------------
# the 2-defectivity pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectReport:
    """End-to-end audit: speciality and regularity hypotheses against delta_2."""

    chart_label: str
    n: int
    r: int
    speciality: SpecialityVerdict
    spot_dims: tuple[int, ...]
    spot_all_special: bool
    osc2: Osc2Verdict
    hypotheses_hold: bool
    secant: DefectRecord
    theorem_violated: bool     # hypotheses hold but delta_2 = 0; must never happen
    converse_observed: bool    # defective without both hypotheses
    seed: int
    note: str = CONVENTION_NOTE


def defect_pipeline(chart: Chart, trials: int = 5, seed: int = 0) -> DefectReport:
    """Run the full 2-defectivity audit on a chart with r >= 3n+2.

    Speciality is tested generically plus on special-position jets (mu = 0,
    lambda along coordinate axes), since the audited implication quantifies
    over every length-3 scheme; the secant defect always refers to the
    chart's own ambient space.
    """
    if chart.r < 3 * chart.n + 2:
        raise AmbientTooSmallError(
            f"pipeline needs r >= 3n+2 = {3 * chart.n + 2}, have r={chart.r}")
    spec = generic_speciality(chart, 3, trials=trials, seed=seed)
    spots = special_position_jets(chart, SPOT_CHECKS, seed=seed + 1)
    spot_dims = tuple(tangent_along(chart, jet).dim for jet in spots)
    spot_special = all(dim < spec.expected for dim in spot_dims)
    osc2 = osc2_regular(chart, trials=trials, seed=seed + 2)
    hyp = spec.special and spot_special and osc2.regular
    rec = secant_defect(chart, 2, samples=trials, seed=seed + 3)
    return DefectReport(chart_label=chart.label, n=chart.n, r=chart.r,
                        speciality=spec, spot_dims=spot_dims,
                        spot_all_special=spot_special, osc2=osc2,
                        hypotheses_hold=hyp, secant=rec,
                        theorem_violated=(hyp and rec.defect == 0),
                        converse_observed=(rec.defect > 0 and not hyp), seed=seed)
