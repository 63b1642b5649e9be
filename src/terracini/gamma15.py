"""Quasi-asymptotic curve machinery and the theorem audit pipeline.

For an n-fold in P^{3n+2}, the existence of a 3(n-1)-dimensional family of
(1,5)-quasi-asymptotic curves (one through each general length-3
curvilinear scheme) is equivalent to the identical vanishing, in the jet
coefficients (lambda, mu), of the determinant D of a fixed (3n+3)-square
matrix of derivative contractions.  This module builds that matrix (each
column one ``chart.contract`` call over a single derivative table),
decides D == 0 by seeded Schwartz-Zippel testing (exact symbolic expansion
is available for n <= 3 as a certifying mode), audits the five-jet rank
condition, the constancy of the span Pi along coordinate curves, and the
equivalence of the determinant verdict with curvilinear speciality, and
runs the end-to-end 2-defectivity pipeline.

Convention note (recorded in every report): the fifth-order tangential
column contracts the order-5 symmetric derivative tensor x_{ijklm} against
lambda five times; all multi-index symbols follow the symmetric-tensor
convention forced by Taylor's theorem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chart import (
    AmbientTooSmallError,
    Chart,
    DegenerateJetError,
    FiveJet,
    contract,
    curve_derivatives,
    unit_vectors,
)
from .curvilinear import (
    SpecialityVerdict,
    generic_speciality,
    special_position_jets,
    tangent_along,
)
from .exactlin import (
    Matrix,
    MultiPoly,
    SZResult,
    Vector,
    poly_det,
    span_rank,
    sz_zero_test,
)
from .secants import DefectRecord, LinearSpan, Osc2Verdict, osc2_regular, secant_defect

_F0 = Fraction(0)
_F1 = Fraction(1)

CONVENTION_NOTE = ("quintic column uses the five-index symmetric derivative "
                   "tensor x_ijklm contracted with lambda^5")


class AmbientMismatchError(ValueError):
    """Operation requires ambient dimension exactly 3n+2."""


class PreconditionFailedError(ValueError):
    """Coordinate curve fails the quasi-asymptotic rank condition."""


class TooLargeError(ValueError):
    """Symbolic expansion requested beyond the supported dimension."""


def _require_square_ambient(chart: Chart) -> None:
    if chart.r != 3 * chart.n + 2:
        raise AmbientMismatchError(
            f"need r = 3n+2 = {3 * chart.n + 2}, have r = {chart.r}"
            " (generically project the chart first)")


# ---------------------------------------------------------------------------
# the (3n+3)-square determinant matrix
# ---------------------------------------------------------------------------

def _gamma15_columns(chart: Chart, pt: Sequence[Fraction], lam, mu):
    """Columns of the determinant matrix, contracted from one table at pt.

    ``contract`` expands over the scalars of lam and mu: Fractions give
    numeric columns, MultiPoly scalars the symbolic expansion.  Column order
    is fixed: x; x_1..x_n; the n Hessian contractions sum_i x_ij lam_i; the
    quartic combination; the n cubic combinations
    2 sum_i x_ik mu_i + sum_ij x_ijk lam_i lam_j; the quintic combination.
    """
    n = chart.n
    t = chart.integer_table(pt, 5)
    e = unit_vectors(n)
    groups = [("x", [(1, ())])]
    groups += [(f"x_{i + 1}", [(1, (e[i],))]) for i in range(n)]
    groups += [(f"sum_i x_i{j + 1} lam_i", [(1, (lam, e[j]))]) for j in range(n)]
    groups.append(("quartic combination",
                   [(1, (lam,) * 4), (12, (lam, lam, mu)), (12, (mu, mu))]))
    groups += [(f"cubic combination k={k + 1}", [(2, (mu, e[k])), (1, (lam, lam, e[k]))])
               for k in range(n)]
    groups.append(("quintic combination",
                   [(1, (lam,) * 5), (20, (lam, lam, lam, mu)), (60, (lam, mu, mu))]))
    return [contract(t, terms) for _, terms in groups], [label for label, _ in groups]


@dataclass(frozen=True)
class Gamma15Matrix:
    pt: Vector
    lam: Vector
    mu: Vector
    matrix: Matrix
    column_labels: tuple[str, ...]


def gamma15_matrix(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
                   mu: Sequence[Fraction]) -> Gamma15Matrix:
    """The (3n+3)-square matrix whose vanishing determinant is the curve condition."""
    _require_square_ambient(chart)
    lam = tuple(Fraction(x) for x in lam)
    mu = tuple(Fraction(x) for x in mu)
    if all(c == 0 for c in lam):
        raise DegenerateJetError("lambda = 0")
    cols, labels = _gamma15_columns(chart, pt, lam, mu)
    return Gamma15Matrix(pt=tuple(Fraction(x) for x in pt), lam=lam, mu=mu,
                         matrix=Matrix.from_columns(cols),
                         column_labels=tuple(labels))


def gamma15_det(chart: Chart, pt: Sequence[Fraction], lam: Sequence[Fraction],
                mu: Sequence[Fraction]) -> Fraction:
    return gamma15_matrix(chart, pt, lam, mu).matrix.det()


def gamma15_degree_bound(chart: Chart) -> tuple[int, dict[str, int]]:
    """Upper bound for the total degree of D in (pt, lambda, mu) jointly.

    Per column: the (lambda, mu)-degree is exact (n columns of degree 1,
    one of degree 4, n of degree 2, one of degree 5, totalling 3n+9) and
    the point degree is bounded by the coordinate degree minus the lowest
    derivative order appearing in the column.
    """
    n = chart.n
    d = max(chart.max_coord_degree(), 0)

    def udeg(order: int) -> int:
        return max(d - order, 0)

    per = {
        "x": udeg(0),
        "x_i": n * udeg(1) + n * 0,
        "hessian contractions": n * (udeg(2) + 1),
        "quartic combination": udeg(2) + 4,
        "cubic combinations": n * (udeg(2) + 2),
        "quintic combination": udeg(3) + 5,
    }
    total = udeg(0) + n * udeg(1) + per["hessian contractions"] \
        + per["quartic combination"] + per["cubic combinations"] \
        + per["quintic combination"]
    return total, per


def gamma15_lamu_degree(n: int) -> int:
    """Exact (lambda, mu)-degree bound of D: n*1 + 4 + n*2 + 5 = 3n + 9."""
    return 3 * n + 9


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


def gamma15_identically_zero(chart: Chart, trials: int = 20,
                             seed: int = 0) -> Gamma15Verdict:
    """Schwartz-Zippel identity test of D over (pt, lambda, mu) jointly.

    D identically zero in all 3n variables is the same as D identically
    zero in (lambda, mu) at a general point, which is the family-existence
    criterion.
    """
    _require_square_ambient(chart)
    n = chart.n
    bound, _ = gamma15_degree_bound(chart)

    def evaluator(coords: tuple[int, ...]) -> Fraction:
        pt = tuple(Fraction(c) for c in coords[:n])
        lam = tuple(Fraction(c) for c in coords[n:2 * n])
        mu = tuple(Fraction(c) for c in coords[2 * n:])
        if all(c == 0 for c in lam):
            # legitimate zero of D (the Hessian contraction columns vanish)
            return _F0
        return gamma15_det(chart, pt, lam, mu)

    sz = sz_zero_test(evaluator, 3 * n, bound, trials=trials, seed=seed)
    if sz.identically_zero:
        return Gamma15Verdict(True, None, None, None, None, bound, sz)
    w = sz.witness
    return Gamma15Verdict(False, w[:n], w[n:2 * n], w[2 * n:], sz.witness_value,
                          bound, sz)


# ---------------------------------------------------------------------------
# five-jet rank condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiveJetRankCheck:
    """Rank of {x, x_1..x_n, x', x'', x''', x'''', x'''''} and its verdict.

    The curve derivative x' lies in <x_1..x_n> identically, so the listed
    n+6 vectors can never exceed rank n+5; the curve condition at the jet
    is that the span degenerates one step further, to rank <= n+4 (the
    span of the tangent space and the fifth osculating flag of the curve
    falls below its expected dimension).
    """

    rank: int
    condition_holds: bool
    dependency_threshold: int   # n + 4
    structural_bound: int       # n + 5
    vector_count: int           # n + 6


def five_jet_rank_check(chart: Chart, jet: FiveJet) -> FiveJetRankCheck:
    _require_square_ambient(chart)
    n = chart.n
    x = chart.derivative_vector(jet.base, ())
    xi = [chart.derivative_vector(jet.base, (i,)) for i in range(n)]
    rank = span_rank([x] + xi + list(curve_derivatives(chart, jet)))
    return FiveJetRankCheck(rank=rank, condition_holds=(rank <= n + 4),
                            dependency_threshold=n + 4, structural_bound=n + 5,
                            vector_count=n + 6)


# ---------------------------------------------------------------------------
# the span Pi along coordinate curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiSpace:
    """Span of x, x_1..x_n, x_11..x_1n, x_111..x_11n, x_1111 along the u_1-curve."""

    u1: Fraction
    span: LinearSpan

    @property
    def dim(self) -> int:
        return self.span.dim


def _coordinate_five_jet(chart: Chart, u1: Fraction) -> FiveJet:
    n = chart.n
    zero = tuple(_F0 for _ in range(n))
    base = (Fraction(u1),) + zero[1:]
    e1 = (_F1,) + zero[1:]
    return FiveJet(base=base, lam=e1, mu=zero, nu=zero, rho=zero, sigma=zero)


def pi_space(chart: Chart, u1: Fraction) -> PiSpace:
    """Pi at a sample of the u_1 coordinate curve (other parameters at 0).

    Precondition: the coordinate curve satisfies the quasi-asymptotic rank
    condition at the sample (checked through five_jet_rank_check).
    """
    _require_square_ambient(chart)
    n = chart.n
    check = five_jet_rank_check(chart, _coordinate_five_jet(chart, u1))
    if not check.condition_holds:
        raise PreconditionFailedError(
            f"u_1-coordinate curve is not quasi-asymptotic at u1={u1}"
            f" (rank {check.rank} > {check.dependency_threshold})")
    base = (Fraction(u1),) + tuple(_F0 for _ in range(n - 1))
    d = chart.derivative_table(base, 4)
    vecs = [d[()]] + [d[(i,)] for i in range(n)]
    vecs += [d[tuple(sorted((0, j)))] for j in range(n)]
    vecs += [d[tuple(sorted((0, 0, k)))] for k in range(n)]
    vecs.append(d[(0, 0, 0, 0)])
    return PiSpace(u1=Fraction(u1), span=LinearSpan.of(vecs, chart.r + 1))


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
    """
    if not samples:
        raise ValueError("need at least one sample")
    spaces = [pi_space(chart, u1) for u1 in samples]
    dims = tuple(s.dim for s in spaces)
    union: list[Vector] = []
    for s in spaces:
        union.extend(s.span.generators)
    constant = len(set(dims)) == 1 and span_rank(union) == spaces[0].span.rank
    contained = True
    for s in spaces:
        n = chart.n
        base = (s.u1,) + tuple(_F0 for _ in range(n - 1))
        tangent = [chart.derivative_vector(base, ())]
        tangent += [chart.derivative_vector(base, (i,)) for i in range(n)]
        if span_rank(list(s.span.generators) + tangent) != s.span.rank:
            contained = False
    lo, hi = 3 * chart.n, 3 * chart.n + 1
    return PiConstancyReport(samples=tuple(Fraction(s) for s in samples), dims=dims,
                             constant=constant, tangent_contained=contained,
                             dim_lower=lo, dim_upper=hi,
                             dims_within_bounds=all(lo <= d <= hi for d in dims))


# ---------------------------------------------------------------------------
# symbolic expansion audit (small n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimAuditReport:
    """Exact symbolic expansion of D in (lambda, mu) at a fixed point.

    For n >= 2 also extracts the two determinant-relation coefficients
    (lam_1^{3n+7} mu_2 and lam_1^{3n+6} lam_2 mu_1) and the derived
    determinant |S x_1111 x_111 ... x_11n x_1112| whose vanishing they
    force whenever D == 0.
    """

    n: int
    identically_zero: bool
    total_degree: int
    degree_bound: int
    degree_bound_ok: bool
    evaluations_match: bool
    evaluations: int
    coeff_lam_high_mu2: Fraction | None
    coeff_lam_high_lam2_mu1: Fraction | None
    derived_det: Fraction | None


def claim_coefficient_audit(chart: Chart, pt: Sequence[Fraction],
                            evaluations: int = 10, seed: int = 0) -> ClaimAuditReport:
    """Expand D symbolically (n <= 3) and audit its monomial coefficients."""
    _require_square_ambient(chart)
    n = chart.n
    if n > 3:
        raise TooLargeError(f"symbolic expansion supported for n <= 3, got n={n}")
    nv = 2 * n  # variables: lam_1..lam_n, mu_1..mu_n
    lam = [MultiPoly.variable(nv, i) for i in range(n)]
    mu = [MultiPoly.variable(nv, n + i) for i in range(n)]
    cols, _ = _gamma15_columns(chart, pt, lam, mu)
    rows = [[x if isinstance(x, MultiPoly) else MultiPoly.constant(nv, x) for x in row]
            for row in zip(*cols)]
    sym = poly_det(rows)

    rng = random.Random(seed)
    match = True
    for _ in range(evaluations):
        lam_v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if all(c == 0 for c in lam_v):
            lam_v = (_F1,) * n
        mu_v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if sym.eval(lam_v + mu_v) != gamma15_det(chart, pt, lam_v, mu_v):
            match = False

    coeff1 = coeff2 = derived = None
    if n >= 2:
        e1 = [0] * nv
        e1[0] = 3 * n + 7          # lam_1^{3n+7}
        e1[n + 1] = 1              # mu_2
        coeff1 = sym.coefficient(tuple(e1))
        e2 = [0] * nv
        e2[0] = 3 * n + 6          # lam_1^{3n+6}
        e2[1] = 1                  # lam_2
        e2[n] = 1                  # mu_1
        coeff2 = sym.coefficient(tuple(e2))
        d = chart.derivative_table(pt, 4)
        cols_num = [d[()]] + [d[(i,)] for i in range(n)]
        cols_num += [d[tuple(sorted((0, j)))] for j in range(n)]
        cols_num.append(d[(0, 0, 0, 0)])
        cols_num += [d[tuple(sorted((0, 0, k)))] for k in range(n)]
        cols_num.append(d[tuple(sorted((0, 0, 0, 1)))])
        derived = Matrix.from_columns(cols_num).det()

    bound = gamma15_lamu_degree(n)
    deg = sym.total_degree()
    return ClaimAuditReport(n=n, identically_zero=sym.is_zero(), total_degree=deg,
                            degree_bound=bound, degree_bound_ok=(deg <= bound),
                            evaluations_match=match, evaluations=evaluations,
                            coeff_lam_high_mu2=coeff1, coeff_lam_high_lam2_mu1=coeff2,
                            derived_det=derived)


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


def defect_pipeline(chart: Chart, trials: int = 5, samples: int = 5,
                    seed: int = 0, spot_checks: int = 4) -> DefectReport:
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
    spots = special_position_jets(chart, spot_checks, seed=seed + 1)
    spot_dims = tuple(tangent_along(chart, jet).dim for jet in spots)
    spot_special = all(dim < spec.expected for dim in spot_dims)
    osc2 = osc2_regular(chart, trials=trials, seed=seed + 2)
    hyp = spec.special and spot_special and osc2.regular
    rec = secant_defect(chart, 2, samples=samples, seed=seed + 3)
    return DefectReport(chart_label=chart.label, n=chart.n, r=chart.r,
                        speciality=spec, spot_dims=spot_dims,
                        spot_all_special=spot_special, osc2=osc2,
                        hypotheses_hold=hyp, secant=rec,
                        theorem_violated=(hyp and rec.defect == 0),
                        converse_observed=(rec.defect > 0 and not hyp), seed=seed)
