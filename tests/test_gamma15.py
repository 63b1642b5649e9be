"""Determinant machinery, five-jet condition, Pi constancy and the audits."""

import random
from fractions import Fraction as F

import pytest

from terracini.catalog import load_catalog, make_random_variety, make_veronese
from terracini.chart import Chart, CurvilinearJet, FiveJet
from terracini.curvilinear import generic_speciality
from terracini.exactlin import Matrix, MultiPoly, span_rank
from terracini.gamma15 import (
    AmbientMismatchError,
    PreconditionFailedError,
    TooLargeError,
    _coordinate_five_jet,
    _gamma15_columns,
    claim_coefficient_audit,
    defect_pipeline,
    equivalence_audit,
    five_jet_rank_check,
    gamma15_degree_bound,
    gamma15_det,
    gamma15_identically_zero,
    gamma15_lamu_degree,
    gamma15_matrix,
    pi_constancy_check,
    pi_space,
)
from oracles import vaccum


def degenerate_chart_p8() -> Chart:
    """Surface chart in P^8 contained in a hyperplane (mechanism-test fixture)."""
    base = make_random_variety(2, 3, 7, 19)
    extra = base.coords[0] + base.coords[1]
    return Chart("degenerate-p8", 2, 8, base.coords + (extra,))


def rand_fivejet(rng, n):
    def vec(hi):
        return tuple(F(rng.randint(-hi, hi)) for _ in range(n))

    lam = vec(4)
    while all(c == 0 for c in lam):
        lam = vec(4)
    return FiveJet(base=vec(2), lam=lam, mu=vec(4), nu=vec(4), rho=vec(4),
                   sigma=vec(4))


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_matrix_shape_and_column_order_n1():
    c = make_veronese(1, 5)
    pt, lam, mu = (F(1),), (F(3),), (F(2),)
    gm = gamma15_matrix(c, pt, lam, mu)
    assert gm.matrix.rows == gm.matrix.cols == 6
    d = {k: c.derivative_vector(pt, k) for k in
         [(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)]}
    expected_cols = [
        d[()],
        d[(0,)],
        tuple(3 * x for x in d[(0, 0)]),
        tuple(81 * a + 12 * 9 * 2 * b + 12 * 4 * c_
              for a, b, c_ in zip(d[(0, 0, 0, 0)], d[(0, 0, 0)], d[(0, 0)])),
        tuple(4 * a + 9 * b for a, b in zip(d[(0, 0)], d[(0, 0, 0)])),
        tuple(243 * a + 20 * 27 * 2 * b + 60 * 3 * 4 * c_
              for a, b, c_ in zip(d[(0, 0, 0, 0, 0)], d[(0, 0, 0, 0)], d[(0, 0, 0)])),
    ]
    got_cols = [tuple(gm.matrix.entries[i][j] for i in range(6)) for j in range(6)]
    assert got_cols == expected_cols
    assert gm.column_labels[0] == "x" and "quintic" in gm.column_labels[-1]


def test_columns_reduce_to_coordinate_vectors_at_axis_jet():
    # lam = e_1, mu = 0: columns become x, x_i, x_1j, x_1111, x_11k, x_11111
    c = make_random_variety(2, 5, 8, 7)
    n = 2
    pt = (F(0), F(0))
    lam = (F(1), F(0))
    mu = (F(0), F(0))
    gm = gamma15_matrix(c, pt, lam, mu)
    cols = [tuple(gm.matrix.entries[i][j] for i in range(9)) for j in range(9)]
    d = c.derivative_table(pt, 5)
    assert cols[0] == d[()]
    assert cols[1] == d[(0,)] and cols[2] == d[(1,)]
    assert cols[3] == d[(0, 0)] and cols[4] == d[(0, 1)]        # hessian block
    assert cols[5] == d[(0, 0, 0, 0)]                           # quartic
    assert cols[6] == d[(0, 0, 0)] and cols[7] == d[(0, 0, 1)]  # cubic block
    assert cols[8] == d[(0, 0, 0, 0, 0)]                        # quintic


def test_matrix_requires_square_ambient():
    with pytest.raises(AmbientMismatchError):
        gamma15_matrix(make_veronese(2, 2), (F(0), F(0)), (F(1), F(0)), (F(0), F(0)))


def test_symbolic_column_degrees():
    # degrees in (lam, mu) per column group: 1 for the Hessian contractions,
    # <= 4 for the quartic, <= 2 for the cubics, <= 5 for the quintic
    c = make_random_variety(2, 5, 8, 7)
    nv = 4
    lam = [MultiPoly.variable(nv, i) for i in range(2)]
    mu = [MultiPoly.variable(nv, 2 + i) for i in range(2)]
    cols, labels = _gamma15_columns(c, (F(0), F(0)), lam, mu)

    def coldeg(col):
        return max((e.total_degree() for e in col if isinstance(e, MultiPoly)
                    and not e.is_zero()), default=0)

    assert coldeg(cols[3]) == 1 and coldeg(cols[4]) == 1
    assert coldeg(cols[5]) <= 4
    assert coldeg(cols[6]) <= 2 and coldeg(cols[7]) <= 2
    assert coldeg(cols[8]) <= 5
    assert sum(coldeg(cols[j]) for j in range(9)) <= gamma15_lamu_degree(2)


# ---------------------------------------------------------------------------
# determinant values
# ---------------------------------------------------------------------------

def test_quadratic_chart_has_zero_quintic_column_and_zero_det():
    c = make_veronese(4, 2)
    pt = (F(1), F(0), F(2), F(-1))
    gm = gamma15_matrix(c, pt, (F(1), F(2), F(3), F(4)), (F(0), F(1), F(-1), F(2)))
    quintic = [gm.matrix.entries[i][-1] for i in range(15)]
    assert all(x == 0 for x in quintic)
    assert gm.matrix.det() == 0


def test_quintic_curve_det_nonzero_generically():
    c = make_veronese(1, 5)
    rng = random.Random(60)
    nonzero = 0
    for _ in range(10):
        pt = (F(rng.randint(-3, 3)),)
        lam = (F(rng.randint(1, 5)),)
        mu = (F(rng.randint(-5, 5)),)
        if gamma15_det(c, pt, lam, mu) != 0:
            nonzero += 1
    assert nonzero >= 9  # generic nonvanishing


def test_quadratic_veronese_det_vanishes_on_50_draws():
    c = make_veronese(4, 2)
    rng = random.Random(61)
    for _ in range(50):
        pt = tuple(F(rng.randint(-4, 4)) for _ in range(4))
        lam = tuple(F(rng.randint(-4, 4)) for _ in range(4))
        if all(x == 0 for x in lam):
            lam = (F(1),) * 4
        mu = tuple(F(rng.randint(-4, 4)) for _ in range(4))
        assert gamma15_det(c, pt, lam, mu) == 0


def test_identically_zero_verdicts():
    assert gamma15_identically_zero(make_veronese(4, 2), seed=1).identically_zero
    v = gamma15_identically_zero(make_veronese(1, 5), seed=1)
    assert not v.identically_zero and v.witness_value != 0
    v2 = gamma15_identically_zero(make_random_variety(2, 5, 8, 7), seed=1)
    assert not v2.identically_zero
    assert gamma15_identically_zero(degenerate_chart_p8(), seed=1).identically_zero


def test_identically_zero_reports_error_bound():
    v = gamma15_identically_zero(make_veronese(4, 2), trials=12, seed=2)
    assert v.sz.trials == 12
    assert 0 < v.sz.error_bound < F(1, 32) ** 12 * F(2)
    bound, per_column = gamma15_degree_bound(make_veronese(4, 2))
    assert v.degree_bound == bound
    assert bound >= gamma15_lamu_degree(4)
    assert set(per_column) == {"x", "x_i", "hessian contractions",
                               "quartic combination", "cubic combinations",
                               "quintic combination"}


# ---------------------------------------------------------------------------
# five-jet rank condition
# ---------------------------------------------------------------------------

def test_five_jet_rank_on_quintic_curve_fails_condition():
    c = make_veronese(1, 5)
    rng = random.Random(62)
    chk = five_jet_rank_check(c, rand_fivejet(rng, 1))
    assert chk.rank == 6 == chk.structural_bound
    assert not chk.condition_holds


def test_five_jet_structural_bound_holds_everywhere():
    # x' is a combination of x_1..x_n, so rank never exceeds n+5
    rng = random.Random(63)
    for c in [make_veronese(1, 5), make_veronese(4, 2),
              make_random_variety(2, 5, 8, 7), make_random_variety(3, 3, 11, 5)]:
        for _ in range(3):
            chk = five_jet_rank_check(c, rand_fivejet(rng, c.n))
            assert chk.rank <= chk.structural_bound == c.n + 5


def test_five_jet_condition_on_quadratic_veronese_coordinate_curves():
    c = make_veronese(4, 2)
    for u1 in (F(0), F(1), F(-2)):
        chk = five_jet_rank_check(c, _coordinate_five_jet(c, u1))
        assert chk.condition_holds


def test_five_jet_rank_is_sigma_invariant():
    rng = random.Random(64)
    c = make_random_variety(2, 5, 8, 7)
    jet = rand_fivejet(rng, 2)
    base_rank = five_jet_rank_check(c, jet).rank
    for _ in range(3):
        other = FiveJet(jet.base, jet.lam, jet.mu, jet.nu, jet.rho,
                        tuple(F(rng.randint(-9, 9)) for _ in range(2)))
        assert five_jet_rank_check(c, other).rank == base_rank


# ---------------------------------------------------------------------------
# suppressed cubic vector
# ---------------------------------------------------------------------------

def test_cubic_vector_lies_in_documented_span_across_catalog():
    rng = random.Random(65)
    for entry in load_catalog():
        c = entry.build()
        n, width = c.n, c.r + 1
        for _ in range(5):
            pt = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            lam = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            if all(x == 0 for x in lam):
                lam = (F(1),) * n
            mu = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            d = c.derivative_table(pt, 3)

            def dv(*idx):
                return d[tuple(sorted(idx))]

            x_i = [dv(i) for i in range(n)]
            a_vecs = [vaccum(width, ((lam[i], dv(i, j)) for i in range(n)))
                      for j in range(n)]
            c_vecs = []
            for k in range(n):
                parts = [(2 * mu[i], dv(i, k)) for i in range(n)]
                parts += [(lam[i] * lam[j], dv(i, j, k))
                          for i in range(n) for j in range(n)]
                c_vecs.append(vaccum(width, parts))
            cubic = vaccum(width, ((lam[i] * lam[j] * lam[k], dv(i, j, k))
                                   for i in range(n) for j in range(n)
                                   for k in range(n)))
            documented = x_i + a_vecs + c_vecs
            assert span_rank(documented + [cubic]) == span_rank(documented)
            # sharper: the explicit combination sum lam_k C_k - 2 sum mu_i A_i
            combo = vaccum(width, [(lam[k], c_vecs[k]) for k in range(n)]
                           + [(-2 * mu[i], a_vecs[i]) for i in range(n)])
            assert combo == cubic


# ---------------------------------------------------------------------------
# Pi constancy
# ---------------------------------------------------------------------------

def test_pi_space_and_constancy_on_quadratic_veronese():
    c = make_veronese(4, 2)
    samples = [F(0), F(1), F(2), F(1, 2), F(-1)]
    spaces = [pi_space(c, u1) for u1 in samples]
    assert len({s.dim for s in spaces}) == 1
    rep = pi_constancy_check(c, samples)
    assert rep.constant
    assert rep.tangent_contained
    assert rep.dims == tuple(s.dim for s in spaces)
    # quadratic chart: order->=3 derivative generators vanish, so Pi is smaller
    # than the regular-case window [3n, 3n+1]
    assert not rep.dims_within_bounds


def test_pi_precondition_fails_on_quintic_curve():
    with pytest.raises(PreconditionFailedError):
        pi_space(make_veronese(1, 5), F(1))


def test_pi_constancy_requires_samples():
    with pytest.raises(ValueError):
        pi_constancy_check(make_veronese(4, 2), [])


# ---------------------------------------------------------------------------
# symbolic claim audit
# ---------------------------------------------------------------------------

def test_claim_audit_n1_matches_evaluation_oracle():
    rep = claim_coefficient_audit(make_veronese(1, 5), (F(1),))
    assert not rep.identically_zero
    assert rep.evaluations_match
    assert rep.degree_bound_ok
    assert rep.coeff_lam_high_mu2 is None  # needs n >= 2


def test_claim_audit_degenerate_chart_is_identically_zero():
    rep = claim_coefficient_audit(degenerate_chart_p8(), (F(0), F(0)))
    assert rep.identically_zero
    assert rep.evaluations_match
    assert rep.coeff_lam_high_mu2 == 0
    assert rep.coeff_lam_high_lam2_mu1 == 0
    assert rep.derived_det == 0


def test_claim_audit_generic_surface():
    rep = claim_coefficient_audit(make_random_variety(2, 5, 8, 7), (F(0), F(0)))
    assert not rep.identically_zero
    assert rep.evaluations_match
    assert rep.total_degree <= gamma15_lamu_degree(2)


def test_claim_audit_too_large():
    with pytest.raises(TooLargeError):
        claim_coefficient_audit(make_veronese(4, 2), (F(0),) * 4)


# ---------------------------------------------------------------------------
# equivalence audit and pipeline
# ---------------------------------------------------------------------------

def test_equivalence_audit_across_catalog():
    eligible = [e for e in load_catalog() if e.equivalence_eligible]
    assert len(eligible) >= 6
    for entry in eligible:
        chart = entry.build_for_length3(seed=3)
        rep = equivalence_audit(chart, trials=4, seed=2)
        assert rep.consistent, entry.id
        if entry.speciality_len3 is not None:
            assert rep.speciality.special == (entry.speciality_len3 == "special")
        if entry.gamma15 is not None:
            assert rep.gamma15.identically_zero == (entry.gamma15 == "identically-zero")


def test_equivalence_audit_on_degenerate_chart():
    rep = equivalence_audit(degenerate_chart_p8(), trials=4, seed=1)
    assert rep.consistent
    assert rep.speciality.special and rep.gamma15.identically_zero


def test_defect_pipeline_quadratic_veronese():
    rep = defect_pipeline(make_veronese(4, 2), trials=4, samples=4, seed=1)
    assert rep.speciality.special
    assert rep.spot_all_special
    assert not rep.osc2.regular  # quadratic charts cap the criterion rank at 3n
    assert not rep.hypotheses_hold
    assert rep.secant.defect == 3
    assert not rep.theorem_violated
    assert rep.converse_observed  # defective without both hypotheses


def test_defect_pipeline_negative_controls():
    for chart in [make_veronese(1, 5), make_random_variety(2, 5, 8, 7)]:
        rep = defect_pipeline(chart, trials=4, samples=4, seed=1)
        assert not rep.speciality.special
        assert not rep.hypotheses_hold
        assert rep.secant.defect == 0
        assert not rep.theorem_violated
        assert not rep.converse_observed


def test_defect_pipeline_never_reports_violation_across_catalog():
    for entry in load_catalog():
        if entry.r < 3 * entry.n + 2:
            continue
        rep = defect_pipeline(entry.build(), trials=3, samples=3, seed=4)
        assert not rep.theorem_violated, entry.id


def test_normalization_preserves_downstream_verdicts():
    # jet normalization must not change the tangent generators or the
    # vanishing pattern of the determinant at the jet
    from terracini.chart import jet_normalize
    from terracini.curvilinear import tangent_along

    rng = random.Random(66)
    cases = [(make_veronese(4, 2), True, False),
             (make_random_variety(2, 5, 8, 7), False, False),
             (make_random_variety(2, 5, 8, 7), False, True)]
    for c, vanishes, pivot_off_first in cases:
        n = c.n
        lam = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if pivot_off_first:  # lambda_1 = 0: the frame pivots on a later coordinate
            lam = (F(0),) * (n - 1) + (F(rng.randint(1, 3)),)
        elif all(x == 0 for x in lam):
            lam = (F(1),) * n
        mu = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        base = tuple(F(rng.randint(-1, 1)) for _ in range(n))
        for length in (2, 3):
            jet = CurvilinearJet(base, lam, mu, length)
            nc, nj = jet_normalize(c, jet)
            via_contraction = tangent_along(c, jet)
            via_substitution = tangent_along(nc, nj)
            assert via_contraction.jet == via_substitution.jet == nj
            assert via_contraction.span.generators == via_substitution.span.generators
            assert via_contraction.zero_generators == via_substitution.zero_generators
        jet3 = CurvilinearJet(base, lam, mu, 3)
        nc, nj = jet_normalize(c, jet3)
        d_before = gamma15_det(c, base, lam, mu)
        d_after = gamma15_det(nc, nj.base, nj.lam, nj.mu)
        assert (d_before == 0) == (d_after == 0) == vanishes


def test_speciality_matches_det_vanishing_pointwise_on_surface():
    # on a regular chart the determinant is generically nonzero at the very
    # jets whose tangent span attains the expected dimension
    c = make_random_variety(2, 5, 8, 7)
    verdict = generic_speciality(c, 3, trials=3, seed=8)
    assert not verdict.special
    jet = verdict.witness
    assert jet is not None
    _ = CurvilinearJet(jet.base, jet.lam, jet.mu, 3)  # witness round-trips
