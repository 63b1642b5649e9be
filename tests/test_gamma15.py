"""Determinant machinery, five-jet condition, Pi constancy and the audits."""

import random
from fractions import Fraction as F

import pytest

from terracini.catalog import load_catalog, make_random_variety, make_veronese
from terracini import exactlin, gamma15, secants
from terracini.chart import Chart, CurvilinearJet, contract_numerators, jet_terms
from terracini.curvilinear import generic_speciality
from terracini.exactlin import randints
from terracini.gamma15 import (
    SZ_TRIALS,
    AmbientMismatchError,
    Gamma15Matrix,
    PreconditionFailedError,
    _det,
    _lowest_orders,
    defect_pipeline,
    equivalence_audit,
    five_jet_rank,
    gamma15_degree_bound,
    gamma15_identically_zero,
    gamma15_matrix,
    pi_constancy_check,
    pi_space,
)
from oracles import (FiveJet, MultiPoly, _gamma15_columns, brute_contract, build_for_length3,
                     chart_polys, claim_coefficient_audit, column_labels, gamma15_lamu_degree,
                     gauss_det,
                     generators, jet_normalize, polys_chart, rref_rank, symbolic_table, vaccum,
                     zero_columns, zero_generators)


def degenerate_chart_p8() -> Chart:
    """Surface chart in P^8 contained in a hyperplane (mechanism-test fixture)."""
    coords = chart_polys(make_random_variety(2, 3, 7, 19))
    return polys_chart("degenerate-p8", 2, 8, coords + (coords[0] + coords[1],))


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
    got_cols = list(generators(gm.columns))
    assert len(got_cols) == 6 and all(len(col) == 6 for col in got_cols)
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
    assert got_cols == expected_cols
    assert column_labels(gm)[0] == "x" and "quintic" in column_labels(gm)[-1]


def test_matrix_is_contracted_in_one_call(monkeypatch):
    # the 3n+3 columns share one pass of the span contraction
    calls = []

    def counted(table, term_lists):
        calls.append(len(term_lists))
        return contract_numerators(table, term_lists)

    monkeypatch.setattr(secants, "contract_numerators", counted)
    c = make_random_variety(2, 3, 8, 1)
    gamma15_matrix(c, (F(1), F(-2)), (F(3), F(1, 2)), (F(-1), F(2, 3))).columns
    assert calls == [9]


def test_columns_reduce_to_coordinate_vectors_at_axis_jet():
    # lam = e_1, mu = 0: columns become x, x_i, x_1j, x_1111, x_11k, x_11111
    c = make_random_variety(2, 5, 8, 7)
    n = 2
    pt = (F(0), F(0))
    lam = (F(1), F(0))
    mu = (F(0), F(0))
    gm = gamma15_matrix(c, pt, lam, mu)
    cols = list(generators(gm.columns))
    d = symbolic_table(c, pt, 5)
    assert cols[0] == d[()]
    assert cols[1] == d[(0,)] and cols[2] == d[(1,)]
    assert cols[3] == d[(0, 0)] and cols[4] == d[(0, 1)]        # hessian block
    assert cols[5] == d[(0, 0, 0, 0)]                           # quartic
    assert cols[6] == d[(0, 0, 0)] and cols[7] == d[(0, 0, 1)]  # cubic block
    assert cols[8] == d[(0, 0, 0, 0, 0)]                        # quintic


def test_matrix_requires_square_ambient():
    with pytest.raises(AmbientMismatchError):
        gamma15_matrix(make_veronese(2, 2), (F(0), F(0)), (F(1), F(0)), (F(0), F(0)))


@pytest.mark.parametrize("chart", [make_veronese(4, 2), make_veronese(1, 5)],
                         ids=["quadratic", "quintic"])
@pytest.mark.parametrize("which", range(3))
def test_matrix_rejects_wrong_length_vectors(chart, which):
    # checked when the matrix is built, also where det() contracts nothing
    vecs = [[F(1)] * chart.n for _ in range(3)]
    vecs[which].append(F(1))
    with pytest.raises(ValueError, match="length"):
        gamma15_matrix(chart, *vecs)


def _counted_contractions(monkeypatch) -> list:
    calls = []

    def counted(table, term_lists):
        calls.append(len(term_lists))
        return contract_numerators(table, term_lists)

    monkeypatch.setattr(secants, "contract_numerators", counted)
    return calls


def test_symbolic_column_degrees():
    # degrees in (lam, mu) per column group: 1 for the Hessian contractions,
    # <= 4 for the quartic, <= 2 for the cubics, <= 5 for the quintic
    c = make_random_variety(2, 5, 8, 7)
    nv = 4
    lam = [MultiPoly.variable(nv, i) for i in range(2)]
    mu = [MultiPoly.variable(nv, 2 + i) for i in range(2)]
    table = symbolic_table(c, (F(0), F(0)), 5)
    cols = [brute_contract(table, 2, c.r + 1, terms) for terms in _gamma15_columns(2, lam, mu)]

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
    assert all(x == 0 for x in generators(gm.columns)[-1])  # the quintic column
    assert gauss_det(generators(gm.columns)) == 0  # the determinant of the transpose


@pytest.mark.parametrize("chart", [make_veronese(4, 2)]
                         + [make_random_variety(4, 2, 14, s) for s in (1, 2, 3)],
                         ids=["veronese:4:2"] + [f"random:4:2:14:{s}" for s in (1, 2, 3)])
def test_quadratic_det_is_read_off_a_zero_column(chart, monkeypatch):
    calls = _counted_contractions(monkeypatch)
    rng = random.Random(62)
    for _ in range(5):
        pt, lam, mu = (tuple(F(rng.randint(-4, 4)) for _ in range(4)) for _ in range(3))
        gm = gamma15_matrix(chart, pt, (F(1),) + lam[1:], mu)
        assert gm.det() == 0 and calls == []  # no table, no contraction
        assert _det(gm.columns) == gauss_det(generators(gm.columns)) == 0
        calls.clear()


def test_identity_test_on_quadratic_chart_contracts_nothing(monkeypatch):
    c = make_veronese(4, 2)
    with monkeypatch.context() as m:
        # the contracting determinant, as before the zero-column test
        m.setattr(Gamma15Matrix, "det", lambda self: _det(self.columns))
        contracting = gamma15_identically_zero(c, seed=1)
    calls = _counted_contractions(monkeypatch)
    term_lists, matrices = [], []
    monkeypatch.setattr(gamma15, "jet_terms",
                        lambda *args: term_lists.append(args) or jet_terms(*args))
    monkeypatch.setattr(gamma15, "gamma15_matrix",
                        lambda *args: matrices.append(args) or gamma15_matrix(*args))
    assert gamma15_identically_zero(c, seed=1) == contracting
    assert calls == [] and contracting.identically_zero and contracting.sz.trials == 20
    assert term_lists == [] and len(matrices) == 20  # no term list built, one matrix a trial


@pytest.mark.parametrize("chart", [make_veronese(4, 2), make_random_variety(4, 2, 14, 1)],
                         ids=["veronese:4:2", "random:4:2:14:1"])
def test_identity_test_on_quadratic_chart_builds_no_fraction(chart, monkeypatch):
    # each trial's drawn ints reach the matrix as they are, and D = 0 is read
    # off the column structure, so no trial converts anything
    calls, matrices = [], []

    def counted(*args):
        calls.append(args)
        return F(*args)

    monkeypatch.setattr(gamma15, "Fraction", counted)
    monkeypatch.setattr(gamma15, "gamma15_matrix",
                        lambda *args: matrices.append(args) or gamma15_matrix(*args))
    verdict = gamma15_identically_zero(chart, seed=1)
    assert verdict.identically_zero and verdict.sz.trials == SZ_TRIALS == len(matrices)
    assert calls == []
    gm = gamma15_matrix(*matrices[-1])
    assert all(type(x) is int for x in gm.pt + gm.lam + gm.mu)


@pytest.mark.parametrize("chart", [make_random_variety(3, 3, 11, 1), make_veronese(4, 2)],
                         ids=["random:3:3:11:1", "veronese:4:2"])
def test_det_reads_ints_fractions_floats_and_decimal_strings_alike(chart):
    rng = random.Random(65)
    nonzero = 0
    for halves in (False, True, False, True):
        pt, lam, mu = ([F(rng.randint(-8, 8), 2 if halves else 1) for _ in range(chart.n)]
                       for _ in range(3))
        lam[0] = F(rng.randint(1, 4))
        kinds = {"Fraction": F, "float": float, "str": lambda x: f"{float(x):.2f}"}
        if not halves:
            kinds["int"] = int  # integral values only
        values = {kind: gamma15_matrix(chart, *([make(x) for x in v] for v in (pt, lam, mu))).det()
                  for kind, make in kinds.items()}
        # a float among Fractions sends the whole vector through Fraction
        values["mixed"] = gamma15_matrix(chart, pt, [float(lam[0])] + lam[1:], mu).det()
        assert len(set(values.values())) == 1, values
        nonzero += values["Fraction"] != 0
        gm = gamma15_matrix(chart, [float(x) for x in pt], lam, mu)
        assert all(type(x) is F for x in gm.pt) and gm.lam == tuple(lam)
    assert nonzero == (4 if chart.max_coord_degree() == 3 else 0)


def _monomial_chart(n: int, d: int) -> Chart:
    """u_1^d and 3n+2 zero coordinates: a chart in P^{3n+2} of coordinate degree d (-1: zero)."""
    first = (1, (1,), ((d,) + (0,) * (n - 1),)) if d >= 0 else (1, (), ())
    return Chart(f"u1^{d}", n, 3 * n + 2, (first,) + ((1, (), ()),) * (3 * n + 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_structural_zero_matches_the_per_term_oracle(n, monkeypatch):
    calls = _counted_contractions(monkeypatch)
    rng = random.Random(64 + n)
    for _ in range(2):
        # lam and mu with zero entries: term orders do not depend on the values
        lam = (F(1),) + tuple(F(rng.choice((0, 0, 1, -2, 3))) for _ in range(n - 1))
        mu = tuple(F(rng.choice((0, 0, -1, 2))) for _ in range(n))
        for d in range(-1, 7):
            gm = gamma15_matrix(_monomial_chart(n, d), (F(1),) * n, lam, mu)
            gm.det()
            zero = zero_columns(gm.terms, d)
            assert [order > d for order in _lowest_orders(n)] == zero
            assert (calls == []) == any(zero), (n, d)  # det() contracts unless a column is zero
            calls.clear()
            assert list(gm.terms) == _gamma15_columns(n, lam, mu)
            assert len(column_labels(gm)) == len(gm.terms) == 3 * n + 3


@pytest.mark.parametrize("chart, pt, lam, mu, value", [
    (make_veronese(1, 5), (F(2),), (F(3),), (F(-1),), -18366600960),
    (make_random_variety(2, 3, 8, 1), (F(1), F(-2)), (F(3), F(1, 2)), (F(-1), F(2, 3)),
     186438043940512500),
], ids=["veronese:1:5", "random:2:3:8:1"])
def test_det_of_cubic_or_higher_chart_contracts_once(chart, pt, lam, mu, value, monkeypatch):
    # the quintic column has terms of order 3, which a cubic chart does not kill
    calls = _counted_contractions(monkeypatch)
    gm = gamma15_matrix(chart, pt, lam, mu)
    assert calls == []
    assert gm.det() == value == gauss_det(generators(gm.columns))
    assert calls == [3 * chart.n + 3]


def test_quintic_curve_det_nonzero_generically():
    c = make_veronese(1, 5)
    rng = random.Random(60)
    nonzero = 0
    for _ in range(10):
        pt = (F(rng.randint(-3, 3)),)
        lam = (F(rng.randint(1, 5)),)
        mu = (F(rng.randint(-5, 5)),)
        if gamma15_matrix(c, pt, lam, mu).det() != 0:
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
        assert gamma15_matrix(c, pt, lam, mu).det() == 0


def test_identically_zero_verdicts():
    assert gamma15_identically_zero(make_veronese(4, 2), seed=1).identically_zero
    v = gamma15_identically_zero(make_veronese(1, 5), seed=1)
    assert not v.identically_zero and v.witness_value != 0
    v2 = gamma15_identically_zero(make_random_variety(2, 5, 8, 7), seed=1)
    assert not v2.identically_zero
    assert gamma15_identically_zero(degenerate_chart_p8(), seed=1).identically_zero


def test_identity_test_draw_with_lambda_zero_counts_as_a_zero_of_d(monkeypatch):
    # D != 0 on the quintic curve.  The first trial's lambda is forced to 0,
    # where no matrix can be built (DegenerateJetError) and D vanishes, so that
    # trial reads 0 and the second trial's point is the witness.
    draws = []

    def first_lambda_zero(rng, lo, hi, count):
        out = randints(rng, lo, hi, count)
        if not draws:
            out[1] = 0  # n = 1: (pt, lam, mu)
        draws.append(tuple(out))
        return out

    monkeypatch.setattr(exactlin, "randints", first_lambda_zero)
    verdict = gamma15_identically_zero(make_veronese(1, 5))
    assert not verdict.identically_zero and verdict.witness_value != 0
    assert len(draws) == 2 and draws[0][1] == 0
    assert verdict.sz.witness == draws[1]
    assert (verdict.witness_pt, verdict.witness_lam, verdict.witness_mu) == (
        draws[1][:1], draws[1][1:2], draws[1][2:])


def test_identically_zero_reports_error_bound():
    v = gamma15_identically_zero(make_veronese(4, 2), seed=2)
    assert v.sz.trials == SZ_TRIALS == 20
    # each trial errs with probability at most 27/(2 * 16 * 27 + 1) < 1/32
    assert v.sz.error_bound == F(27, 865) ** 20 < F(1, 32) ** 20
    chart = make_veronese(4, 2)
    bound = gamma15_degree_bound(chart)
    # degree 2, n = 4: 2 + 4*1 + 4*1 + 4 + 4*2 + 5
    assert v.degree_bound == bound == 27
    assert bound >= gamma15_lamu_degree(4)


@pytest.mark.parametrize("n, d", [(1, 5), (2, 1), (2, 3), (3, 2), (4, 2)])
def test_degree_bound_matches_the_closed_form(n, d):
    # each column's m plus its point degree d - (lowest order), clamped at 0
    def udeg(order):
        return max(d - order, 0)

    closed = (udeg(0) + n * udeg(1) + n * (udeg(2) + 1) + udeg(2) + 4
              + n * (udeg(2) + 2) + udeg(3) + 5)
    assert gamma15_degree_bound(make_veronese(n, d)) == closed
    assert gamma15_lamu_degree(n) == 3 * n + 9


# ---------------------------------------------------------------------------
# five-jet rank condition
# ---------------------------------------------------------------------------

def test_five_jet_rank_on_quintic_curve_fails_condition():
    c = make_veronese(1, 5)
    rng = random.Random(62)
    jet = rand_fivejet(rng, 1)
    rank = five_jet_rank(c, jet.base, jet.coeffs)
    assert rank == 6 == c.n + 5  # the structural bound
    assert rank > c.n + 4  # the curve condition fails


def test_five_jet_structural_bound_holds_everywhere():
    # x' is a combination of x_1..x_n, so rank never exceeds n+5
    rng = random.Random(63)
    for c in [make_veronese(1, 5), make_veronese(4, 2),
              make_random_variety(2, 5, 8, 7), make_random_variety(3, 3, 11, 5)]:
        for _ in range(3):
            jet = rand_fivejet(rng, c.n)
            assert five_jet_rank(c, jet.base, jet.coeffs) <= c.n + 5


def test_five_jet_condition_on_quadratic_veronese_coordinate_curves():
    c = make_veronese(4, 2)
    e1, zero = (F(1), F(0), F(0), F(0)), (F(0),) * 4
    for u1 in (F(0), F(1), F(-2)):
        base = (u1,) + zero[1:]
        rank = five_jet_rank(c, base, (e1,))
        assert rank <= c.n + 4
        # the coordinate line's one coefficient reads what the zero-padded jet reads
        assert rank == five_jet_rank(c, base, (e1,) + (zero,) * 4)


def test_five_jet_rank_is_sigma_invariant():
    rng = random.Random(64)
    c = make_random_variety(2, 5, 8, 7)
    jet = rand_fivejet(rng, 2)
    base_rank = five_jet_rank(c, jet.base, jet.coeffs)
    for _ in range(3):
        other = FiveJet(jet.base, jet.lam, jet.mu, jet.nu, jet.rho,
                        tuple(F(rng.randint(-9, 9)) for _ in range(2)))
        assert five_jet_rank(c, other.base, other.coeffs) == base_rank


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
            d = symbolic_table(c, pt, 3)

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
            assert rref_rank(documented + [cubic]) == rref_rank(documented)
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
    with pytest.raises(PreconditionFailedError,
                       match=r"^u_1-coordinate curve is not quasi-asymptotic at u1=1 \(rank 6 > 5\)$"):
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
    with pytest.raises(ValueError, match="n <= 3"):
        claim_coefficient_audit(make_veronese(4, 2), (F(0),) * 4)


# ---------------------------------------------------------------------------
# equivalence audit and pipeline
# ---------------------------------------------------------------------------

def test_equivalence_audit_across_catalog():
    eligible = [e for e in load_catalog() if e.equivalence_eligible]
    assert len(eligible) >= 6
    for entry in eligible:
        chart = build_for_length3(entry, seed=3)
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
    rep = defect_pipeline(make_veronese(4, 2), trials=4, seed=1)
    assert rep.speciality.special
    assert rep.spot_all_special
    assert not rep.osc2.regular  # quadratic charts cap the criterion rank at 3n
    assert not rep.hypotheses_hold
    assert rep.secant.defect == 3
    assert not rep.theorem_violated
    assert rep.converse_observed  # defective without both hypotheses


def test_defect_pipeline_negative_controls():
    for chart in [make_veronese(1, 5), make_random_variety(2, 5, 8, 7)]:
        rep = defect_pipeline(chart, trials=4, seed=1)
        assert not rep.speciality.special
        assert not rep.hypotheses_hold
        assert rep.secant.defect == 0
        assert not rep.theorem_violated
        assert not rep.converse_observed


def test_defect_pipeline_never_reports_violation_across_catalog():
    for entry in load_catalog():
        if entry.r < 3 * entry.n + 2:
            continue
        rep = defect_pipeline(entry.build(), trials=3, seed=4)
        assert not rep.theorem_violated, entry.id


def test_normalization_preserves_downstream_verdicts():
    # jet normalization must not change the tangent generators or the
    # vanishing pattern of the determinant at the jet
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
            assert generators(via_contraction) == generators(via_substitution)
            assert zero_generators(via_contraction) == zero_generators(via_substitution)
        jet3 = CurvilinearJet(base, lam, mu, 3)
        nc, nj = jet_normalize(c, jet3)
        d_before = gamma15_matrix(c, base, lam, mu).det()
        d_after = gamma15_matrix(nc, nj.base, nj.lam, nj.mu).det()
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
