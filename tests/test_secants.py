"""Tangent/osculating spaces, secant defects and 2-osculating regularity."""

import random
from fractions import Fraction as F

import pytest

from terracini import secants
from terracini.catalog import load_catalog, make_random_variety, make_segre, make_veronese
from terracini.chart import AmbientTooSmallError, Chart
from terracini.secants import (
    LinearSpan,
    SingularPointError,
    _osc2_rank,
    osc2_regular,
    osc_variety_dim,
    osculating_space,
    sample_curve,
    sample_point,
    sample_smooth_point,
    secant_defect,
    tangent_space,
)
from oracles import (
    MultiPoly,
    chart_polys,
    generators,
    osc2_regular_coordinate,
    osc2_vectors,
    polys_chart,
    rref_rank,
    secant_defect_reference,
    symbolic_table,
)


def hyperplane_bound_chart() -> Chart:
    """A surface chart inside a hyperplane of P^6 (degenerate by construction)."""
    coords = chart_polys(make_random_variety(2, 3, 5, 17))
    extra = coords[0] + coords[1]  # forced linear relation
    return polys_chart("hyperplane-bound", 2, 6, coords + (extra,))


def tangent_through_x_chart() -> Chart:
    """A space curve (u, u^2-u+1, u^3-2u+2, u^4-3u+3) whose x equals x_1 at u = 1.

    x_1 never vanishes, so every point passes the smoothness test, but the
    tangent rank drops to 1 at u = 1 and nowhere else.
    """
    return Chart("tangent-through-x", 1, 3, (
        (1, (1,), ((1,),)), (1, (1, -1, 1), ((2,), (1,), (0,))),
        (1, (1, -2, 2), ((3,), (1,), (0,))), (1, (1, -3, 3), ((4,), (1,), (0,)))))


@pytest.fixture
def ranked(monkeypatch):
    """The row count of every ``span_rank`` call made from ``secants`` or ``chart``, in call order.

    A drawn point's tangent rows are ranked in ``chart`` (``Chart.tangent_rank``,
    from its smoothness test), the unions in ``secants``.
    """
    sizes = []
    span_rank = secants.span_rank

    def counted(rows):
        sizes.append(len(rows))
        return span_rank(rows)

    monkeypatch.setattr(secants, "span_rank", counted)
    monkeypatch.setattr("terracini.chart.span_rank", counted)
    return sizes


# ---------------------------------------------------------------------------
# tangent and osculating spaces
# ---------------------------------------------------------------------------

def test_tangent_space_veronese_surface_origin():
    c = make_veronese(2, 2)
    span = tangent_space(c, (F(0), F(0)))
    assert span.dim == 2
    assert generators(span)[0] == (F(1),) + (F(0),) * 5


def test_tangent_space_dim_equals_n_on_smooth_points():
    for c, pt in [(make_veronese(2, 3), (F(1), F(2))),
                  (make_random_variety(3, 3, 9, 2), (F(0), F(0), F(0))),
                  (make_veronese(4, 2), (F(1), F(-1), F(2), F(3)))]:
        assert tangent_space(c, pt).dim == c.n


def test_tangent_space_singular_point_raises():
    # cuspidal curve chart: (1, u^2, u^3); Jacobian drops rank at u = 0
    c = Chart("cusp", 1, 2, ((1, (1,), ((0,),)), (1, (1,), ((2,),)), (1, (1,), ((3,),))))
    with pytest.raises(SingularPointError):
        tangent_space(c, (F(0),))


@pytest.mark.parametrize("order", [(1, 2, 1, 2), (2, 1, 2, 1)], ids=["1-first", "2-first"])
def test_tangent_rank_memo_follows_the_point(order):
    # x = x_1 at u = 1 only, so the smoothness test passes there through the
    # Jacobian fallback and tangent_space raises there only
    c = tangent_through_x_chart()
    for u in order:
        pt = (F(u),)
        assert c.is_smooth_at(pt) and c.tangent_rank(pt) == (1 if u == 1 else 2)
        if u == 1:
            with pytest.raises(SingularPointError, match="tangent rank 1 < n"):
                tangent_space(c, pt)
        else:
            assert tangent_space(c, pt).rank == 2


def test_osculating_space_h1_is_tangent_space():
    c = make_veronese(2, 3)
    pt = (F(1), F(-2))
    osc, tangent = osculating_space(c, pt, 1), tangent_space(c, pt)
    assert osc.rank == tangent.rank
    assert osc.contains_span(tangent)


def test_osculating_space_quadratic_veronese_fills_ambient():
    c = make_veronese(4, 2)
    assert osculating_space(c, (F(1), F(2), F(0), F(-1)), 2).dim == 14


def test_osculating_space_quintic_curve():
    c = make_veronese(1, 5)
    assert osculating_space(c, (F(2),), 5).dim == 5
    assert osculating_space(c, (F(2),), 3).dim == 3


# ---------------------------------------------------------------------------
# secant defects
# ---------------------------------------------------------------------------

def test_veronese_surface_is_1_defective_for_every_seed():
    c = make_veronese(2, 2)
    for seed in (0, 1, 2, 3, 4):
        rec = secant_defect(c, 1, samples=3, seed=seed)
        assert (rec.expected, rec.observed, rec.defect) == (5, 4, 1)


def test_quintic_curve_never_defective():
    c = make_veronese(1, 5)
    rec1 = secant_defect(c, 1, samples=4, seed=0)
    rec2 = secant_defect(c, 2, samples=4, seed=0)
    assert (rec1.observed, rec1.defect) == (3, 0)
    assert (rec2.observed, rec2.defect) == (5, 0)


def test_quadratic_veronese_fourfold_2_defect():
    rec = secant_defect(make_veronese(4, 2), 2, samples=3, seed=1)
    assert (rec.expected, rec.observed, rec.defect) == (14, 11, 3)


def test_segre_2_2_1_defect():
    rec = secant_defect(make_segre(2, 2), 1, samples=3, seed=1)
    assert (rec.expected, rec.observed, rec.defect) == (8, 7, 1)


def test_secant_dimension_monotone_in_k():
    c = make_veronese(2, 3)
    dims = [secant_defect(c, k, samples=3, seed=5).observed for k in (1, 2, 3)]
    assert dims == sorted(dims)
    assert all(secant_defect(c, k, samples=3, seed=5).defect >= 0 for k in (1, 2))


def test_secant_needs_no_more_points_than_the_sample_lattice():
    assert secant_defect(make_veronese(1, 3), 10, samples=1, seed=0).observed == 3
    with pytest.raises(ValueError, match="exceeds the 11 sample points"):
        secant_defect(make_veronese(1, 3), 11, samples=1, seed=0)


def test_no_union_is_ranked_after_a_trial_reaches_expected(ranked):
    # two tangent lines of the rational normal quartic always span P^3 =
    # expected: the first trial ranks both points' tangent rows (2 each) and
    # their union (4), the later trials only the points' tangent rows
    rec = secant_defect(make_veronese(1, 4), 1, samples=5, seed=0)
    assert (rec.expected, rec.observed) == (3, 3)
    assert ranked == [2, 2, 4] + [2] * 8


def test_a_union_below_expected_is_ranked_in_every_trial(ranked):
    # v_2(P^2) stays at 4 < expected 5, so every trial ranks both points'
    # tangent rows (3 each) and their union (6 rows)
    rec = secant_defect(make_veronese(2, 2), 1, samples=3, seed=0)
    assert (rec.expected, rec.observed) == (5, 4)
    assert ranked == [3, 3, 6] * 3


def test_each_accepted_draw_is_ranked_once(ranked):
    # every point of v_2(P^10) is smooth with tangent rank 11, and no union
    # reaches expected 54, so each trial ranks its 5 points once and its union
    rec = secant_defect(make_veronese(10, 2), 4, samples=5, seed=0)
    assert (rec.expected, rec.observed, rec.resamples) == (54, 44, 0)
    assert ranked == ([11] * 5 + [55]) * 5


@pytest.mark.parametrize("seed", [0, 1], ids=["first-trial", "later-trial"])
def test_a_singular_tangent_is_raised_with_or_without_a_union_rank(seed):
    # seed 0 draws u = 1 in the first trial, whose union is ranked; seed 1
    # reaches expected first and draws u = 1 in a trial whose union is skipped
    c = tangent_through_x_chart()
    if seed == 1:
        assert secant_defect(c, 1, samples=1, seed=seed).observed == 3
    with pytest.raises(SingularPointError) as ref:
        secant_defect_reference(c, 1, 6, seed)
    with pytest.raises(SingularPointError) as got:
        secant_defect(c, 1, samples=6, seed=seed)
    assert str(got.value) == str(ref.value) == "tangent rank 1 < n+1 at (1) on tangent-through-x"


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.id)
def test_secant_defect_matches_the_ceiling_free_reference(entry):
    chart = entry.build()
    for seed in (0, 1, 2):
        for k in sorted({1} | {kd.k for kd in entry.known_defects}):
            assert secant_defect(chart, k, samples=3, seed=seed) == \
                secant_defect_reference(chart, k, 3, seed)


def test_secant_witness_points_are_recorded():
    rec = secant_defect(make_veronese(2, 2), 1, samples=2, seed=7)
    assert len(rec.witness_points[0]) == 2
    assert all(len(pt) == 2 for pt in rec.witness_points[0])


# ---------------------------------------------------------------------------
# 2-osculating regularity
# ---------------------------------------------------------------------------

def test_quintic_curve_is_2_osculating_regular():
    verdict = osc2_regular(make_veronese(1, 5), trials=3, seed=1)
    assert verdict.regular and verdict.max_rank == 4  # x, x_1, x_11, x_111


def test_generic_surface_is_2_osculating_regular():
    verdict = osc2_regular(make_random_variety(2, 5, 8, 7), trials=3, seed=1)
    assert verdict.regular and verdict.max_rank == 7


def test_quadratic_veronese_fourfold_is_not_2_osculating_regular():
    # The 2n criterion vectors built from the Hessian satisfy one linear
    # relation whenever all third derivatives vanish (contracting the cubic
    # term away), capping the rank at 3n for every quadratic chart.
    verdict = osc2_regular(make_veronese(4, 2), trials=4, seed=3)
    assert not verdict.regular
    assert verdict.max_rank == 12 and verdict.needed == 13


def test_quadratic_chart_relation_is_structural():
    # sum_k lam_k v_k = 2 sum_j mu_j A_j on any chart with zero third derivatives
    c = make_veronese(4, 2)
    pt = (F(1), F(0), F(-2), F(3))
    lam = (F(1), F(2), F(-1), F(4))
    mu = (F(0), F(3), F(5), F(-2))
    vecs = osc2_vectors(c, pt, lam, mu)
    n = 4
    a_vecs = vecs[n + 1:2 * n + 1]
    v_vecs = vecs[2 * n + 1:]
    lhs = [sum(lam[k] * v_vecs[k][c_] for k in range(n)) for c_ in range(15)]
    rhs = [2 * sum(mu[j] * a_vecs[j][c_] for j in range(n)) for c_ in range(15)]
    assert lhs == rhs


@pytest.mark.parametrize("chart", [make_veronese(4, 2), make_random_variety(2, 3, 8, 5)],
                         ids=["quadratic", "random"])
def test_osc2_numerator_rank_matches_fraction_vectors(chart):
    lam = tuple(F(v) for v in (1, 2, -1, 4)[:chart.n])
    mu = tuple(F(v, 3) for v in (0, 3, 5, -2)[:chart.n])
    pt = tuple(F(v, 2) for v in (3, -1, 4, 1)[:chart.n])
    assert _osc2_rank(chart, pt, lam, mu) == rref_rank(osc2_vectors(chart, pt, lam, mu))


def test_sample_curve_draws_a_smooth_point_then_lam_then_mu():
    chart = make_veronese(3, 2)
    got, ref = random.Random(5), random.Random(5)
    pt, lam, mu = sample_curve(chart, got)
    assert pt == sample_smooth_point(chart, ref)[0]
    assert lam == (1,) + sample_point(ref, 2) and mu == (0,) + sample_point(ref, 2)
    assert got.getstate() == ref.getstate()


def test_sample_point_draws_the_randint_stream():
    got, ref = random.Random(11), random.Random(11)
    for n in (1, 2, 3, 5, 8):
        pt = sample_point(got, n)
        assert pt == tuple(F(ref.randint(-5, 5)) for _ in range(n))
        assert all(type(x) is F for x in pt)
    assert got.getstate() == ref.getstate()
    assert {x for _ in range(200) for x in sample_point(got, 3)} == set(map(F, range(-5, 6)))


def test_osc_variety_dim_draws_two_weights_after_each_curve(monkeypatch):
    chart = make_veronese(2, 3)
    states = []

    def recorded(chart, rng):
        states.append(rng.getstate())
        return sample_curve(chart, rng)

    monkeypatch.setattr(secants, "sample_curve", recorded)
    osc_variety_dim(chart, 2, samples=3, seed=4)
    ref = random.Random(4)
    for state in states:  # alpha and beta are two randint(1, 5) draws after the curve
        assert ref.getstate() == state
        sample_curve(chart, ref)
        ref.randint(1, 5), ref.randint(1, 5)
    assert len(states) == 3


def test_osc2_witness_is_the_first_trial_at_the_maximum():
    chart = make_veronese(4, 2)
    verdict = osc2_regular(chart, trials=4, seed=3)
    rng = random.Random(3)
    curves = [sample_curve(chart, rng) for _ in range(4)]
    assert verdict.trial_ranks == (12,) * 4  # every trial ties at the maximum
    assert verdict.witness == curves[0] != curves[1]


def test_osc2_with_no_trials_has_no_witness():
    verdict = osc2_regular(make_veronese(4, 2), trials=0)
    assert verdict.max_rank == -1 and verdict.witness is None and verdict.trial_ranks == ()


def test_chart_in_hyperplane_is_never_regular():
    c = hyperplane_bound_chart()
    verdict = osc2_regular(c, trials=3, seed=2)
    assert not verdict.regular
    assert verdict.max_rank <= 3 * c.n  # everything lives in a hyperplane


def test_osc2_requires_room():
    with pytest.raises(AmbientTooSmallError):
        osc2_regular(make_veronese(2, 2), trials=1, seed=0)  # r=5 < 3n=6


def test_coordinate_condition_on_quintic_curve():
    res = osc2_regular_coordinate(make_veronese(1, 5), (F(1),))
    assert res.sufficient and res.rank == 4


def test_coordinate_condition_inconclusive_in_hyperplane():
    res = osc2_regular_coordinate(hyperplane_bound_chart(), (F(0), F(0)))
    assert not res.sufficient


def test_coordinate_condition_reads_the_u1_curve():
    # x_11, x_111 and x_112 vanish at 0; read along u_2 the vectors have rank 7
    u1, u2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    coords = (MultiPoly.constant(2, 1), u1, u2, u1 * u2, u2 * u2, u1 * u2 * u2, u2 * u2 * u2)
    c = polys_chart("curved-along-u2", 2, 6, coords)
    pt = (F(0), F(0))
    d = symbolic_table(c, pt, 3)
    ref = rref_rank([d[()], d[(0,)], d[(1,)], d[(0, 0)], d[(0, 1)], d[(0, 0, 0)],
                     d[(0, 0, 1)]])
    res = osc2_regular_coordinate(c, pt)
    assert res.rank == ref == 4 and not res.sufficient


def test_coordinate_condition_implies_general_condition():
    charts = [make_veronese(1, 5), make_random_variety(2, 5, 8, 7),
              make_veronese(4, 2), make_random_variety(3, 3, 11, 5)]
    for c in charts:
        res = osc2_regular_coordinate(c, tuple(F(0) for _ in range(c.n)))
        if res.sufficient:
            assert osc2_regular(c, trials=4, seed=11).regular


# ---------------------------------------------------------------------------
# osculating-variety dimension via the parametrization route
# ---------------------------------------------------------------------------

def test_tangential_variety_of_generic_surface():
    c = make_random_variety(2, 5, 8, 7)
    assert osc_variety_dim(c, 1, samples=3, seed=1) == 4  # 2n


def test_osc_dim_never_exceeds_bound():
    for c, m in [(make_veronese(1, 5), 1), (make_veronese(1, 5), 2),
                 (make_veronese(4, 2), 2), (make_random_variety(2, 5, 8, 7), 2)]:
        dim = osc_variety_dim(c, m, samples=3, seed=2)
        assert dim <= min((m + 1) * c.n, c.r)


def test_osc_dim_matches_criterion_verdict():
    # the parametrization Jacobian route and the 3n+1-vector criterion are
    # independent implementations of the same dimension
    for c in [make_veronese(1, 5), make_veronese(4, 2),
              make_random_variety(2, 5, 8, 7), make_random_variety(3, 3, 11, 5)]:
        dim = osc_variety_dim(c, 2, samples=4, seed=6)
        verdict = osc2_regular(c, trials=4, seed=6)
        assert (dim == 3 * c.n) == verdict.regular
        assert dim == verdict.max_rank - 1


def test_osc_dim_rejects_bad_m():
    with pytest.raises(ValueError):
        osc_variety_dim(make_veronese(1, 5), 3, samples=1, seed=0)


def test_linear_span_contains_span():
    a = LinearSpan(((1, 0, 0), (0, 1, 0)), (1, 1), (1, 1, 1))
    b = LinearSpan(((1, 1, 0),), (1,), (1, 1, 1))
    assert a.contains_span(b)
    assert not b.contains_span(a)
