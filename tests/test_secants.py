"""Tangent/osculating spaces, secant defects and 2-osculating regularity."""

from fractions import Fraction as F

import pytest

from terracini.catalog import make_random_variety, make_segre, make_veronese
from terracini.chart import AmbientTooSmallError, Chart
from terracini.exactlin import MultiPoly
from terracini.secants import (
    LinearSpan,
    SingularPointError,
    _osc2_rank,
    osc2_regular,
    osc2_regular_coordinate,
    osc_variety_dim,
    osculating_space,
    secant_defect,
    tangent_space,
)
from oracles import osc2_vectors, rref_rank, symbolic_table


def hyperplane_bound_chart() -> Chart:
    """A surface chart inside a hyperplane of P^6 (degenerate by construction)."""
    base = make_random_variety(2, 3, 5, 17)
    extra = base.coords[0] + base.coords[1]  # forced linear relation
    return Chart("hyperplane-bound", 2, 6, base.coords + (extra,))


# ---------------------------------------------------------------------------
# tangent and osculating spaces
# ---------------------------------------------------------------------------

def test_tangent_space_veronese_surface_origin():
    c = make_veronese(2, 2)
    span = tangent_space(c, (F(0), F(0)))
    assert span.dim == 2
    assert span.generators[0] == (F(1),) + (F(0),) * 5


def test_tangent_space_dim_equals_n_on_smooth_points():
    for c, pt in [(make_veronese(2, 3), (F(1), F(2))),
                  (make_random_variety(3, 3, 9, 2), (F(0), F(0), F(0))),
                  (make_veronese(4, 2), (F(1), F(-1), F(2), F(3)))]:
        assert tangent_space(c, pt).dim == c.n


def test_tangent_space_singular_point_raises():
    # cuspidal curve chart: (1, u^2, u^3); Jacobian drops rank at u = 0
    c = Chart("cusp", 1, 2, (MultiPoly.constant(1, 1),
                             MultiPoly.monomial(1, (2,), 1),
                             MultiPoly.monomial(1, (3,), 1)))
    with pytest.raises(SingularPointError):
        tangent_space(c, (F(0),))


def test_osculating_space_h1_is_tangent_space():
    c = make_veronese(2, 3)
    pt = (F(1), F(-2))
    assert osculating_space(c, pt, 1).same_span(tangent_space(c, pt))


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
    c = Chart("curved-along-u2", 2, 6, coords)
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


def test_linear_span_contains_and_union():
    a = LinearSpan.of([(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    b = LinearSpan.of([(F(1), F(1), F(0))])
    assert a.contains_span(b)
    assert not b.contains_span(a)
    assert a.union(b).rank == 2
    assert a.contains_vector((F(2), F(-3), F(0)))
    assert not a.contains_vector((F(0), F(0), F(1)))
