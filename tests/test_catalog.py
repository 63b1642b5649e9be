"""Catalog constructors and the self-justifying fixture table."""

import random

import pytest

from terracini.catalog import (
    MAX_COORDINATES,
    CatalogEntry,
    SmoothnessFailureError,
    _draw_accepted,
    _monomials_upto,
    get_entry,
    load_catalog,
    make_random_variety,
    make_segre,
    make_segre_veronese,
    make_veronese,
)
from terracini.chart import Chart, TooLargeError
from terracini.exactlin import randints
from terracini.secants import secant_defect
from oracles import build_for_length3, nondegenerate_reference, symmetric_rank_locus_dim


def test_veronese_counts():
    assert make_veronese(1, 1).r == 1
    assert make_veronese(2, 2).r == 5
    assert make_veronese(4, 2).r == 14
    c = make_veronese(2, 3)
    assert len(c.forms) == 10 and c.n == 2


def test_random_variety_refuses_r_above_the_coordinate_cap():
    # r+1 coordinates are refused before the monomial count, whose message
    # prints r+1: for r of 4,300 nines, the most int() reads, Python cannot
    for r in (MAX_COORDINATES, int("9" * 4300)):
        with pytest.raises(TooLargeError, match="random.r >= 1000. needs more than 1000"
                                                " coordinates, above the cap of 1000$"):
            make_random_variety(1, 1, r, 1)
    # r+1 = 1000 passes the cap, and the monomial count refuses it
    with pytest.raises(ValueError, match="only 2 monomials < r.1=1000") as exc:
        make_random_variety(1, 1, MAX_COORDINATES - 1, 1)
    assert type(exc.value) is ValueError


def test_constructors_refuse_one_coordinate_past_the_cap():
    # a parameter of MAX_COORDINATES is refused uncounted; below it the count decides
    with pytest.raises(TooLargeError, match=r"^veronese\(n=1000, d=1\) needs more than 1000 "):
        make_veronese(MAX_COORDINATES, 1)
    for a, b in [(1, 500), (500, 1)]:  # (a+1)(b+1) = 1002, while 2 x 500 = 1000 fits
        with pytest.raises(TooLargeError, match=rf"^segre\(a={a}, b={b}\) needs 1002 coordinates"):
            make_segre(a, b)
    # r+1 = 4 coordinates of 3 monomials: refused before any draw
    with pytest.raises(ValueError, match="only 3 monomials < r.1=4$") as exc:
        make_random_variety(1, 2, 3, 0)
    assert type(exc.value) is ValueError


def test_segre_counts():
    q = make_segre(1, 1)
    assert (q.n, q.r) == (2, 3)
    s = make_segre(2, 2)
    assert (s.n, s.r) == (4, 8)


def test_segre_coordinates_are_products():
    s = make_segre(1, 2)
    from fractions import Fraction as F
    pt = (F(2), F(3), F(5))
    vec = s.derivative_vector(pt, ())
    left = [F(1), F(2)]
    right = [F(1), F(3), F(5)]
    assert sorted(vec) == sorted(a * b for a in left for b in right)


def test_segre_veronese_coordinates_are_products_with_the_first_factor_slowest():
    # P^1 x P^2 by O(2, 1): (1, s, s^2) times (1, t, w)
    c = make_segre_veronese((1, 2), (2, 1), "p1xp2-2-1")
    assert (c.label, c.n, c.r) == ("p1xp2-2-1", 3, 8)
    assert [exps for _, _, exps in c.forms] == [
        ((a, b, w),) for a in range(3) for b, w in ((0, 0), (1, 0), (0, 1))]
    for dims, degrees in [((1, 2), (2,)), ((1,), (2, 2))]:
        with pytest.raises(ValueError):
            make_segre_veronese(dims, degrees, "mismatched")


@pytest.mark.parametrize("n, d", [(1, 5), (2, 3), (4, 2), (10, 2)])
def test_veronese_is_the_one_factor_segre_veronese(n, d):
    assert make_veronese(n, d) == make_segre_veronese((n,), (d,), f"veronese-{n}-{d}")


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (3, 1), (6, 7)])
def test_segre_is_the_linear_two_factor_segre_veronese(a, b):
    assert make_segre(a, b) == make_segre_veronese((a, b), (1, 1), f"segre-{a}-{b}")


def test_random_variety_contract():
    from fractions import Fraction as F
    for seed in (0, 1, 2):
        c = make_random_variety(2, 4, 7, seed)
        assert (c.n, c.r) == (2, 7)
        assert c.is_smooth_at((F(0), F(0)))
        assert c.is_nondegenerate()
        assert f"seed={seed}" in c.label


# ---------------------------------------------------------------------------
# a random chart accepted from its draws
# ---------------------------------------------------------------------------

def first_draw(n, degree, r, seed):
    """The first attempt's coefficients in ``make_random_variety``, constant fix-up applied."""
    m = len(list(_monomials_upto(n, degree)))
    coeffs = randints(random.Random(seed), -9, 9, (r + 1) * m)
    if not any(coeffs[::m]):
        coeffs[0] = 1
    return coeffs


def chart_of(coeffs, n, degree, r):
    """The chart x = C m(u) of the draws C, read row by row."""
    mons = tuple(_monomials_upto(n, degree))
    return Chart("draw", n, r, tuple((1, tuple(coeffs[i:i + len(mons)]), mons)
                                     for i in range(0, len(coeffs), len(mons))))


def built_chart_accepts(chart, reference=True):
    nondegenerate = chart.is_nondegenerate()
    if reference:
        assert nondegenerate == nondegenerate_reference(chart)
    return chart.is_smooth_at((0,) * chart.n) and nondegenerate


@pytest.mark.parametrize("n, degree, r", [(4, 2, 14), (4, 3, 14), (3, 3, 11), (3, 4, 11),
                                          (1, 2, 2), (1, 3, 2), (2, 1, 4)])
def test_draw_test_agrees_with_the_built_chart(n, degree, r):
    # (1, 2, 2) rejects seed 72's singular draws; (2, 1, 4), P^2 in P^4, has
    # 5 x 3 draws of rank 3 < r+1 and rejects every seed.  The Fraction
    # reference takes about 20 ms a chart at M = 35, so it ranks every 10th.
    for seed in range(200):
        coeffs = first_draw(n, degree, r, seed)
        chart = chart_of(coeffs, n, degree, r)
        assert _draw_accepted(coeffs, n, r) == built_chart_accepts(chart, seed % 10 == 0), seed


@pytest.mark.parametrize("rows, accepted", [
    # singular C: x(0) and x_1(0) independent, but coordinate 3 is coordinate 1 + 2
    ([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], False),
    # no linear term: x_1(0) = 0, though C has rank r + 1
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], False),
    # x(0) = x_1(0): tangent rank 1 < n + 1, but Jacobian rank n through the fallback
    ([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], True),
])
def test_draw_test_on_crafted_draws(rows, accepted):
    coeffs = [c for row in rows for c in row]
    assert _draw_accepted(coeffs, 1, 2) == accepted
    assert built_chart_accepts(chart_of(coeffs, 1, 3, 2)) == accepted


def test_rejected_first_draw_retries_with_the_next_seed():
    # seed 72's 3 x 3 draws are singular, so seed 72 + 104729's are used
    assert not _draw_accepted(first_draw(1, 2, 2, 72), 1, 2)
    chart = make_random_variety(1, 2, 2, 72)
    assert chart.forms == chart_of(first_draw(1, 2, 2, 72 + 104729), 1, 2, 2).forms
    assert chart.forms == ((1, (2, 5, 1), ((0,), (1,), (2,))), (1, (-2, 2, -1), ((0,), (1,), (2,))),
                           (1, (7, -7, -3), ((0,), (1,), (2,))))
    assert chart.label == "random-1-2-2(seed=72)"


def test_random_variety_evaluates_no_table():
    for shape in [(4, 2, 14), (3, 4, 11), (1, 2, 2)]:
        chart = make_random_variety(*shape, 72)
        assert chart._memo == [None, None, None]
        assert list(chart._dcache) == [()]


def test_random_variety_is_seed_deterministic():
    a = make_random_variety(2, 3, 6, 5)
    b = make_random_variety(2, 3, 6, 5)
    assert a.forms == b.forms


def test_random_variety_rejects_impossible_requests():
    with pytest.raises(ValueError):
        make_random_variety(1, 2, 5, 0)  # only 3 monomials for 6 coords
    with pytest.raises(ValueError):
        make_random_variety(3, 3, 5, 0)  # r < 2n


def test_catalog_loads_and_has_expected_shape():
    entries = load_catalog()
    assert len(entries) >= 6
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    assert sum(1 for e in entries if e.equivalence_eligible) >= 6


def test_catalog_entries_build_to_expected_dimensions():
    for entry in load_catalog():
        chart = entry.build()
        assert (chart.n, chart.r) == (entry.n, entry.r), entry.id


def test_known_defect_table_verified_end_to_end():
    for entry in load_catalog():
        chart = entry.build()
        for kd in entry.known_defects:
            rec = secant_defect(chart, kd.k, samples=3, seed=13)
            assert rec.defect == kd.delta, (entry.id, kd.k)
            assert kd.oracle  # every recorded defect carries its derivation


def test_symmetric_rank_locus_matches_quadratic_veronese_defects():
    # Sec_k(v_2(P^n)) is the rank <= k+1 locus of symmetric (n+1)x(n+1)
    # matrices, of codim (n-k)(n-k+1)/2 in P^{r}, r = (n+1)(n+2)/2 - 1.
    # For veronese-4-2 the catalog records dims 8 (k=1) and 11 (k=2).
    entry = get_entry("veronese-4-2")
    n, r = entry.n, entry.r
    assert [kd.k for kd in entry.known_defects] == [1, 2]
    for kd in entry.known_defects:
        recorded = min(r, kd.k * n + n + kd.k) - kd.delta
        codim = (n - kd.k) * (n - kd.k + 1) // 2
        assert symmetric_rank_locus_dim(n + 1, kd.k + 1) == recorded == r - codim
    assert symmetric_rank_locus_dim(n + 1, 1) == n  # the Veronese itself
    assert symmetric_rank_locus_dim(n + 1, n + 1) == r  # all of P^r


def test_get_entry():
    assert get_entry("veronese-4-2").n == 4
    with pytest.raises(KeyError):
        get_entry("nope")


def test_projection_targets_are_consistent():
    for entry in load_catalog():
        if entry.projection_target is not None:
            assert entry.projection_target == 3 * entry.n + 2
            chart = build_for_length3(entry, seed=1)
            assert chart.r == entry.projection_target
        elif entry.equivalence_eligible:
            assert entry.r == 3 * entry.n + 2
