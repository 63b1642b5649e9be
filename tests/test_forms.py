"""Chart integer forms against a reference built with polynomial arithmetic.

A chart holds one integer form (den, coefficients, exponents) per
coordinate, built from ints by the catalog constructors, generic
projection and the chart-file reader.  The reference here builds the same
coordinates as ``MultiPoly`` polynomials with ``Fraction`` coefficients,
with the same rng draws, and reduces each with ``oracles.integer_form``;
the two must agree coordinate by coordinate as {exponent: coefficient}
plus the denominator.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from terracini.catalog import (
    _monomials_upto,
    load_catalog,
    make_random_variety,
    make_segre,
    make_veronese,
)
from terracini.chart import load_chart, obj_to_chart, project_generic
from oracles import (MultiPoly, build_for_length3, chart_polys, chart_to_obj, integer_form,
                     polys_chart, save_chart)


def keyed(forms) -> list:
    return [(den, dict(zip(es, cs))) for den, cs, es in forms]


def assert_same_forms(chart, polys):
    assert len(chart.forms) == len(polys)
    assert keyed(chart.forms) == keyed(integer_form(p) for p in polys)


# ---------------------------------------------------------------------------
# the reference constructors: polynomial arithmetic over Q
# ---------------------------------------------------------------------------

def monomials_upto(n, d):
    """Exponents of total degree <= d, by degree, then by decreasing exponent tuple.

    This is the order that ``catalog._monomials_upto`` documents as
    ``multi_indices`` order, enumerated here without it.
    """
    return sorted((e for e in product(range(d + 1), repeat=n) if sum(e) <= d),
                  key=lambda e: (sum(e), tuple(-k for k in e)))


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 4), (4, 2)])
def test_catalog_enumerates_monomials_in_the_reference_order(n, d):
    assert list(_monomials_upto(n, d)) == monomials_upto(n, d)


def veronese_polys(n, d):
    return [MultiPoly(n, {e: 1}) for e in monomials_upto(n, d)]


def segre_polys(a, b):
    n = a + b
    left = [(0,) * n] + [tuple(1 if t == i else 0 for t in range(n)) for i in range(a)]
    right = [(0,) * n] + [tuple(1 if t == a + j else 0 for t in range(n)) for j in range(b)]
    return [MultiPoly(n, {tuple(x + y for x, y in zip(ea, eb)): 1})
            for ea in left for eb in right]


def random_polys(n, degree, r, seed):
    """The accepted coordinates, and whether the constant-term fix-up ran."""
    mons = monomials_upto(n, degree)
    for attempt in range(25):
        rng = random.Random(seed + 104729 * attempt)
        coords = [MultiPoly(n, {e: F(rng.randint(-9, 9)) for e in mons})
                  for _ in range(r + 1)]
        fixed = all(p.coefficient((0,) * n) == 0 for p in coords)
        if fixed:
            coords[0] = coords[0] + F(1)
        cand = polys_chart("reference", n, r, coords)
        if cand.is_smooth_at((F(0),) * n) and cand.is_nondegenerate():
            return coords, fixed
    raise AssertionError("no reference chart")


def projected_polys(polys, n, r_target, seed):
    """Seeded rational linear combinations of the coordinates, as polynomials."""
    source = polys_chart("source", n, len(polys) - 1, polys)
    if r_target == source.r:
        return list(polys)
    pts = [(F(0),) * n, tuple(F((i * 3 + 1) % 5 - 2) for i in range(n))]
    for attempt in range(20):
        rng = random.Random(seed + 7919 * attempt)
        rows = [[F(rng.randint(-9, 9)) for _ in polys] for _ in range(r_target + 1)]
        coords = []
        for row in rows:
            p = MultiPoly.zero(n)
            for c, q in zip(row, polys):
                if c:
                    p = p + q * c
            coords.append(p)
        cand = polys_chart("reference", n, r_target, coords)
        if all(cand.is_smooth_at(pt) for pt in pts if source.is_smooth_at(pt)) \
                and cand.is_nondegenerate():
            return coords
    raise AssertionError("no reference projection")


def written_coords(polys) -> list:
    """The ``coords`` entry of a chart file, written term by term from Fractions."""
    return [[{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
             for e, c in sorted(p.terms.items())] for p in polys]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4)])
def test_veronese_forms(n, d):
    assert_same_forms(make_veronese(n, d), veronese_polys(n, d))


@pytest.mark.parametrize("a, b", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_segre_forms(a, b):
    assert_same_forms(make_segre(a, b), segre_polys(a, b))


@pytest.mark.parametrize("n, degree, r", [(1, 5, 5), (2, 3, 6), (3, 3, 9)])
def test_random_forms_over_seeds(n, degree, r):
    for seed in range(20):
        polys, _ = random_polys(n, degree, r, seed)
        assert_same_forms(make_random_variety(n, degree, r, seed), polys)


@pytest.mark.parametrize("n, degree, r, seed", [(1, 2, 2, 444), (1, 3, 2, 685)])
def test_random_forms_with_the_constant_fixup(n, degree, r, seed):
    polys, fixed = random_polys(n, degree, r, seed)
    assert fixed  # every drawn constant term was zero
    chart = make_random_variety(n, degree, r, seed)
    assert_same_forms(chart, polys)
    assert chart.forms[0][1][0] == 1 and chart.forms[0][2][0] == (0,) * n


# the charts of the benchmark's workloads, over the rounds its digests record
# (jet-audit and wide-spans 0-49, identity-test 0-69, at seed 1)
BENCH_RANDOM = ([(3, 3, 11, s) for s in range(1000, 1050)]
                + [(4, 3, 14, s) for s in range(1000, 1050)]
                + [(3, 4, 11, s) for s in range(1000, 1050)]
                + [(4, 2, 14, s) for s in range(1000, 1070)])


def test_benchmark_random_charts():
    for n, degree, r, seed in BENCH_RANDOM:
        polys, _ = random_polys(n, degree, r, seed)
        assert_same_forms(make_random_variety(n, degree, r, seed), polys)


def test_benchmark_veronese_and_segre_charts():
    for n, d in [(4, 2), (2, 12), (10, 2)]:
        assert_same_forms(make_veronese(n, d), veronese_polys(n, d))
    assert_same_forms(make_segre(6, 7), segre_polys(6, 7))


def reference_polys(entry):
    if entry.kind == "veronese":
        return veronese_polys(*entry.params)
    if entry.kind == "segre":
        return segre_polys(*entry.params)
    return random_polys(*entry.params)[0]


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.id)
def test_catalog_forms(entry):
    polys = reference_polys(entry)
    assert_same_forms(entry.build(), polys)
    target = entry.projection_target
    if target is not None:
        assert_same_forms(build_for_length3(entry),
                          projected_polys(polys, entry.n, target, 0))


# ---------------------------------------------------------------------------
# projection and chart files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, target, seed", [
    (lambda: make_veronese(2, 3), 8, 9),
    (lambda: make_random_variety(2, 3, 8, 4), 6, 2),
    (lambda: make_random_variety(3, 2, 9, 1), 6, 11),
])
def test_projection_forms(make, target, seed):
    chart = make()
    assert_same_forms(project_generic(chart, target, seed),
                      projected_polys(chart_polys(chart), chart.n, target, seed))


def test_projection_of_a_rational_chart():
    # coordinates with different denominators combine over their lcm
    n = 2
    polys = [MultiPoly(n, {(0, 0): F(1, 2), (1, 0): F(1, 3)}), MultiPoly(n, {(1, 0): F(-2, 9)}),
             MultiPoly(n, {(0, 1): F(5, 4)}), MultiPoly(n, {(2, 0): F(7, 6), (0, 1): F(1)}),
             MultiPoly(n, {(1, 1): F(-3, 10)}), MultiPoly(n, {(0, 2): F(2)}),
             MultiPoly(n, {(2, 1): F(1, 15), (0, 0): F(4)})]
    chart = polys_chart("rational", n, 6, polys)
    assert_same_forms(project_generic(chart, 5, 3), projected_polys(polys, n, 5, 3))


CHART_FILE = {"label": "unreduced", "n": 2, "r": 3, "coords": [
    [{"exp": [0, 0], "num": "6", "den": "4"}, {"exp": [1, 0], "num": "-10", "den": "15"},
     {"exp": [0, 1], "num": "0", "den": "7"}],
    [{"exp": [1, 1], "num": "4", "den": "2"}, {"exp": [2, 0], "num": "9", "den": "6"}],
    [{"exp": [0, 2], "num": "0", "den": "1"}],
    [{"exp": [3, 0], "num": "-21", "den": "14"}, {"exp": [0, 0], "num": "1", "den": "3"},
     {"exp": [1, 2], "num": str(10 ** 40), "den": "6"}],
]}


def test_chart_file_forms_with_unreduced_and_zero_terms():
    polys = [MultiPoly(2, {tuple(t["exp"]): F(int(t["num"]), int(t["den"])) for t in terms})
             for terms in CHART_FILE["coords"]]
    chart = obj_to_chart(CHART_FILE)
    assert_same_forms(chart, polys)
    assert chart.forms[2] == (1, (), ())  # zero terms only: the zero polynomial
    assert chart_to_obj(chart)["coords"] == written_coords(polys)


def test_projected_chart_file_round_trip(tmp_path):
    chart = project_generic(make_veronese(2, 3), 8, 9)
    polys = projected_polys(veronese_polys(2, 3), 2, 8, 9)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_chart(chart, first)
    loaded = load_chart(first)
    save_chart(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == chart
    assert_same_forms(loaded, polys)
    assert chart_to_obj(loaded)["coords"] == written_coords(polys)
