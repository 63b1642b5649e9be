"""Ranks and determinants taken of integer numerators.

Every vector read from one chart's derivative tables is its integer
numerators over a row scale (q^D at the point, times the contraction's own
scale) and a column scale (den_c of the coordinate), so span ranks run on
the numerators and a determinant divides by the scales once.  The sample
lattice only produces integer points of integer-coefficient charts; these
tests take rational points (q > 1) and rational coefficients (den_c > 1)
and compare against the Fraction oracles.  Guards keep Fractions out of
the elimination kernels on the command line's rank and determinant paths,
and out of every span the analysis ranks, the smoothness test's Jacobian
included; a span's exact generators, built on request, must equal the
oracle vectors.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import product

import pytest

from terracini import chart, exactlin, gamma15, secants
from terracini.catalog import make_random_variety, make_veronese
from terracini.chart import (
    Chart,
    CurvilinearJet,
    contract_numerators,
    multi_indices,
    unit_vectors,
)
from terracini.cli import main
from terracini.curvilinear import tangent_along
from terracini.exactlin import Matrix, span_rank
from terracini.gamma15 import (
    gamma15_matrix,
    pi_constancy_check,
    pi_space,
)
from terracini.secants import osculating_space, tangent_space
from oracles import (
    MultiPoly,
    _gamma15_columns,
    brute_contract,
    chart_polys,
    claim_coefficient_audit,
    gauss_det,
    generators,
    jet_normalize,
    polys_chart,
    rank_exact,
    symbolic_table,
)


def rational_chart(rng, n, degree, r, dependent=False) -> Chart:
    """Random chart with coefficients a/b, b in 1..6.

    With ``dependent`` the last coordinate is a rational combination of the
    first two, so every span of derivative vectors has rank at most r.
    """
    mons = [e for e in product(range(degree + 1), repeat=n) if sum(e) <= degree]
    coords = [MultiPoly(n, {e: F(rng.randint(-9, 9), rng.randint(1, 6)) for e in mons})
              for _ in range(r + 1)]
    if dependent:
        coords[-1] = coords[0] * F(2, 3) - coords[1] * F(5, 7)
    chart = polys_chart("rational", n, r, coords)
    assert any(den > 1 for den, _, _ in chart.forms)
    return chart


def rational_point(rng, n) -> tuple:
    """A point whose every coordinate has denominator > 1."""
    return tuple(F(rng.choice([-13, -1, 1, 11, 17]), rng.randint(2, 7)) for _ in range(n))


@pytest.mark.parametrize("points, dependent", [(2, False), (3, True)],
                         ids=["row-dependent", "column-dependent"])
def test_scaled_numerator_rows_rank_like_the_fraction_vectors(points, dependent):
    rng = random.Random(71 + points)
    n, r = 2, 13
    e = unit_vectors(n)
    # per point, the 6 vectors of order <= 2 and a contraction in their span,
    # so every family is rank deficient and Bareiss decides its rank
    for _ in range(4):
        chart = rational_chart(rng, n, 4, r, dependent)
        rows, vectors = [], []
        for _ in range(points):
            pt = rational_point(rng, n)
            lam = rational_point(rng, n)
            t = chart.integer_table(pt, 2)
            sym = symbolic_table(chart, pt, 2)
            for key in multi_indices(n, 2):
                rows.append(t.nums.get(key, (0,) * (r + 1)))
                vectors.append(sym[key])
            # rational directions and weights add the contraction's own row scale
            terms = [(F(3, 2), (lam, e[0])), (2, (lam,)), (F(1, 3), ())]
            rows.append(contract_numerators(t, [terms])[0][0])
            vectors.append(brute_contract(sym, n, r + 1, terms))
        row_scales = [rng.choice([-5, -3, -1, 1, 2, 7]) for _ in rows]
        col_scales = [rng.choice([-4, -1, 1, 3, 6]) for _ in range(r + 1)]
        scaled = [[a * rs * cs for a, cs in zip(row, col_scales)]
                  for row, rs in zip(rows, row_scales)]
        expected = rank_exact(Matrix(vectors))
        assert expected < min(len(rows), r + 1)
        assert span_rank(scaled) == span_rank(rows) == expected


def test_gamma15_det_of_integer_columns_matches_the_fraction_determinant():
    rng = random.Random(72)
    n, r = 2, 8  # r = 3n + 2
    nonzero = 0
    for _ in range(4):
        chart = rational_chart(rng, n, 3, r)
        pt, lam, mu = (rational_point(rng, n) for _ in range(3))
        sym = symbolic_table(chart, pt, 5)
        cols = [brute_contract(sym, n, r + 1, terms) for terms in _gamma15_columns(n, lam, mu)]
        expected = gauss_det(list(zip(*cols)))
        assert gamma15_matrix(chart, pt, lam, mu).det() == expected  # sign included
        nonzero += expected != 0
    assert nonzero == 4


@pytest.fixture
def kernel_entries(monkeypatch):
    """Types of every entry the two elimination kernels receive."""
    seen = []

    def recording(kernel):
        def wrapper(rows, *args):
            seen.extend({type(x) for row in rows for x in row})
            return kernel(rows, *args)
        return wrapper

    monkeypatch.setattr(exactlin, "mod_rank", recording(exactlin.mod_rank))
    monkeypatch.setattr(exactlin, "bareiss_echelon", recording(exactlin.bareiss_echelon))
    return seen


@pytest.mark.parametrize("argv", [
    "analyze --variety veronese:2:12 --check secant:14 --trials 2",
    "analyze --variety veronese:4:2 --check audit",
    "analyze --variety veronese:1:5 --check gamma15",
], ids=["secant", "audit", "gamma15-witness"])
def test_elimination_kernels_receive_only_ints(kernel_entries, argv):
    with redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0
    assert kernel_entries and set(kernel_entries) == {int}


def test_identically_zero_gamma15_reaches_no_kernel(monkeypatch):
    # on a quadratic chart the quintic column of every trial's matrix is zero,
    # so Gamma15Matrix.det returns 0 before any contraction or determinant
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    for name in ("mod_rank", "bareiss_echelon"):
        monkeypatch.setattr(exactlin, name, counted(getattr(exactlin, name)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main("analyze --variety veronese:4:2 --check gamma15".split()) == 0
    assert '"identically_zero": true' in out.getvalue()
    assert calls == []


@pytest.fixture
def evaluations(monkeypatch):
    """The point of every ``Chart._numerators`` call, one per evaluation."""
    seen = []
    numerators = Chart._numerators

    def counted_numerators(self, pt, keys):
        seen.append(tuple(pt))
        return numerators(self, pt, keys)

    monkeypatch.setattr(Chart, "_numerators", counted_numerators)
    return seen


def test_secant_defect_evaluates_each_draw_once(monkeypatch, evaluations):
    # a draw's smoothness test (x and the n first partials) and its tangent
    # rows read one order-1 table, so a point is evaluated at most once
    draws = []
    sample_point = secants.sample_point

    def counted_draw(*args):
        draws.append(sample_point(*args))
        return draws[-1]

    monkeypatch.setattr(secants, "sample_point", counted_draw)
    rec = secants.secant_defect(make_veronese(2, 12), 14, samples=2)
    assert rec.observed == 44
    assert len(evaluations) <= len(draws) == 30 + rec.resamples


def test_claim_audit_evaluates_its_point_once(evaluations):
    # the numeric determinants that the symbolic expansion is compared
    # with all read the one order-5 table at the audit point
    chart = make_random_variety(2, 3, 8, 1)
    evaluations.clear()
    claim_coefficient_audit(chart, (1, 2), evaluations=10)
    assert evaluations == [(1, 2)]


def test_claim_audit_expands_at_a_rational_point():
    # the package's row scales (q^D > 1 here) divide its numeric determinants
    rng = random.Random(76)
    chart = rational_chart(rng, 2, 3, 8)
    rep = claim_coefficient_audit(chart, rational_point(rng, 2), evaluations=3)
    assert rep.evaluations_match and not rep.identically_zero


def test_lower_order_read_after_a_higher_one_evaluates_nothing(evaluations):
    # the chart keeps one table of the last point, of the highest order asked
    # there: lower orders, the tangent rank and x are read from it, and only
    # a higher order or another point evaluates again
    chart = make_random_variety(2, 3, 8, 1)
    pt, other = (F(1, 2), F(-3)), (F(1), F(2))
    evaluations.clear()
    high = chart.integer_table(pt, 5)
    assert all(chart.integer_table(pt, h) is high for h in (1, 0, 4, 5))
    assert chart.is_smooth_at(pt) and chart.tangent_rank(pt) == 3
    assert evaluations == [pt]
    chart.integer_table(other, 1)
    assert chart.integer_table(other, 2).order == 2 and chart.integer_table(other, 1).order == 2
    assert evaluations == [pt, other, other]


@pytest.mark.parametrize("u1", [0, 1, 2, F(1, 2)])
def test_pi_space_evaluates_one_table_per_sample(monkeypatch, evaluations, u1):
    # the five-jet rank reads the order-5 table, and Pi's own span, whose terms
    # need order 4, is served from it
    chart = make_random_variety(2, 3, 8, 1)
    orders = []
    integer_table = Chart.integer_table
    monkeypatch.setattr(Chart, "integer_table",
                        lambda self, pt, h: orders.append(h) or integer_table(self, pt, h))
    evaluations.clear()
    pi_space(chart, u1)
    assert orders == [5, 4]
    assert len(evaluations) == 1


def test_pi_constancy_evaluates_each_sample_once(evaluations):
    # the five-jet check, its curve derivatives and the span Pi share the
    # order-5 table at each sample
    chart = make_random_variety(2, 3, 8, 1)
    evaluations.clear()
    pi_constancy_check(chart, [0, 1, 2])
    assert len(evaluations) == 3


@pytest.fixture
def span_entries(monkeypatch):
    """Types of every entry reaching ``span_rank`` through chart, secants and gamma15."""
    seen = []

    def recording(vectors):
        vectors = list(vectors)
        seen.extend({type(x) for row in vectors for x in row})
        return span_rank(vectors)

    for module in (chart, secants, gamma15):
        monkeypatch.setattr(module, "span_rank", recording)
    return seen


@pytest.mark.parametrize("argv", [
    "analyze --variety random:2:4:8:2 --check speciality:2 --trials 2",
    "analyze --variety random:2:4:8:2 --check speciality:3 --trials 2",
    "analyze --variety random:2:4:8:2 --check pi-constancy",
    "audit-theorem --variety random:2:4:8:2 --trials 2",
    "analyze --variety veronese:2:12 --check secant:3",
], ids=["speciality-2", "speciality-3", "pi-constancy", "audit-theorem", "secant"])
def test_spans_reach_span_rank_as_integer_rows(span_entries, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv.split()) == 0
    assert '"precondition_failed": true' not in out.getvalue()
    assert span_entries and set(span_entries) == {int}


def along_generators(sym, n: int, width: int, mu, length: int) -> list[tuple]:
    """The generators along a normalized jet (lambda = e_1), from their formulas."""
    e = unit_vectors(n)
    e1 = e[0]

    def vec(*terms):
        return brute_contract(sym, n, width, terms)

    gens = [sym[()]] + [sym[(j,)] for j in range(n)]
    gens += [vec((1, (e1, ej))) for ej in e] + [sym[(0, 0, 0)]]
    if length == 3:
        gens += [vec((2, (mu, eh)), (1, (e1, e1, eh))) for eh in e[1:]]
        gens.append(vec((12, (mu, mu)), (12, (mu, e1, e1)), (1, (e1,) * 4)))
        gens.append(vec((60, (e1, mu, mu)), (20, (e1, e1, e1, mu)), (1, (e1,) * 5)))
    return gens


def assert_scaled(span):
    # a rational point and rational coefficients give row and column scales > 1
    assert min(span.scales) > 1 and max(span.dens) > 1


def test_span_generators_are_the_exact_vectors():
    rng = random.Random(73)
    n, r = 2, 8
    for _ in range(2):
        chart = rational_chart(rng, n, 5, r)
        pt = rational_point(rng, n)
        sym = symbolic_table(chart, pt, 3)
        tangent = tangent_space(chart, pt)
        assert_scaled(tangent)
        assert generators(tangent) == (sym[()],) + tuple(sym[(i,)] for i in range(n))
        assert len(tangent.dens) == r + 1 and tangent.dim == n
        osc = osculating_space(chart, pt, 3)
        assert_scaled(osc)
        assert generators(osc) == tuple(sym[key] for key in multi_indices(n, 3))
        for length in (2, 3):
            jet = CurvilinearJet(pt, rational_point(rng, n), rational_point(rng, n), length)
            tas = tangent_along(chart, jet)
            assert_scaled(tas)
            normalized, njet = jet_normalize(chart, jet)
            ref = symbolic_table(normalized, (F(0),) * n, 5)
            assert list(generators(tas)) == along_generators(ref, n, r + 1, njet.mu, length)


def test_pi_generators_are_the_exact_vectors():
    rng = random.Random(74)
    n, r = 2, 8  # r = 3n + 2; cubic, so the coordinate curves meet the precondition
    chart = rational_chart(rng, n, 3, r)
    u1 = F(3, 5)
    pi = pi_space(chart, u1)
    assert_scaled(pi)
    sym = symbolic_table(chart, (u1, F(0)), 4)
    # x, x_i, x_1i, x_11i, x_1111
    expected = [sym[()]] + [sym[key] for prefix in [(), (0,), (0, 0)] for key in
                            [prefix + (i,) for i in range(n)]] + [sym[(0, 0, 0, 0)]]
    assert list(generators(pi)) == expected


def test_contains_span_refuses_different_column_scales():
    rng = random.Random(75)
    chart = rational_chart(rng, 2, 3, 8)
    coords = chart_polys(chart)
    halved = polys_chart("halved", 2, 8, (coords[0] * F(1, 2),) + coords[1:])
    pt = rational_point(rng, 2)
    span = tangent_space(chart, pt)
    assert osculating_space(chart, pt, 2).contains_span(span)
    with pytest.raises(ValueError, match="different column scales"):
        span.contains_span(tangent_space(halved, pt))
