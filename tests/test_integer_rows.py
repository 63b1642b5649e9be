"""Ranks and determinants taken of integer numerators.

Every vector read from one chart's derivative tables is its integer
numerators over a row scale (q^D at the point, times the contraction's own
scale) and a column scale (den_c of the coordinate), so span ranks run on
the numerators and a determinant divides by the scales once.  The sample
lattice only produces integer points of integer-coefficient charts; these
tests take rational points (q > 1) and rational coefficients (den_c > 1)
and compare against the Fraction oracles.  A guard keeps Fractions out of
the elimination kernels on the command line's rank and determinant paths.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import product

import pytest

from terracini import exactlin, secants
from terracini.catalog import make_random_variety, make_veronese
from terracini.chart import Chart, contract_numerators, multi_indices, unit_vectors
from terracini.cli import main
from terracini.exactlin import Matrix, MultiPoly, span_rank
from terracini.gamma15 import (
    _gamma15_columns,
    claim_coefficient_audit,
    gamma15_det,
    pi_constancy_check,
)
from oracles import brute_contract, gauss_det, rank_exact, symbolic_table


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
    chart = Chart("rational", n, r, tuple(coords))
    assert any(c.denominator > 1 for p in chart.coords for c in p.terms.values())
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
            rows.append(contract_numerators(t, terms)[0])
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
        cols = [brute_contract(sym, n, r + 1, terms)
                for _, terms in _gamma15_columns(n, lam, mu)]
        expected = gauss_det(list(zip(*cols)))
        assert gamma15_det(chart, pt, lam, mu) == expected  # sign included
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
    "analyze --variety veronese:4:2 --check gamma15",
    "analyze --variety veronese:1:5 --check gamma15",
], ids=["secant", "gamma15-zero", "gamma15-witness"])
def test_elimination_kernels_receive_only_ints(kernel_entries, argv):
    with redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0
    assert kernel_entries and set(kernel_entries) == {int}


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
    # the symbolic expansion and the numeric determinants it is compared
    # with all read the one order-5 table at the audit point
    chart = make_random_variety(2, 3, 8, 1)
    evaluations.clear()
    claim_coefficient_audit(chart, (1, 2), evaluations=10)
    assert evaluations == [(1, 2)]


def test_pi_constancy_evaluates_each_sample_once(evaluations):
    # the five-jet check, its curve derivatives and the span Pi share the
    # order-5 table at each sample
    chart = make_random_variety(2, 3, 8, 1)
    evaluations.clear()
    pi_constancy_check(chart, [0, 1, 2])
    assert len(evaluations) == 3
