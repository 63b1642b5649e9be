"""Charts, jets, derivative extraction, normalization and projection."""

import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from terracini.catalog import load_catalog, make_random_variety, make_segre, make_veronese
from terracini.chart import (
    MAX_DEGREE,
    MAX_MONOMIAL_ENTRIES,
    BadTargetError,
    Chart,
    ChartFormatError,
    CurvilinearJet,
    DegenerateJetError,
    TooLargeError,
    contract_numerators,
    fraction_vector,
    jet_terms,
    load_chart,
    multi_indices,
    obj_to_chart,
    project_generic,
    unit_vectors,
)
from terracini.curvilinear import tangent_along
from terracini.exactlin import BadIndexError, span_rank
from terracini.secants import LinearSpan, osculating_space
from oracles import (
    FiveJet,
    MultiPoly,
    brute_contract,
    chart_polys,
    chart_to_obj,
    contract,
    composed_curve_series,
    curve_derivatives,
    generators,
    is_normalized,
    jet_normalize,
    nondegenerate_reference,
    partial,
    poly_compose_curve,
    polys_chart,
    rref_rank,
    save_chart,
    smoothness_reference,
    symbolic_table,
    zero_generators,
)
from test_secants import tangent_through_x_chart


def rand_fivejet(rng, n, base_hi=2, hi=4):
    def vec(lo, hi_):
        return tuple(F(rng.randint(lo, hi_)) for _ in range(n))

    lam = vec(-hi, hi)
    while all(c == 0 for c in lam):
        lam = vec(-hi, hi)
    return FiveJet(base=vec(-base_hi, base_hi), lam=lam, mu=vec(-hi, hi),
                   nu=vec(-hi, hi), rho=vec(-hi, hi), sigma=vec(-hi, hi))


# ---------------------------------------------------------------------------
# derivative vectors
# ---------------------------------------------------------------------------

def test_empty_index_gives_coords():
    c = make_veronese(2, 2)
    pt = (F(1), F(2))
    assert c.derivative_vector(pt, ()) == tuple(p.eval(pt) for p in chart_polys(c))


def test_veronese_second_derivative_at_origin():
    # coords 1, u1, u2, u1^2, u1*u2, u2^2; d^2/du1^2 at 0 -> (0,0,0,2,0,0)
    c = make_veronese(2, 2)
    assert c.derivative_vector((F(0), F(0)), (0, 0)) == \
        (F(0), F(0), F(0), F(2), F(0), F(0))


def test_derivative_symmetric_in_index_order():
    rng = random.Random(40)
    c = make_random_variety(3, 4, 7, 2)
    pt = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    idx = [0, 2, 1, 2]
    perms = [(0, 2, 1, 2), (2, 2, 1, 0), (1, 2, 2, 0)]
    base = c.derivative_vector(pt, tuple(idx))
    for p in perms:
        assert c.derivative_vector(pt, p) == base


def test_derivative_bad_index():
    c = make_veronese(2, 2)
    with pytest.raises(BadIndexError):
        c.derivative_vector((F(0), F(0)), (2,))


def rational_chart():
    """Rational coefficients, a zero coordinate and a constant coordinate."""
    n = 3
    coords = (
        MultiPoly(n, {(2, 1, 0): F(3, 4), (0, 0, 3): F(-5, 6), (1, 0, 0): F(1, 9),
                      (0, 0, 0): F(2)}),
        MultiPoly(n, {(1, 2, 2): F(-7, 3), (0, 1, 0): F(1, 2)}),
        MultiPoly.zero(n),
        MultiPoly.constant(n, F(-4, 5)),
        MultiPoly(n, {(5, 0, 0): F(1), (0, 2, 3): F(2, 7), (1, 1, 1): F(-1)}),
    )
    return polys_chart("rational", n, len(coords) - 1, coords)


@pytest.mark.parametrize("pt", [(F(1, 2), F(-3, 7), F(0)), (F(2), F(-1), F(3)),
                                (F(5, 3), F(-5, 6), F(1, 4))])
@pytest.mark.parametrize("make", [rational_chart, lambda: make_random_variety(3, 5, 9, 5)],
                         ids=["rational", "random"])
def test_integer_kernel_matches_symbolic_reference(make, pt):
    c = make()
    reference = symbolic_table(c, pt, 5)
    itable = c.integer_table(pt, 5)
    assert list(reference) == multi_indices(3, 5)
    assert set(itable.nums) == {idx for idx, ref in reference.items() if any(ref)}
    for idx, ref in reference.items():
        nums = itable.nums.get(idx, (0,) * (c.r + 1))
        assert tuple(F(num, den * itable.scale) for num, den in zip(nums, itable.dens)) == ref
        vec = c.derivative_vector(pt, idx[::-1])
        assert vec == ref
        assert all(type(x) is F for x in vec)
    # both charts are quintic, so order 5 is reached
    assert itable.top == 5


def test_integer_kernel_rejects_bad_index_and_point_length():
    c = rational_chart()
    origin = (F(0), F(0), F(0))
    for idx in [(3,), (0, -1), (1, 7, 0)]:
        with pytest.raises(BadIndexError):
            c.derivative_vector(origin, idx)
    with pytest.raises(ValueError, match="wrong length"):
        c.derivative_vector((F(0), F(0)), (0,))
    with pytest.raises(ValueError, match="wrong length"):
        c.integer_table(origin + (F(1),), 2)


def test_table_memo_serves_the_point_and_order_asked_for():
    # the chart keeps one table of the last point, of the highest order asked
    # there; every read must still give that point's derivatives up to the
    # order asked for, however the point is spelled and whatever was read before
    c = rational_chart()
    a, b = (F(1, 2), F(-3, 7), F(0)), (F(2), F(-1), F(3))
    refs = {a: symbolic_table(c, a, 5), b: symbolic_table(c, b, 5)}
    zero = (0,) * (c.r + 1)

    def check(pt, h, ref):
        t = c.integer_table(pt, h)
        # a lower order is served from the kept table, whose rows at its keys are the same
        assert t.order >= h
        for idx, vec in ref.items():
            if len(idx) <= h:
                assert tuple(F(x, d * t.scale)
                             for x, d in zip(t.nums.get(idx, zero), t.dens)) == vec
            # orders 0 to 5, each read from the kept table or a higher one evaluated for it
            assert c.derivative_vector(pt, idx[::-1]) == vec
            assert all(type(x) is F for x in c.derivative_vector(pt, idx))

    for pt in (a, b, a):
        for h in (1, 3, 5):
            check(pt, h, refs[pt])
    for spelling in [(2, -1, 3), (F(2), F(-1), F(3)), [2, -1, 3], [F(2), F(-1), F(3)]]:
        for h in (5, 1, 3):
            check(spelling, h, refs[b])
    # a higher-order table at another point leaves the point's reads intact
    assert c.integer_table(a, 3).order == 3
    check(b, 1, refs[b])
    check(a, 5, refs[a])
    # a table first read at a point has the order asked, so it refuses terms above it
    for h in (1, 3, 5):
        t = c.integer_table((F(h), F(-1, h), F(0)), h)
        assert t.order == h
        with pytest.raises(ValueError, match=f"above the table's order {h}"):
            contract(t, [(1, (E[0],) * (h + 1))])


def flat_chart():
    """Cubic chart: multi-term coordinates, a constant one and one free of u2."""
    n = 2
    coords = (
        MultiPoly.constant(n, F(7, 3)),
        MultiPoly(n, {(3, 0): F(-2, 5), (1, 0): F(4), (0, 0): F(1, 6)}),
        MultiPoly(n, {(2, 1): F(5, 7), (0, 3): F(-1), (1, 1): F(3, 2), (0, 1): F(2)}),
        MultiPoly(n, {(1, 2): F(1, 4), (2, 0): F(-9), (0, 0): F(-1, 2)}),
    )
    return polys_chart("flat", n, len(coords) - 1, coords)


@pytest.mark.parametrize("pt", [(F(1, 2), F(-3, 7)), (F(5, 6), F(4, 9)), (F(-2), F(1, 10))])
def test_flat_evaluation_matches_symbolic_reference(pt):
    # a coordinate with no term in a partial (the constant one, and d/du2 of
    # the one free of u2) must read 0, keys above the chart degree must read
    # zero rows, and the point's coordinates have different denominators
    c = flat_chart()
    t = c.integer_table(pt, 5)
    reference = symbolic_table(c, pt, 5)
    assert max(map(len, reference)) == 5 and t.top == 3
    for key in (1,), (1, 1):
        assert reference[key][:2] == (0, 0) and all(reference[key][2:])
    zero = (0,) * (c.r + 1)
    for key, ref in reference.items():
        assert fraction_vector(t.nums.get(key, zero), t.dens, t.scale) == ref


def partial_polys(c, max_order):
    """{sorted multi-index: coordinate polynomials of the partial}, by formal partials."""
    polys = {(): chart_polys(c)}
    for key in multi_indices(c.n, max_order)[1:]:
        polys[key] = [partial(p, key[-1]) for p in polys[key[:-1]]]
    return polys


def sparse_chart():
    """Sparse chart of degree 12, whose partials read monomials its coordinates lack."""
    n = 3
    coords = (
        MultiPoly.constant(n, F(1)),
        MultiPoly(n, {(9, 2, 0): F(3, 4), (0, 0, 7): F(-5, 6)}),
        MultiPoly(n, {(3, 5, 4): F(2, 9), (1, 0, 0): F(1)}),
        MultiPoly(n, {(0, 6, 6): F(-7, 2), (0, 1, 0): F(1)}),
        MultiPoly(n, {(0, 0, 1): F(1), (12, 0, 0): F(1, 11)}),
    )
    return polys_chart("sparse", n, len(coords) - 1, coords)


@pytest.mark.parametrize("pt", [(F(1, 2), F(-3, 7), F(5, 4)), (F(2, 9), F(-1), F(4, 3))])
def test_higher_order_table_after_order_one_at_the_same_point(pt):
    # the order-5 partials read monomials that neither the coordinates nor
    # their first partials have, so the chart meets them only after the
    # point's order-1 table was built; the point's coordinates have different
    # denominators, so every monomial value carries a power of q
    c = sparse_chart()
    monomials = {h: {e for key, polys in partial_polys(c, 5).items() if len(key) == h
                     for p in polys for e in p.terms} for h in (0, 1, 5)}
    assert monomials[5] - monomials[1] - monomials[0]
    low, high = c.integer_table(pt, 1), c.integer_table(pt, 5)
    assert low == sparse_chart().integer_table(pt, 1)
    assert high == sparse_chart().integer_table(pt, 5)
    zero = (0,) * (c.r + 1)
    for key, ref in symbolic_table(c, pt, 5).items():
        assert fraction_vector(high.nums.get(key, zero), high.dens, high.scale) == ref
    # another point's order-1 table, read after the order-5 one
    other = (F(-1, 3), F(2), F(1, 2))
    assert c.integer_table(other, 1) == sparse_chart().integer_table(other, 1)


def mixed_chart():
    """Quartic chart whose partials have one term on some coordinates and two on others."""
    n = 2
    coords = (
        MultiPoly.constant(n, F(1)),
        MultiPoly(n, {(1, 0): F(1)}),
        MultiPoly(n, {(2, 1): F(3, 5), (1, 3): F(-2)}),
        MultiPoly(n, {(0, 2): F(1, 3), (0, 1): F(4)}),
        MultiPoly(n, {(2, 2): F(7)}),
    )
    return polys_chart("mixed", n, len(coords) - 1, coords)


@pytest.mark.parametrize("pt", [(F(1, 2), F(-3, 7)), (F(5, 6), F(4)), (F(-2), F(1, 10))])
def test_table_mixing_one_term_and_multi_term_partials(pt):
    # some partials have at most one term on every coordinate (d^2/du1^2,
    # d^2/du2^2), others two on some coordinate (x, d/du1, d^2/du1du2), and
    # one table holds both kinds
    c = mixed_chart()
    widest = {key: max(len(p.terms) for p in polys) for key, polys in partial_polys(c, 4).items()}
    assert widest[(0, 0)] == widest[(1, 1)] == 1 and widest[()] == widest[(0, 1)] == 2
    t = c.integer_table(pt, 4)
    zero = (0,) * (c.r + 1)
    for key, ref in symbolic_table(c, pt, 4).items():
        assert fraction_vector(t.nums.get(key, zero), t.dens, t.scale) == ref


# the benchmark's chart kinds, each with the table order its checks read
BENCHMARK_CHARTS = {
    "segre:6:7": (lambda: make_segre(6, 7), 1),
    "veronese:10:2": (lambda: make_veronese(10, 2), 1),
    "veronese:2:12": (lambda: make_veronese(2, 12), 1),
    "random:4:3:14:3": (lambda: make_random_variety(4, 3, 14, 3), 5),
}


@pytest.mark.parametrize("name", list(BENCHMARK_CHARTS))
def test_benchmark_charts_match_symbolic_reference(name):
    # two integer points (q = 1, where each monomial value is its parent's
    # times one coordinate) and one rational point (the q-power pass too)
    make, h = BENCHMARK_CHARTS[name]
    c = make()
    rng = random.Random(26)
    pts = [tuple(F(rng.randint(-5, 5)) for _ in range(c.n)) for _ in range(2)]
    pts.append(tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(c.n)))
    assert math.lcm(*(x.denominator for x in pts[-1])) > 1
    zero = (0,) * (c.r + 1)
    for pt in pts:
        t = c.integer_table(pt, h)
        for key, ref in symbolic_table(c, pt, h).items():
            assert fraction_vector(t.nums.get(key, zero), t.dens, t.scale) == ref


def degree_cap_chart():
    """A chart of total degree MAX_DEGREE, 2 u1 u2^998 beside 1 and u1."""
    return Chart("cap", 2, 2, ((1, (1,), ((0, 0),)), (1, (1,), ((1, 0),)),
                               (1, (2,), ((1, MAX_DEGREE - 1),))))


@pytest.mark.parametrize("name", [*BENCHMARK_CHARTS, "sparse", "degree cap"])
def test_each_monomial_steps_from_an_earlier_parent(name):
    # entry i > 0 is its parent times u_v, v its lowest variable of positive
    # exponent, and the parent is entered first; the sparse and degree-cap
    # charts enter long chains of parents that no coordinate holds
    make, h = {**BENCHMARK_CHARTS, "sparse": (sparse_chart, 5),
               "degree cap": (degree_cap_chart, 1)}[name]
    c = make()
    c.integer_table((F(1),) * c.n, h)
    mons = c._mons
    assert len(mons) == len(mons.exps) == len(mons.degs) == len(mons.steps) + 1
    assert mons.exps[0] == (0,) * c.n and mons.degs[0] == 0
    for i, (p, v) in enumerate(mons.steps, start=1):
        e = mons.exps[i]
        assert p < i and e[v] > 0 and not any(e[:v])
        assert mons.exps[p] == tuple(k - (w == v) for w, k in enumerate(e))
        assert mons[e] == i and mons.degs[i] == sum(e)


@pytest.mark.parametrize("chart", [
    "Chart('neg', 2, 1, ((1, (1,), ((0, 0),)), (1, (1,), ((1, -1),))))",  # 1 and u1 / u2
    "Chart('neg', 1, 0, ((1, (1,), ((-1,),)),))",  # 1 / u
], ids=["u1/u2", "1/u"])
def test_negative_exponent_is_refused(chart):
    # lowering a negative exponent never reaches u^0, so a chart that took one
    # could grow its monomial list without end: build it in a child with
    # 512 MiB of address space and a timeout
    code = ("from terracini.chart import Chart\n"
            f"try:\n    {chart}\nexcept ValueError as exc:\n    print(exc)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (512 << 20, 512 << 20)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "coordinate form has a negative exponent\n", "")


def test_integral_fast_path_needs_unit_row_and_column_scales():
    # x and its partials are built without gcds only where every entry is an
    # integer: an integer-coefficient chart at an integer point.  A rational
    # point (row scale q^D > 1) and a fractional coefficient (a column scale
    # den_c > 1) must each still divide
    cases = [(make_veronese(2, 3), (F(2), F(-3)), lambda t: t.scale == 1 == max(t.dens)),
             (make_veronese(2, 3), (F(1, 2), F(-3, 5)), lambda t: t.scale > 1 == max(t.dens)),
             (flat_chart(), (F(2), F(-1)), lambda t: t.scale == 1 < min(t.dens))]
    for c, pt, scales in cases:
        assert scales(c.integer_table(pt, 1))
        for key, ref in symbolic_table(c, pt, 1).items():
            vec = c.derivative_vector(pt, key)
            assert vec == ref
            assert all(type(x) is F for x in vec)


# ---------------------------------------------------------------------------
# the contraction primitive against the ordered-tuple oracle
# ---------------------------------------------------------------------------

LAM = (F(1, 2), F(-3, 7), F(0))
MU = (F(2, 3), F(5), F(-1, 4))
E = unit_vectors(3)
CONTRACTIONS = {
    **{f"lam^{h}": [(1, (LAM,) * h)] for h in range(6)},
    **{f"e{i + 1}^{h}": [(1, (E[i],) * h)] for i in range(3) for h in range(1, 6)},
    "lam^3 mu": [(1, (LAM, LAM, LAM, MU))],
    "lam mu^2": [(1, (LAM, MU, MU))],
    "mu e3 e1 lam": [(1, (MU, E[2], E[0], LAM))],
    "quartic": [(1, (LAM,) * 4), (12, (LAM, LAM, MU)), (12, (MU, MU))],
    "quintic": [(1, (LAM,) * 5), (20, (LAM, LAM, LAM, MU)), (60, (LAM, MU, MU))],
    "cubic k=2": [(2, (MU, E[1])), (1, (LAM, LAM, E[1]))],
    "fraction coefficients": [(F(-3, 5), (LAM, MU)), (F(7, 2), ()), (-4, (E[2], MU, E[2]))],
}


@pytest.mark.parametrize("pt", [(F(1, 2), F(-3, 7), F(0)), (F(5, 3), F(-5, 6), F(1, 4))])
@pytest.mark.parametrize("make", [rational_chart, lambda: make_random_variety(3, 5, 9, 5)],
                         ids=["rational", "random"])
def test_contract_matches_ordered_tuple_oracle(make, pt):
    c = make()
    table = symbolic_table(c, pt, 5)
    itable = c.integer_table(pt, 5)
    assert itable.top == 5  # both charts are quintic
    for name, terms in CONTRACTIONS.items():
        got = contract(itable, terms)
        assert got == brute_contract(table, 3, c.r + 1, terms), name
        assert all(type(x) is F for x in got), name
    assert any(contract(itable, CONTRACTIONS["quintic"]))


def test_contract_rejects_orders_above_the_table_and_wrong_lengths():
    c = rational_chart()
    itable = c.integer_table((F(1), F(2), F(3)), 3)
    with pytest.raises(ValueError, match="above the table's order 3"):
        contract(itable, [(1, (LAM,) * 4)])
    with pytest.raises(ValueError, match="n=3"):
        contract(itable, [(1, (LAM, (F(1), F(0))))])


# ---------------------------------------------------------------------------
# the span contraction: all term lists of a span in one pass
# ---------------------------------------------------------------------------

LAM2 = (F(1, 5), F(0), F(-2, 9))  # denominators 5 and 9, which no other direction has
SPAN = [
    CONTRACTIONS["quintic"],  # LAM and MU are shared with the lists below
    [],
    [(F(3, 7), (LAM, MU)), (2, (E[1], LAM)), (1, ())],
    [(1, (LAM2, LAM2)), (F(-1, 2), (LAM2, E[0], MU))],  # the only list reading LAM2
    CONTRACTIONS["e3^3"] + [(5, (E[0], E[2]))],
    CONTRACTIONS["quartic"],
]


@pytest.mark.parametrize("make", [rational_chart, lambda: make_veronese(3, 2)],
                         ids=["quintic", "quadratic"])
def test_span_contraction_matches_the_oracle_per_term_list(make):
    # on the quadratic chart (top = 2) the terms of order 3 to 5 are dropped
    c = make()
    pt = (F(5, 3), F(-5, 6), F(1, 4))
    table = symbolic_table(c, pt, 5)
    itable = c.integer_table(pt, 5)
    rows, scales = contract_numerators(itable, SPAN)
    assert len(rows) == len(scales) == len(SPAN)
    for row, scale, terms in zip(rows, scales, SPAN):
        expected = brute_contract(table, 3, c.r + 1, terms)
        assert all(type(a) is int for a in row)
        assert fraction_vector(row, itable.dens, scale) == expected == contract(itable, terms)
    assert not any(rows[1]) and scales[1] == itable.scale
    assert any(rows[0]) == (itable.top == 5)


@pytest.mark.parametrize("make", [rational_chart, lambda: make_veronese(3, 2)],
                         ids=["quintic", "quadratic"])
def test_span_reads_the_table_of_the_order_its_terms_need(make):
    # LinearSpan.contracted reads pt's table of the most directions in any
    # term (0 when there are none) and contracts it as contract_numerators does
    pt = (F(5, 3), F(-5, 6), F(1, 4))
    t = make().integer_table(pt, 5)
    assert LinearSpan.contracted(make(), pt, SPAN) == LinearSpan(*contract_numerators(t, SPAN),
                                                                 t.dens)
    for lists, order in [(SPAN, 5), (SPAN[2:5], 3), (SPAN[2:3], 2), ([[], [(1, ())]], 0)]:
        c = make()
        LinearSpan.contracted(c, pt, lists)
        # an order-0 read is served from the kept table, so it shows that table's order
        assert c.integer_table(pt, 0).order == order


@pytest.mark.parametrize("at", range(3))
def test_span_contraction_checks_every_term_list(at):
    c = rational_chart()
    itable = c.integer_table((F(1), F(2), F(3)), 3)
    good = [[(1, (LAM,) * 3)], [], [(2, (MU, E[0]))]]
    for bad, message in [((1, (LAM,) * 4), "above the table's order 3"),
                         ((1, (LAM, (F(1), F(0)))), "n=3")]:
        lists = [list(terms) for terms in good]
        lists[at].append(bad)
        with pytest.raises(ValueError, match=message):
            contract_numerators(itable, lists)


# ---------------------------------------------------------------------------
# taylor blocks: the derivative vectors of order <= h that span osculating spaces
# ---------------------------------------------------------------------------

def test_taylor_block_h0():
    c = make_veronese(2, 2)
    pt = (F(1), F(1))
    block = generators(osculating_space(c, pt, 0))
    assert block == (c.derivative_vector(pt, ()),)


def test_taylor_block_count_and_smooth_rank():
    c = make_random_variety(3, 3, 9, 4)
    pt = (F(0), F(0), F(0))
    span = osculating_space(c, pt, 2)
    block = generators(span)
    assert len(block) == math.comb(3 + 2, 2)
    assert block == tuple(symbolic_table(c, pt, 2).values())
    order1 = span.rows[:4]  # multi-indices come by order: (), (0,), (1,), (2,), ...
    assert span_rank(order1) == 4  # n+1 on a smooth chart


def test_quadratic_veronese_fills_ambient_at_order_2():
    c = make_veronese(4, 2)
    pt = (F(1), F(-2), F(3), F(1))
    block = osculating_space(c, pt, 2).rows
    assert len(block) == 15 and span_rank(block) == 15


def test_multi_indices_sorted_and_complete():
    idx = multi_indices(2, 2)
    assert idx == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# jet normalization
# ---------------------------------------------------------------------------

def test_normalize_of_normalized_jet_is_identity():
    c = make_veronese(2, 2)
    jet = CurvilinearJet(base=(F(0), F(0)), lam=(F(1), F(0)), mu=(F(0), F(3)),
                         length=3)
    nc, nj = jet_normalize(c, jet)
    assert nc is c and nj is jet


def test_normalize_two_variable_swap_case():
    c = make_veronese(2, 2)
    jet = CurvilinearJet(base=(F(0), F(0)), lam=(F(0), F(1)), mu=(F(1), F(0)),
                         length=3)
    _, nj = jet_normalize(c, jet)
    assert nj.lam == (F(1), F(0))
    assert nj.mu[0] == 0
    assert nj.mu == (F(0), F(1))


def test_normalize_rejects_zero_lambda():
    with pytest.raises(DegenerateJetError):
        CurvilinearJet(base=(F(0),), lam=(F(0),), mu=(F(1),), length=3)


def test_normalized_jet_spans_same_tangent_dimension():
    rng = random.Random(41)
    c2 = make_veronese(4, 2)
    lams = [tuple(F(rng.randint(-4, 4)) for _ in range(4)) for _ in range(5)]
    lams.append((F(0), F(0), F(-3), F(2)))  # lambda_1 = 0: pivot is not 0
    jets = [(c2, CurvilinearJet(base=tuple(F(rng.randint(-2, 2)) for _ in range(4)),
                                lam=lam if any(lam) else (F(1), F(0), F(0), F(0)),
                                mu=tuple(F(rng.randint(-4, 4)) for _ in range(4)), length=3))
            for lam in lams]
    # degree 5, so the quartic and quintic generators do not vanish; both pivots
    c5 = make_random_variety(2, 5, 8, 7)
    jets += [(c5, CurvilinearJet((F(1, 2), F(-1)), lam, (F(3), F(-2)), 3))
             for lam in [(F(2), F(-1)), (F(0), F(3))]]
    for c, jet in jets:
        nc, nj = jet_normalize(c, jet)
        assert is_normalized(nj)
        # tangent_along reads the chart's own derivatives through the frame;
        # the substituted chart is the reference route, and both must give
        # the same generators
        via_contraction = tangent_along(c, jet)
        via_substitution = tangent_along(nc, nj)
        assert generators(via_contraction) == generators(via_substitution)
        assert zero_generators(via_contraction) == zero_generators(via_substitution)
        if c is c5:  # the quartic and quintic generators, the last two, are nonzero
            last = len(via_contraction.rows)
            assert {last - 2, last - 1}.isdisjoint(zero_generators(via_contraction))


# ---------------------------------------------------------------------------
# generic projection
# ---------------------------------------------------------------------------

def test_project_identity_when_target_equals_r():
    c = make_veronese(2, 3)
    assert project_generic(c, c.r, seed=1) is c


def test_project_rejects_bad_targets():
    c = make_veronese(2, 3)
    with pytest.raises(BadTargetError):
        project_generic(c, c.r + 1, seed=1)
    with pytest.raises(BadTargetError):
        project_generic(c, 2 * c.n - 1, seed=1)


def test_projection_keeps_jacobian_rank():
    c = make_veronese(2, 3)
    proj = project_generic(c, 8, seed=5)
    assert proj.r == 8
    for pt in [(F(0), F(0)), (F(2), F(-1)), (F(1), F(3))]:
        assert proj.jacobian_rank(pt) == 2


def cusp_chart():
    """(1, u^2, u^3), singular at u = 0 only."""
    return Chart("cusp", 1, 2, tuple((1, (1,), ((k,),)) for k in (0, 2, 3)))


def vanishing_partial_chart():
    """Random rational chart with no constant term; its first coordinate is free of u1."""
    rng = random.Random(44)

    def form(*exps):
        return rng.randint(1, 6), tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in exps), exps

    return Chart("vanishing-partial", 2, 3, (form((0, 1), (0, 2)), form((1, 0), (2, 0), (1, 1)),
                                             form((0, 1), (2, 1), (3, 0)),
                                             form((2, 2), (0, 3), (1, 0))))


SMOOTHNESS_CHARTS = {
    "veronese": lambda: make_veronese(2, 3),
    "projection": lambda: project_generic(make_veronese(2, 3), 6, seed=3),
    "cusp": cusp_chart,
    "vanishing-partial": vanishing_partial_chart,
    "tangent-through-x": tangent_through_x_chart,
}


@pytest.mark.parametrize("name", list(SMOOTHNESS_CHARTS))
def test_smoothness_matches_the_fraction_route(name):
    # every point of the sample lattice [-5, 5]^n
    c = SMOOTHNESS_CHARTS[name]()
    singular = []
    for pt in product(map(F, range(-5, 6)), repeat=c.n):
        smooth, rank = smoothness_reference(c, pt)
        assert c.jacobian_rank(pt) == rank
        assert c.is_smooth_at(pt) is smooth
        if not smooth:
            singular.append((pt, rank))
    if name == "veronese":
        assert singular == []
    elif name == "projection":
        assert all(es != ((0, 0),) for _, _, es in c.forms)  # no constant coordinate
    elif name == "cusp":
        assert singular == [((0,), 0)]
    elif name == "tangent-through-x":
        # smooth everywhere, though x = x_1 at u = 1 sends the test to the Jacobian
        assert singular == []
        assert [u for u in range(-5, 6) if c.tangent_rank((F(u),)) < 2] == [1]
    else:
        # the first partials span at the origin, but x vanishes there
        assert c.forms[0][2] == ((0, 1), (0, 2))
        assert ((0, 0), 2) in singular


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.id)
def test_tangent_rank_matches_the_fraction_route(entry):
    # alternating points, so each rank is taken afresh after a point change
    c = entry.build()
    pts = [tuple(map(F, vals[:c.n])) for vals in ((0, 0, 0, 0), (2, -1, 3, 1), (F(1, 2), 4, -5, 2))]
    for pt in pts + pts[::-1]:
        table = symbolic_table(c, pt, 1)
        assert c.tangent_rank(pt) == rref_rank([table[key] for key in multi_indices(c.n, 1)])


def random_forms_chart(seed: int) -> Chart:
    """Coordinates of one to three terms of degree <= 2: many charts are degenerate."""
    rng = random.Random(seed)
    n, r = rng.randint(1, 3), rng.randint(2, 6)
    exps = [e for e in product(range(3), repeat=n) if sum(e) <= 2]

    def form():
        picked = rng.sample(exps, min(len(exps), rng.choice((1, 1, 2, 3))))
        return rng.randint(1, 4), tuple(rng.choice((-2, -1, 1, 2)) for _ in picked), tuple(picked)

    return Chart(f"forms-{seed}", n, r, tuple(form() for _ in range(r + 1)))


def test_nondegeneracy_matches_the_exponent_route_on_the_catalog():
    for entry in load_catalog():
        c = entry.build()
        assert c.is_nondegenerate() is nondegenerate_reference(c) is True, entry.id


def test_nondegeneracy_matches_the_exponent_route_on_random_forms():
    seen = set()
    for seed in range(20):
        c = random_forms_chart(seed)
        verdict = c.is_nondegenerate()
        assert verdict is nondegenerate_reference(c), seed
        seen.add((verdict, c._dcache[()][2] is None))  # cuts None: the gather form
    # both verdicts, and a degenerate chart in each flat form
    assert {True, False} == {v for v, _ in seen} and {(False, True), (False, False)} <= seen


def test_nondegeneracy_of_special_charts():
    veronese = make_veronese(2, 2)
    dense = make_random_variety(2, 3, 7, 4)
    zero = Chart("zero-coordinate", 2, 6, veronese.forms + ((1, (), ()),))
    equal = Chart("equal-coordinates", 2, 8, dense.forms + (dense.forms[3],))
    projected = project_generic(make_veronese(2, 3), 8, seed=5)
    assert [c.is_nondegenerate() for c in (zero, equal, projected)] == [False, False, True]
    assert [nondegenerate_reference(c) for c in (zero, equal, projected)] == [False, False, True]
    # the partials of u1 u2^2 and u1^2 u2 read u1 u2, which x does not: the
    # monomial list outgrows x's monomials, and their rows gain zero columns
    mixed = Chart("mixed", 2, 4, tuple((1, (1,), (e,))
                                       for e in ((0, 0), (1, 0), (0, 1), (1, 2), (2, 1))))
    for c, grows in ((mixed, True), (veronese, False), (dense, False), (equal, False)):
        before = len(c._mons.exps)
        c.integer_table((F(1), F(-2)), 4)
        assert (len(c._mons.exps) > before) is grows
        assert c.is_nondegenerate() is nondegenerate_reference(c) is (c is not equal)


def test_projection_preserves_span_ranks():
    rng = random.Random(42)
    c = make_veronese(2, 3)
    proj = project_generic(c, 8, seed=7)
    for _ in range(5):
        pt = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        before = osculating_space(c, pt, 2).rows
        after = osculating_space(proj, pt, 2).rows
        assert span_rank(before) >= span_rank(after)
        # a generic projection to P^8 cannot lose a 6-dimensional span
        assert span_rank(after) == min(span_rank(before), 9)


def test_projection_commutes_with_differentiation():
    c = make_veronese(2, 3)
    proj = project_generic(c, 8, seed=9)
    # the Veronese coords are distinct monomials, so the projection matrix can
    # be read back off the projected coordinate polynomials
    mons = [es[0] for _, _, es in c.forms]
    pmat = [[q.coefficient(e) for e in mons] for q in chart_polys(proj)]
    for pt in [(F(2), F(1)), (F(-1), F(3))]:
        for idx in [(), (0,), (1,), (0, 1), (0, 0, 1)]:
            lifted = c.derivative_vector(pt, idx)
            direct = proj.derivative_vector(pt, idx)
            applied = tuple(sum(row[j] * lifted[j] for j in range(len(lifted)))
                            for row in pmat)
            assert direct == applied


# ---------------------------------------------------------------------------
# curve derivatives and the composition oracle
# ---------------------------------------------------------------------------

def test_coordinate_curve_derivatives_are_pure_partials():
    c = make_random_variety(2, 5, 8, 3)
    n = 2
    zero = (F(0), F(0))
    jet = FiveJet(base=zero, lam=(F(1), F(0)), mu=zero, nu=zero, rho=zero,
                  sigma=zero)
    d1, d2, d3, d4, d5 = curve_derivatives(c, jet)
    assert d1 == c.derivative_vector(zero, (0,))
    assert d2 == c.derivative_vector(zero, (0, 0))
    assert d3 == c.derivative_vector(zero, (0, 0, 0))
    assert d4 == c.derivative_vector(zero, (0, 0, 0, 0))
    assert d5 == c.derivative_vector(zero, (0, 0, 0, 0, 0))


def test_third_derivative_picks_up_6_nu():
    c = make_random_variety(2, 4, 7, 8)
    zero = (F(0), F(0))
    nu = (F(3), F(-2))
    base_jet = FiveJet(base=zero, lam=(F(1), F(2)), mu=(F(1), F(1)), nu=zero,
                       rho=zero, sigma=zero)
    nu_jet = FiveJet(base=zero, lam=(F(1), F(2)), mu=(F(1), F(1)), nu=nu,
                     rho=zero, sigma=zero)
    _, _, d3a, _, _ = curve_derivatives(c, base_jet)
    _, _, d3b, _, _ = curve_derivatives(c, nu_jet)
    x1 = c.derivative_vector(zero, (0,))
    x2 = c.derivative_vector(zero, (1,))
    expect = tuple(a + 6 * (nu[0] * b1 + nu[1] * b2)
                   for a, b1, b2 in zip(d3a, x1, x2))
    assert d3b == expect


def test_taylor_consistency_against_composition():
    rng = random.Random(43)
    for n, d, r, seed in [(1, 5, 5, 1), (2, 3, 6, 2), (3, 3, 9, 3)]:
        c = make_random_variety(n, d, r, seed)
        jet = rand_fivejet(rng, n)
        derivs = curve_derivatives(c, jet)
        series = composed_curve_series(c, jet)
        for k in range(1, 6):
            assembled = derivs[k - 1]
            from_series = tuple(math.factorial(k) * s[k] for s in series)
            assert assembled == from_series


@pytest.mark.parametrize("n, r, seed", [(1, 5, 1), (2, 8, 7), (3, 9, 3)])
def test_jet_terms_match_composition_with_partials(n, r, seed):
    # d_v (d/dt)^m x(u(t)) at t = 0 is m! times the t^m coefficient of the
    # directional derivative sum_i v_i x_i composed with u(t)
    rng = random.Random(seed)
    c = make_random_variety(n, 5, r, seed)

    def vec():
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))

    for m in range(6):
        base, v = vec(), vec()
        coeffs = [vec() for _ in range(rng.randint(1, 5))]
        curve = [(base[i],) + tuple(k[i] for k in coeffs) + (F(0),) * m for i in range(n)]
        t = c.integer_table(base, 6)
        coords = chart_polys(c)
        polys = {(): coords,
                 (v,): [sum((partial(p, i) * v[i] for i in range(n)), MultiPoly.zero(n))
                        for p in coords]}
        for along, ps in polys.items():
            expected = tuple(math.factorial(m) * poly_compose_curve(p, curve, m)[m] for p in ps)
            assert contract(t, jet_terms(m, coeffs, along)) == expected, (m, along)


# ---------------------------------------------------------------------------
# chart JSON format
# ---------------------------------------------------------------------------

def test_chart_json_roundtrip_bit_exact(tmp_path):
    c = make_random_variety(2, 3, 6, 12)
    path = tmp_path / "chart.json"
    save_chart(c, path)
    c2 = load_chart(path)
    assert c2.label == c.label and c2.n == c.n and c2.r == c.r
    assert c2.forms == c.forms
    # a second round trip produces identical bytes
    path2 = tmp_path / "chart2.json"
    save_chart(c2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_chart_json_big_integers():
    big = 10 ** 50 + 7
    c = Chart("big", 1, 1, ((3, (big,), ((0,),)), (1, (1,), ((1,),))))
    c2 = obj_to_chart(chart_to_obj(c))
    assert c2.forms[0] == (3, (big,), ((0,),))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o.pop("label"), "label"),
    (lambda o: o.__setitem__("label", None), "label must be a string"),
    (lambda o: o.__setitem__("label", 5), "label must be a string"),
    (lambda o: o.__setitem__("label", [1, 2]), "label must be a string"),
    (lambda o: o.__setitem__("n", 0), "n must be"),
    (lambda o: o.__setitem__("coords", []), "polynomials"),
    (lambda o: o["coords"][0].__setitem__(0, {"exp": [1], "num": "x", "den": "1"}),
     "num/den"),
    (lambda o: o["coords"][0][0].__setitem__("exp", [1, 2, 3]), "exp"),
    # JSON booleans are Python ints, and floats would truncate through int()
    (lambda o: o.__setitem__("n", True), "n must be a positive integer"),
    (lambda o: o.__setitem__("r", True), "r must be a positive integer"),
    (lambda o: o["coords"][1][0].__setitem__("exp", [True]), "nonnegative integers"),
    (lambda o: o["coords"][1][0].__setitem__("num", 2.7), "decimal-string"),
    (lambda o: o["coords"][1][0].__setitem__("den", 1), "needs decimal-string num/den"),
    # a zero den is the term's error, before the chart's lcm of 0 reaches Chart
    (lambda o: o["coords"][0][0].__setitem__("den", "0"), r"coords\[0\]\[0\]\.den must be positive$"),
    (lambda o: o["coords"][1][0].__setitem__("exp", [MAX_DEGREE + 1]),
     f"total degree {MAX_DEGREE + 1}, above the cap of {MAX_DEGREE}"),
    # two terms with one exponent: the reader would keep only the last
    (lambda o: o["coords"][0].append({"exp": [0], "num": "2", "den": "1"}),
     r"coords\[0\]\[1\] repeats the exponent \[0\]"),
])
def test_chart_json_errors(mutate, fragment):
    obj = chart_to_obj(make_veronese(1, 2))
    mutate(obj)
    with pytest.raises(ChartFormatError, match=fragment):
        obj_to_chart(obj)


def test_chart_json_accepts_the_degree_cap():
    obj = chart_to_obj(make_veronese(1, 2))
    obj["coords"][2][0]["exp"] = [MAX_DEGREE]
    assert obj_to_chart(obj).max_coord_degree() == MAX_DEGREE


def test_zero_and_constant_charts_have_degree_0():
    zero = Chart("zero", 1, 1, ((1, (), ()), (1, (), ())))
    constant = Chart("constant", 1, 1, ((1, (3,), ((0,),)), (1, (), ())))
    assert zero.max_coord_degree() == constant.max_coord_degree() == 0


@pytest.mark.parametrize("make, entries", [(lambda: make_veronese(998, 1), 997_002),
                                           (lambda: make_segre(1, 499), 500_000)],
                         ids=["veronese:998:1", "segre:1:499"])
def test_largest_constructor_charts_fit_the_monomial_cap(make, entries):
    chart = make()
    assert len(chart._mons.exps) * chart.n == entries < MAX_MONOMIAL_ENTRIES


def test_monomial_list_may_reach_the_cap_but_not_pass_it(monkeypatch):
    # u_1^2 u_2 enters its parents u_1 u_2 and u_2 after u^0: 4 monomials of n = 2
    forms = ((1, (1,), ((2, 1),)), (1, (1,), ((0, 0),)))
    monkeypatch.setattr("terracini.chart.MAX_MONOMIAL_ENTRIES", 8)
    assert len(Chart("at-cap", 2, 1, forms)._mons.exps) * 2 == 8
    monkeypatch.setattr("terracini.chart.MAX_MONOMIAL_ENTRIES", 7)
    with pytest.raises(TooLargeError, match="would pass the cap of 7 exponent entries"):
        Chart("past-cap", 2, 1, forms)
