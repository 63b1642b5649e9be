"""Charts, jets, derivative extraction, normalization and projection."""

import math
import random
from fractions import Fraction as F

import pytest

from terracini.catalog import make_random_variety, make_veronese
from terracini.chart import (
    BadTargetError,
    Chart,
    ChartFormatError,
    CurvilinearJet,
    DegenerateJetError,
    FiveJet,
    chart_to_obj,
    contract,
    curve_derivatives,
    load_chart,
    multi_indices,
    normalized_derivatives,
    obj_to_chart,
    project_generic,
    save_chart,
    unit_vectors,
)
from terracini.curvilinear import tangent_along
from terracini.exactlin import BadIndexError, MultiPoly, span_rank
from terracini.secants import osculating_space
from oracles import (
    brute_contract,
    composed_curve_series,
    is_normalized,
    jet_normalize,
    symbolic_table,
)


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
    assert c.derivative_vector(pt, ()) == tuple(p.eval(pt) for p in c.coords)


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
    return Chart("rational", n, len(coords) - 1, coords)


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
        assert tuple(F(num, den) for num, den in zip(nums, itable.dens)) == ref
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


def test_order_one_memo_serves_the_point_asked_for():
    # the chart keeps the order-1 table of the last point; every read must
    # still give that point's derivatives, however the point is spelled
    c = rational_chart()
    a, b = (F(1, 2), F(-3, 7), F(0)), (F(2), F(-1), F(3))
    refs = {a: symbolic_table(c, a, 1), b: symbolic_table(c, b, 1)}
    zero = (0,) * (c.r + 1)

    def check(pt, ref):
        t = c.integer_table(pt, 1)
        assert t.order == 1
        for idx, vec in ref.items():
            assert tuple(F(x, d) for x, d in zip(t.nums.get(idx, zero), t.dens)) == vec
            assert c.derivative_vector(pt, idx) == vec
            assert all(type(x) is F for x in c.derivative_vector(pt, idx))

    for pt in (a, b, a):
        check(pt, refs[pt])
    for spelling in [(2, -1, 3), (F(2), F(-1), F(3)), [2, -1, 3], [F(2), F(-1), F(3)]]:
        check(spelling, refs[b])
    # a higher-order table at another point leaves the order-1 reads intact
    assert c.integer_table(a, 3).order == 3
    check(b, refs[b])
    check(a, refs[a])


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


def test_contract_symbolic_scalars_evaluate_to_numeric_contraction():
    c = make_random_variety(3, 5, 9, 5)
    pt = (F(5, 3), F(-5, 6), F(1, 4))
    itable = c.integer_table(pt, 5)
    lam = [MultiPoly.variable(6, i) for i in range(3)]
    mu = [MultiPoly.variable(6, 3 + i) for i in range(3)]
    terms = [(1, (lam,) * 5), (20, (lam, lam, lam, mu)), (60, (lam, mu, mu)),
             (2, (mu, E[1])), (F(1, 3), (lam, E[0]))]
    numeric = [(k, tuple(LAM if v is lam else MU if v is mu else v for v in vs))
               for k, vs in terms]
    symbolic = contract(itable, terms)
    assert any(isinstance(x, MultiPoly) and not x.is_zero() for x in symbolic)
    values = [x.eval(LAM + MU) if isinstance(x, MultiPoly) else x for x in symbolic]
    assert tuple(values) == contract(itable, numeric)


def test_contract_rejects_orders_above_the_table_and_wrong_lengths():
    c = rational_chart()
    itable = c.integer_table((F(1), F(2), F(3)), 3)
    with pytest.raises(ValueError, match="above the table's order 3"):
        contract(itable, [(1, (LAM,) * 4)])
    with pytest.raises(ValueError, match="n=3"):
        contract(itable, [(1, (LAM, (F(1), F(0))))])


# ---------------------------------------------------------------------------
# taylor blocks: the derivative vectors of order <= h that span osculating spaces
# ---------------------------------------------------------------------------

def test_taylor_block_h0():
    c = make_veronese(2, 2)
    pt = (F(1), F(1))
    block = osculating_space(c, pt, 0).generators
    assert block == (c.derivative_vector(pt, ()),)


def test_taylor_block_count_and_smooth_rank():
    c = make_random_variety(3, 3, 9, 4)
    pt = (F(0), F(0), F(0))
    block = osculating_space(c, pt, 2).generators
    assert len(block) == math.comb(3 + 2, 2)
    assert block == tuple(symbolic_table(c, pt, 2).values())
    order1 = block[:4]  # multi-indices come by order: (), (0,), (1,), (2,), ...
    assert span_rank(order1) == 4  # n+1 on a smooth chart


def test_quadratic_veronese_fills_ambient_at_order_2():
    c = make_veronese(4, 2)
    pt = (F(1), F(-2), F(3), F(1))
    block = osculating_space(c, pt, 2).generators
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
    c = make_veronese(4, 2)
    lams = [tuple(F(rng.randint(-4, 4)) for _ in range(4)) for _ in range(5)]
    lams.append((F(0), F(0), F(-3), F(2)))  # lambda_1 = 0: pivot is not 0
    for lam in lams:
        if all(x == 0 for x in lam):
            lam = (F(1), F(0), F(0), F(0))
        jet = CurvilinearJet(base=tuple(F(rng.randint(-2, 2)) for _ in range(4)),
                             lam=lam,
                             mu=tuple(F(rng.randint(-4, 4)) for _ in range(4)),
                             length=3)
        nc, nj = jet_normalize(c, jet)
        assert is_normalized(nj)
        # tangent_along contracts the chart's own derivatives; the substituted
        # chart is the reference route, and both must give the same generators
        via_contraction = tangent_along(c, jet)
        via_substitution = tangent_along(nc, nj)
        assert via_contraction.jet == via_substitution.jet == nj
        assert via_contraction.span.generators == via_substitution.span.generators
        assert via_contraction.zero_generators == via_substitution.zero_generators


@pytest.mark.parametrize("lam", [(F(2), F(-1)), (F(0), F(3))])
def test_contracted_derivatives_match_substituted_chart(lam):
    # degree 5, so the quartic and quintic w-derivatives are nonzero
    c = make_random_variety(2, 5, 8, 7)
    jet = CurvilinearJet(base=(F(1, 2), F(-1)), lam=lam, mu=(F(3), F(-2)),
                         length=3)
    nc, nj = jet_normalize(c, jet)
    njet, cw = normalized_derivatives(c, jet)
    assert njet == nj
    e = unit_vectors(2)

    def dw(*idx):  # the w-index idx as one term over unit directions
        return cw([(1, tuple(e[i] for i in idx))])

    reference = symbolic_table(nc, nj.base, 5)
    assert any(reference[idx] != (F(0),) * (c.r + 1) for idx in multi_indices(2, 5)
               if len(idx) == 5)
    for idx, vec in reference.items():
        assert dw(*idx) == vec, idx
        assert dw(*reversed(idx)) == vec, idx


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


def test_projection_preserves_span_ranks():
    rng = random.Random(42)
    c = make_veronese(2, 3)
    proj = project_generic(c, 8, seed=7)
    for _ in range(5):
        pt = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        before = osculating_space(c, pt, 2).generators
        after = osculating_space(proj, pt, 2).generators
        assert span_rank(before) >= span_rank(after)
        # a generic projection to P^8 cannot lose a 6-dimensional span
        assert span_rank(after) == min(span_rank(before), 9)


def test_projection_commutes_with_differentiation():
    c = make_veronese(2, 3)
    proj = project_generic(c, 8, seed=9)
    # the Veronese coords are distinct monomials, so the projection matrix can
    # be read back off the projected coordinate polynomials
    mons = [next(iter(p.terms)) for p in c.coords]
    pmat = [[q.terms.get(e, F(0)) for e in mons] for q in proj.coords]
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


# ---------------------------------------------------------------------------
# chart JSON format
# ---------------------------------------------------------------------------

def test_chart_json_roundtrip_bit_exact(tmp_path):
    c = make_random_variety(2, 3, 6, 12)
    path = tmp_path / "chart.json"
    save_chart(c, path)
    c2 = load_chart(path)
    assert c2.label == c.label and c2.n == c.n and c2.r == c.r
    assert all(p == q for p, q in zip(c.coords, c2.coords))
    # a second round trip produces identical bytes
    path2 = tmp_path / "chart2.json"
    save_chart(c2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_chart_json_big_integers():
    big = 10 ** 50 + 7
    c = Chart("big", 1, 1, (MultiPoly.constant(1, F(big, 3)),
                            MultiPoly.variable(1, 0)))
    c2 = obj_to_chart(chart_to_obj(c))
    assert c2.coords[0].coefficient((0,)) == F(big, 3)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o.pop("label"), "label"),
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
])
def test_chart_json_errors(mutate, fragment):
    obj = chart_to_obj(make_veronese(1, 2))
    mutate(obj)
    with pytest.raises(ChartFormatError, match=fragment):
        obj_to_chart(obj)
