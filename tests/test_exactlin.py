"""Exact linear algebra and polynomial layer."""

import random
from fractions import Fraction as F

import pytest

from terracini import exactlin
from terracini._kernels import bareiss_echelon, mod_rank
from terracini.exactlin import (
    SCREEN_PRIME,
    BadIndexError,
    Matrix,
    NotSquareError,
    integer_det,
    randints,
    span_rank,
    sz_zero_test,
)
from oracles import (
    MultiPoly,
    OrderMismatchError,
    dot,
    gauss_det,
    partial,
    poly_compose_curve,
    poly_det,
    rank_exact,
    rank_modular,
    rref_rank,
)


def random_matrix(rng, nr, nc, lo=-9, hi=9):
    return Matrix([[F(rng.randint(lo, hi)) for _ in range(nc)] for _ in range(nr)])


def identity(n):
    return Matrix([[F(int(i == j)) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert rank_exact(identity(3)) == 3


def test_rank_proportional_rows():
    assert rank_exact(Matrix([[F(1), F(2)], [F(2), F(4)]])) == 1


def test_rank_matches_independent_oracle_on_seeded_matrices():
    rng = random.Random(20)
    for _ in range(30):
        m = random_matrix(rng, 6, 6)
        assert rank_exact(m) == rref_rank(m.entries)


def test_rank_with_rational_entries():
    rng = random.Random(21)
    for _ in range(20):
        m = Matrix([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
                    for _ in range(4)])
        assert rank_exact(m) == rref_rank(m.entries)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(22)
    for _ in range(20):
        m = random_matrix(rng, 5, 6)
        rank = rank_exact(m)
        rows = list(m.entries)
        rng.shuffle(rows)
        i = rng.randrange(len(rows))
        c = F(rng.choice([1, 2, 3, 5, -7]), rng.choice([1, 2, 3]))
        rows[i] = tuple(c * x for x in rows[i])
        assert rank_exact(Matrix(rows)) == rank
        assert rank_exact(Matrix(list(zip(*rows)))) == rank


def test_span_rank_agrees_with_rank():
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc)
        assert span_rank([[x.numerator for x in r] for r in m.entries]) == rank_exact(m)


@pytest.mark.parametrize("row, rank", [
    ([3, -7, 0], 1),
    ([], 0),
    ([0, F(1, 2)], None),
    ([F(2, 3), 5, F(-1, 4)], None),
    ([True, 2], 1),
    ([False, F(3)], None),
], ids=["ints", "empty", "int-and-fraction", "fractions", "bool", "bool-and-fraction"])
def test_span_rank_takes_integer_rows_only(row, rank):
    # a row holding a Fraction is refused, not cleared
    if rank is None:
        with pytest.raises(TypeError):
            span_rank([row])
    else:
        assert span_rank([row]) == rank


def test_span_rank_decides_a_screen_miss_by_bareiss(monkeypatch):
    # full rank over Q, rank 1 modulo the screen prime
    rows = [[SCREEN_PRIME, 0], [0, 1]]
    assert mod_rank(rows, SCREEN_PRIME) == 1
    calls = []

    def recording(r):
        calls.append(r)
        return bareiss_echelon(r)

    monkeypatch.setattr(exactlin, "bareiss_echelon", recording)
    assert span_rank(rows) == 2
    assert calls == [rows]


# ---------------------------------------------------------------------------
# modular rank
# ---------------------------------------------------------------------------

def test_rank_modular_identity():
    assert rank_modular(identity(4), 101) == 4


def test_rank_modular_proportional_rows():
    assert rank_modular(Matrix([[F(1), F(2)], [F(2), F(4)]]), 101) == 1


def test_rank_modular_agrees_with_exact_on_31bit_prime():
    rng = random.Random(24)
    p = (1 << 31) - 1
    agree = 0
    for _ in range(100):
        m = random_matrix(rng, 6, 6)
        if rank_modular(m, p) == rank_exact(m):
            agree += 1
    assert agree == 100


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def random_ints(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_identity_and_repeated_column():
    assert integer_det([[int(i == j) for j in range(5)] for i in range(5)]) == 1
    assert integer_det([[1, 1, 2], [3, 3, 4], [5, 5, 6]]) == 0


def test_det_matches_pivot_product_oracle():
    rng = random.Random(25)
    for _ in range(25):
        rows = random_ints(rng, 5)
        assert integer_det(rows) == gauss_det(rows)


def test_det_zero_iff_rank_deficient():
    rng = random.Random(26)
    for _ in range(25):
        rows = random_ints(rng, 4, -3, 3)
        assert (integer_det(rows) == 0) == (rank_exact(Matrix(rows)) < 4)


def test_det_not_square():
    with pytest.raises(NotSquareError):
        integer_det([[1, 2]])


@pytest.mark.parametrize("at", range(5))
def test_zero_row_determinant_skips_elimination(at):
    # Bareiss skips a zero row at every step (its entry in the pivot column
    # is 0) and stops short of full rank, so the determinant is 0
    rng = random.Random(27 + at)
    ints = [[rng.choice([-7, -2, 1, 3, 8]) for _ in range(5)] for _ in range(5)]
    ints[at] = [0] * 5
    assert integer_det(ints) == gauss_det(ints) == 0


def test_determinants_without_a_zero_row_match_the_oracle(monkeypatch):
    # Bareiss decides every one of them, singular ones (a repeated row) included
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return bareiss_echelon(rows)

    monkeypatch.setattr(exactlin, "bareiss_echelon", counted)
    rng = random.Random(28)
    for size in range(2, 7):
        for _ in range(4):
            ints = [[rng.choice([-9, -4, -1, 1, 2, 5, 9]) for _ in range(size)]
                    for _ in range(size)]
            assert integer_det(ints) == gauss_det(ints)
        ints[-1] = ints[0]
        assert integer_det(ints) == 0
    assert calls == [size for size in range(2, 7) for _ in range(5)]


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_identity_empty():
    assert identity(3).right_nullspace() == []


def test_nullspace_zero_matrix_full():
    basis = Matrix([[F(0)] * 3, [F(0)] * 3]).right_nullspace()
    assert len(basis) == 3
    assert rref_rank(basis) == 3


def test_left_nullspace_of_veronese_tangent_columns():
    # columns = tangent vectors of the quadratic Veronese surface chart at a
    # point: the annihilating covectors form a basis of size 6 - 3 = 3
    from terracini.catalog import make_veronese

    c = make_veronese(2, 2)
    pt = (F(1), F(2))
    cols = [c.derivative_vector(pt, ())] + \
        [c.derivative_vector(pt, (i,)) for i in range(2)]
    # the covectors a with a M = 0 are the right kernel of M's transpose
    covs = Matrix.from_rows(cols).right_nullspace()
    assert len(covs) == 3
    for a in covs:
        for v in cols:
            assert dot(a, v) == 0


def test_nullspace_annihilates_and_has_right_size():
    rng = random.Random(27)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc, -4, 4)
        basis = m.right_nullspace()
        assert len(basis) == nc - rank_exact(m)
        for v in basis:
            for row in m.entries:
                assert dot(row, v) == 0
        if basis:
            assert rref_rank(basis) == len(basis)


def test_nullspace_of_rows_with_different_denominators():
    # each row is cleared by the lcm of its own denominators before Bareiss
    rng = random.Random(29)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 9)) for _ in range(nc)]
                for _ in range(nr)]
        basis = Matrix(rows).right_nullspace()
        assert len(basis) == nc - rref_rank(rows)
        for v in basis:
            for row in rows:
                assert dot(row, v) == 0


# ---------------------------------------------------------------------------
# polynomials (formal partials are the reference route in oracles)
# ---------------------------------------------------------------------------

def test_partial_basic():
    # d/du1 (u1^2 u2) = 2 u1 u2
    p = MultiPoly(2, {(2, 1): 1})
    assert partial(p, 0) == MultiPoly(2, {(1, 1): 2})


def test_partial_of_constant_is_zero():
    assert partial(MultiPoly.constant(3, 5), 1).is_zero()


def test_mixed_partials_commute():
    rng = random.Random(28)
    for _ in range(20):
        terms = {}
        for _ in range(6):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = F(rng.randint(-5, 5))
        p = MultiPoly(3, terms)
        assert partial(partial(p, 0), 2) == partial(partial(p, 2), 0)


def test_partial_bad_index():
    with pytest.raises(BadIndexError):
        partial(MultiPoly.constant(2, 1), 2)


def test_poly_eval_and_arithmetic():
    u0 = MultiPoly.variable(2, 0)
    u1 = MultiPoly.variable(2, 1)
    p = (u0 + u1) * (u0 - u1)
    assert p == u0 * u0 - u1 * u1
    assert p.eval((F(3), F(2))) == 5


def test_divexact_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.randint(0, 2) for _ in range(2))
                c = rng.randint(-4, 4)
                if c:
                    terms[e] = F(c)
            return MultiPoly(2, terms)

        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a


def test_poly_det_matches_numeric_evaluation():
    rng = random.Random(30)
    u = [MultiPoly.variable(2, i) for i in range(2)]
    rows = [[u[0] + 1, u[1] * 2 - u[0]], [u[0] * u[1], u[0] - 3]]
    d = poly_det(rows)
    for _ in range(10):
        pt = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        assert d.eval(pt) == gauss_det([[e.eval(pt) for e in row] for row in rows])


def test_poly_det_zero_column():
    z = MultiPoly.zero(1)
    one = MultiPoly.constant(1, 1)
    assert poly_det([[z, one], [z, one]]).is_zero()


# ---------------------------------------------------------------------------
# series composition (the reference route in oracles)
# ---------------------------------------------------------------------------

def test_compose_linear_curve():
    p = MultiPoly.variable(1, 0)
    out = poly_compose_curve(p, [(F(0), F(1), F(0), F(0))], 3)
    assert out == (F(0), F(1), F(0), F(0))


def test_compose_square_of_t_plus_t2():
    # (t + t^2)^2 = t^2 + 2 t^3 + ...
    p = MultiPoly(1, {(2,): 1})
    out = poly_compose_curve(p, [(F(0), F(1), F(1), F(0))], 3)
    assert out == (F(0), F(0), F(1), F(2))


def test_compose_order_mismatch():
    p = MultiPoly.variable(1, 0)
    with pytest.raises(OrderMismatchError):
        poly_compose_curve(p, [(F(0), F(1))], 3)
    with pytest.raises(OrderMismatchError):
        poly_compose_curve(MultiPoly.variable(2, 0), [(F(0),) * 4], 3)


def test_compose_matches_brute_force_expansion():
    rng = random.Random(31)
    for _ in range(10):
        terms = {}
        for _ in range(5):
            e = tuple(rng.randint(0, 2) for _ in range(2))
            terms[e] = F(rng.randint(-4, 4))
        p = MultiPoly(2, terms)
        curve = [tuple(F(rng.randint(-3, 3)) for _ in range(6)) for _ in range(2)]
        got = poly_compose_curve(p, curve, 5)
        # oracle: symbolic substitution into a univariate polynomial in t
        t_poly = MultiPoly.zero(1)
        comps = []
        for s in curve:
            cp = MultiPoly.zero(1)
            for k, c in enumerate(s):
                cp = cp + MultiPoly(1, {(k,): c})
            comps.append(cp)
        for e, c in p.terms.items():
            term = MultiPoly.constant(1, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * comps[i]
            t_poly = t_poly + term
        expect = tuple(t_poly.coefficient((k,)) for k in range(6))
        assert got == expect


# ---------------------------------------------------------------------------
# Schwartz-Zippel
# ---------------------------------------------------------------------------

def test_sz_constant_zero():
    res = sz_zero_test(lambda pt: F(0), 3, degree_bound=4, trials=8, seed=1)
    assert res.identically_zero
    assert res.error_bound <= F(1, 32) ** 8


def test_sz_detects_single_variable():
    res = sz_zero_test(lambda pt: F(pt[0]), 2, degree_bound=1, trials=20, seed=1)
    assert not res.identically_zero
    assert res.witness is not None and res.witness_value == res.witness[0]


def test_sz_sampling_is_seed_deterministic():
    calls_a, calls_b = [], []
    sz_zero_test(lambda pt: calls_a.append(pt) or F(0), 2, 3, trials=5, seed=9)
    sz_zero_test(lambda pt: calls_b.append(pt) or F(0), 2, 3, trials=5, seed=9)
    assert calls_a == calls_b


# ---------------------------------------------------------------------------
# the seeded draw
# ---------------------------------------------------------------------------

# (lo, hi, seed): the first 12 draws, then the next getrandbits(16), which
# pins how many bits the draws took.  Widths 1 and 16 separate k =
# bit_length(n) from bit_length(n - 1); every width the package draws is odd.
PINNED_DRAWS = {
    (3, 3, 0): ([3] * 12, 9158),
    (3, 3, 1009): ([3] * 12, 12861),
    (1, 5, 0): ([4, 4, 1, 3, 5, 4, 4, 3, 4, 3, 5, 2], 33075),
    (1, 5, 1009): ([2, 1, 4, 1, 5, 4, 2, 5, 2, 2, 3, 1], 2071),
    (-5, 5, 0): ([1, 1, -5, -1, 3, 2, 1, -1, 2, 0, 4, -2], 33075),
    (-5, 5, 1009): ([-3, -5, 2, -4, 3, 2, -3, 3, -2, -2, -1, -4], 2071),
    (0, 15, 0): ([12, 13, 1, 8, 15, 12, 9, 15, 11, 6, 4, 9], 9158),
    (0, 15, 1009): ([5, 0, 15, 2, 15, 5, 7, 6, 8, 2, 1, 6], 12861),
    (-9, 9, 0): ([3, 4, -8, -1, 7, 6, 3, 0, 6, 2, 9, -3], 33075),
    (-9, 9, 1009): ([-4, -9, 6, -7, 7, 6, -4, 7, -2, -3, -1, -7], 2071),
}


@pytest.mark.parametrize("lo, hi, seed", list(PINNED_DRAWS), ids=str)
def test_randints_draws_the_pinned_stream(lo, hi, seed):
    rng = random.Random(seed)
    draws, next_bits = PINNED_DRAWS[lo, hi, seed]
    assert randints(rng, lo, hi, 12) == draws
    assert rng.getrandbits(16) == next_bits


def test_sz_zero_test_draws_the_pinned_points():
    seen = []
    res = sz_zero_test(lambda pt: seen.append(pt) or F(0), 3, degree_bound=27, trials=3, seed=5)
    assert res.sample_radius == 432
    assert seen == [(205, -171, 327), (-65, 382, 275), (429, 325, 235)]


@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 5), (-5, 5), (0, 10), (0, 15), (-9, 9),
                                    (-432, 432), (-(2 ** 40), 2 ** 40 + 3)])
def test_randints_equals_randint_calls(lo, hi):
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        count = seed % 7 * 9
        draws = randints(ours, lo, hi, count)
        assert draws == [theirs.randint(lo, hi) for _ in range(count)]
        assert all(lo <= x <= hi for x in draws)
        assert ours.getstate() == theirs.getstate()  # no draw taken beyond the count


def test_randints_stays_in_range_over_many_draws():
    # a width of 16 draws 5 bits, so about one draw in 32 is exactly 16 and must be redrawn
    for lo, hi in [(0, 15), (-5, 5), (-9, 9)]:
        draws = randints(random.Random(3), lo, hi, 3000)
        assert min(draws) == lo and max(draws) == hi


def test_randints_of_no_draws_takes_nothing():
    rng = random.Random(7)
    state = rng.getstate()
    assert randints(rng, -5, 5, 0) == []
    assert rng.getstate() == state


@pytest.mark.parametrize("lo, hi", [(1, 0), (5, -5), (0, -1)])
def test_randints_refuses_an_empty_range(lo, hi):
    with pytest.raises(ValueError, match="empty range"):
        randints(random.Random(1), lo, hi, 3)
