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
    MultiPoly,
    NotSquareError,
    poly_det,
    span_rank,
    sz_zero_test,
)
from oracles import (
    OrderMismatchError,
    dot,
    gauss_det,
    partial,
    poly_compose_curve,
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
        assert rank_exact(Matrix.from_columns(rows)) == rank


def test_span_rank_agrees_with_rank():
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc)
        assert span_rank(m.entries) == rank_exact(m)
        assert span_rank([[x.numerator for x in r] for r in m.entries]) == rank_exact(m)


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

def test_det_identity_and_repeated_column():
    assert identity(5).det() == 1
    m = Matrix([[F(1), F(1), F(2)], [F(3), F(3), F(4)], [F(5), F(5), F(6)]])
    assert m.det() == 0


def test_det_matches_pivot_product_oracle():
    rng = random.Random(25)
    for _ in range(25):
        m = random_matrix(rng, 5, 5)
        assert m.det() == gauss_det(m.entries)


def test_det_with_rational_entries():
    m = Matrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
    assert m.det() == F(1, 14) - F(1, 15)


def test_det_zero_iff_rank_deficient():
    rng = random.Random(26)
    for _ in range(25):
        m = random_matrix(rng, 4, 4, -3, 3)
        assert (m.det() == 0) == (rank_exact(m) < 4)


def test_det_not_square():
    with pytest.raises(NotSquareError):
        Matrix([[F(1), F(2)]]).det()


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_identity_empty():
    assert identity(3).right_nullspace() == []


def test_nullspace_zero_matrix_full():
    basis = Matrix([[F(0)] * 3, [F(0)] * 3]).right_nullspace()
    assert len(basis) == 3
    assert span_rank(basis) == 3


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
            assert span_rank(basis) == len(basis)


# ---------------------------------------------------------------------------
# polynomials (formal partials are the reference route in oracles)
# ---------------------------------------------------------------------------

def test_partial_basic():
    # d/du1 (u1^2 u2) = 2 u1 u2
    p = MultiPoly.monomial(2, (2, 1), 1)
    assert partial(p, 0) == MultiPoly.monomial(2, (1, 1), 2)


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
        num = Matrix([[e.eval(pt) for e in row] for row in rows])
        assert d.eval(pt) == num.det()


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
    p = MultiPoly.monomial(1, (2,), 1)
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
                cp = cp + MultiPoly.monomial(1, (k,), c)
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
