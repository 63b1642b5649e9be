"""Elimination kernels against rational oracles and the list reference."""

import random

import pytest

from terracini import _kernels
from terracini._kernels import BACKEND
from terracini.catalog import make_veronese
from terracini.exactlin import SCREEN_PRIME
from terracini.secants import sample_smooth_point, tangent_space
from oracles import bareiss_reference, gauss_det, mod_rank_reference, rref_rank

# Slots of a packed row take 256 multiply-adds between reductions for the
# screen prime, 4 for 2^31 - 1 and 1 for 2^32 - 5, the largest prime whose
# square fits a 64-bit slot.
PRIMES = (2, 3, 101, SCREEN_PRIME, (1 << 31) - 1, (1 << 32) - 5)


def random_int_matrix(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def rank_from_echelon(kernel, rows):
    _, pivots, _ = kernel.bareiss_echelon(rows)
    return len(pivots)


def test_backend_reports_what_was_imported():
    assert BACKEND == "python"


def test_bareiss_rank_matches_rational_oracle():
    rng = random.Random(100)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = random_int_matrix(rng, nr, nc)
        assert rank_from_echelon(_kernels, m) == rref_rank(m)


def test_bareiss_rank_on_engineered_rank_deficient_matrices():
    rng = random.Random(101)
    for _ in range(40):
        # build a matrix with known rank by multiplying factor matrices
        n, r = rng.randint(2, 6), rng.randint(1, 3)
        a = random_int_matrix(rng, n, r, -5, 5)
        b = random_int_matrix(rng, r, n, -5, 5)
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
             for i in range(n)]
        assert rank_from_echelon(_kernels, m) == rref_rank(m)


def test_bareiss_last_pivot_is_determinant():
    rng = random.Random(102)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, n, n)
        ech, pivots, sign = _kernels.bareiss_echelon(m)
        det = sign * ech[n - 1][pivots[-1]] if len(pivots) == n else 0
        assert det == gauss_det(m)


def test_mod_rank_never_exceeds_exact_rank():
    rng = random.Random(103)
    for p in PRIMES:
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = random_int_matrix(rng, nr, nc)
            assert _kernels.mod_rank(m, p) <= rref_rank(m)


def test_mod_rank_detects_small_prime_collapse():
    # the matrix [[2, 0], [0, 2]] has rank 2 but rank 0 mod 2
    assert _kernels.mod_rank([[2, 0], [0, 2]], 2) == 0
    assert _kernels.mod_rank([[2, 0], [0, 2]], 101) == 2


@pytest.mark.parametrize("p", PRIMES)
def test_mod_rank_matches_reference_on_random_matrices(p):
    rng = random.Random(104)
    for _ in range(40):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        m = random_int_matrix(rng, nr, nc, -3 * p, 3 * p)
        assert _kernels.mod_rank(m, p) == mod_rank_reference(m, p)


@pytest.mark.parametrize("p", PRIMES)
def test_mod_rank_matches_reference_on_rank_deficient_matrices(p):
    rng = random.Random(105)
    for _ in range(40):
        nr, nc, r = rng.randint(2, 10), rng.randint(2, 10), rng.randint(1, 4)
        a = random_int_matrix(rng, nr, r, -p, p)
        b = random_int_matrix(rng, r, nc, -p, p)
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
             for i in range(nr)]
        assert _kernels.mod_rank(m, p) == mod_rank_reference(m, p)


@pytest.mark.parametrize("p", PRIMES)
def test_mod_rank_matches_reference_on_extreme_entries(p):
    # p - 1 makes every multiply-add add the most to a slot; +-p vanish
    rng = random.Random(106)
    values = (0, 1, -1, p - 1, 1 - p, p, -p, p + 1)
    for _ in range(40):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        assert _kernels.mod_rank(m, p) == mod_rank_reference(m, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(12, 3), (3, 12), (1, 7), (7, 1), (1, 1)],
                         ids=["tall", "wide", "one-row", "one-column", "one-entry"])
def test_mod_rank_matches_reference_on_edge_shapes(p, shape):
    rng = random.Random(107)
    nr, nc = shape
    for _ in range(10):
        m = random_int_matrix(rng, nr, nc, -p, p)
        assert _kernels.mod_rank(m, p) == mod_rank_reference(m, p)
    assert _kernels.mod_rank([[0] * nc for _ in range(nr)], p) == 0
    assert _kernels.mod_rank([[p] * nc for _ in range(nr)], p) == 0


def test_mod_rank_of_empty_matrices():
    assert _kernels.mod_rank([], SCREEN_PRIME) == 0
    assert _kernels.mod_rank([[], []], SCREEN_PRIME) == 0


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 32) - 5])
def test_mod_rank_reduces_slots_before_they_carry(monkeypatch, p):
    # 12x12 dense rows with entries p - 1 take up to 11 multiply-adds per
    # row, more than the 4 (or 1) a slot has room for
    reductions = []
    scaled = _kernels._scaled

    def counting(*args):
        if len(args) == 3:
            reductions.append(args)
        return scaled(*args)

    monkeypatch.setattr(_kernels, "_scaled", counting)
    rng = random.Random(108)
    for _ in range(10):
        m = [[rng.choice((p - 1, p - 2, 1, 0)) for _ in range(12)] for _ in range(12)]
        assert _kernels.mod_rank(m, p) == mod_rank_reference(m, p)
    assert reductions


@pytest.mark.parametrize("p", [(1 << 32) + 15, (1 << 61) - 1])
def test_mod_rank_refuses_a_prime_whose_square_overflows_a_slot(p):
    with pytest.raises(ValueError, match="too large"):
        _kernels.mod_rank([[1, 2], [3, 4]], p)


def test_mod_rank_refuses_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        _kernels.mod_rank([[1, 2, 3], [4, 5]], SCREEN_PRIME)


# bareiss_echelon scales a row only when it is next touched and skips cells
# whose operands are both zero; its whole output must match the reference
# loop, which updates every row and cell at every step.

def sparse_int_matrix(rng, nr, nc, density, lo=-9, hi=9):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)]


def assert_bareiss_matches_reference(m):
    assert _kernels.bareiss_echelon(m) == bareiss_reference(m), m


@pytest.mark.parametrize("density", [0.15, 0.4, 0.7, 1.0])
def test_bareiss_output_matches_reference_on_random_matrices(density):
    rng = random.Random(110)
    for _ in range(150):
        nr, nc = rng.randint(1, 10), rng.randint(1, 10)
        assert_bareiss_matches_reference(sparse_int_matrix(rng, nr, nc, density))


def test_bareiss_output_matches_reference_on_rank_deficient_matrices():
    rng = random.Random(111)
    for _ in range(150):
        nr, nc, r = rng.randint(2, 10), rng.randint(2, 10), rng.randint(1, 4)
        a = sparse_int_matrix(rng, nr, r, 0.6, -4, 4)
        b = sparse_int_matrix(rng, r, nc, 0.6, -4, 4)
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
             for i in range(nr)]
        assert_bareiss_matches_reference(m)


def test_bareiss_output_matches_reference_with_zero_rows_and_columns():
    rng = random.Random(112)
    for _ in range(100):
        nr, nc = rng.randint(2, 8), rng.randint(2, 8)
        m = sparse_int_matrix(rng, nr, nc, 0.6)
        for i in rng.sample(range(nr), rng.randint(1, nr - 1)):
            m[i] = [0] * nc
        for j in rng.sample(range(nc), rng.randint(1, nc - 1)):
            for row in m:
                row[j] = 0
        assert_bareiss_matches_reference(m)
    assert_bareiss_matches_reference([[0] * 5 for _ in range(4)])


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 12), (12, 2)],
                         ids=["one-row", "one-column", "one-entry", "flat", "tall"])
def test_bareiss_output_matches_reference_on_edge_shapes(shape):
    rng = random.Random(113)
    nr, nc = shape
    for density in (0.3, 1.0):
        for _ in range(20):
            assert_bareiss_matches_reference(sparse_int_matrix(rng, nr, nc, density))
    assert _kernels.bareiss_echelon([]) == bareiss_reference([]) == ([], [], 1)


def test_bareiss_output_matches_reference_on_entries_near_10_to_the_12():
    rng = random.Random(114)
    big = 10 ** 12
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.choice((0, big, -big, big - 1, 1 - big, big + rng.randint(-99, 99)))
              for _ in range(nc)] for _ in range(nr)]
        assert_bareiss_matches_reference(m)


def test_bareiss_brings_a_stale_row_up_to_date_when_swapped_in_as_pivot():
    # step 0 (pivot 2) leaves row 2 unscaled, since it has t = 0 there; at
    # step 1 row 1 is zero in column 1, so row 2 is swapped in and becomes
    # the pivot row at its up-to-date value 2/1 * (0, 3, 1, 1); the row it
    # displaces is stale in turn (stamp 2, prev 6) when it becomes the
    # last pivot row
    m = [[2, 1, 1, 1], [4, 2, 3, 1], [0, 3, 1, 1]]
    expected = ([[2, 1, 1, 1], [0, 6, 2, 2], [0, 0, 6, -6]], [0, 1, 2], -1)
    assert bareiss_reference(m) == expected
    assert _kernels.bareiss_echelon(m) == expected


def test_bareiss_output_matches_reference_on_a_defective_secant_span():
    # the span that veronese:10:2 --check secant:4 ranks: 5 tangent spaces
    # of v_2(P^10), 55 rows of 66 columns, of rank 45 (symmetric 11x11
    # matrices of rank 5); the modular screen comes up short on it, so
    # Bareiss decides its rank
    chart = make_veronese(10, 2)
    rng = random.Random(1000)
    pts = []
    while len(pts) < 5:
        pt = sample_smooth_point(chart, rng)[0]
        if pt not in pts:
            pts.append(pt)
    rows = [row for pt in pts for row in tangent_space(chart, pt).rows]
    assert (len(rows), len(rows[0])) == (55, 66)
    assert _kernels.mod_rank(rows, SCREEN_PRIME) < 55
    echelon, pivots, sign = _kernels.bareiss_echelon(rows)
    assert len(pivots) == 45
    assert (echelon, pivots, sign) == bareiss_reference(rows)
