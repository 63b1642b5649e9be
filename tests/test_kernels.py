"""Elimination kernels against rational oracles."""

import random

from terracini import _kernels
from terracini._kernels import BACKEND
from oracles import gauss_det, rref_rank


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
    p = (1 << 31) - 1
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_int_matrix(rng, nr, nc)
        assert _kernels.mod_rank(m, p) <= rref_rank(m)


def test_mod_rank_detects_small_prime_collapse():
    # the matrix [[2, 0], [0, 2]] has rank 2 but rank 0 mod 2
    assert _kernels.mod_rank([[2, 0], [0, 2]], 2) == 0
    assert _kernels.mod_rank([[2, 0], [0, 2]], 101) == 2
