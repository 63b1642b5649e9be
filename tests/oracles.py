"""Independent oracles for the test suite.

These deliberately avoid the package's kernel path: a plain
Fraction-arithmetic Gaussian elimination serving as the second, separate
implementation that rank/determinant results are checked against, an
ordered-tuple derivative contraction that ``chart.contract`` is checked
against, and closed-form dimension counts that secant and osculating
verdicts are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def rref_rank(rows) -> int:
    """Rank by straightforward rational Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for pc in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][pc] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][pc]
        for i in range(nr):
            if i != rank and m[i][pc] != 0:
                f = m[i][pc] / pv
                for j in range(pc, nc):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == nr:
            break
    return rank


def gauss_det(rows) -> Fraction:
    """Determinant as the signed product of elimination pivots."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    assert all(len(r) == n for r in m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


def symmetric_rank_locus_dim(size: int, rank: int) -> int:
    """Projective dimension of the rank <= ``rank`` locus of symmetric matrices.

    A symmetric size x size matrix of rank <= rank is sum_{i<=rank} v_i v_i^T,
    a cone of affine dimension rank*size - rank(rank-1)/2 (the v_i up to the
    orthogonal group O(rank)); its projectivization has one dimension less.
    For the quadratic Veronese v_2(P^n) with size = n+1 this is Sec_{rank-1},
    e.g. dims 8 and 11 in P^14 for n = 4 and rank 2, 3.
    """
    return rank * size - rank * (rank - 1) // 2 - 1


def vaccum(length: int, parts) -> tuple:
    """Sum of ``coeff * vector`` contributions, skipping zero coefficients."""
    acc = [Fraction(0)] * length
    for c, v in parts:
        if c == 0:
            continue
        for i, x in enumerate(v):
            if x:
                acc[i] += c * x
    return tuple(acc)


def brute_contract(table, n: int, width: int, terms) -> tuple:
    """Sum of c * D^h x[v_1..v_h], one summand per ordered index tuple.

    ``table`` maps sorted multi-indices to Fraction vectors (a chart's
    ``derivative_table``); each term (c, (v_1, ..., v_h)) contributes
    c * v_1[i_1] ... v_h[i_h] * x_{i_1...i_h} for every (i_1, ..., i_h) in
    range(n)^h, so the n^h summands carry no symmetry reduction.
    """
    parts = []
    for c, vs in terms:
        for idx in product(range(n), repeat=len(vs)):
            coeff = Fraction(c)
            for v, i in zip(vs, idx):
                coeff *= v[i]
            parts.append((coeff, table[tuple(sorted(idx))]))
    return vaccum(width, parts)
