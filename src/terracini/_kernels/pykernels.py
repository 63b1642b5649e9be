"""Pure-Python elimination kernels.

The two elimination loops: fraction-free Bareiss echelon over Python
integers and Gaussian elimination modulo a word-sized prime.
`tests/test_kernels.py` checks both against rational oracles.
"""

from __future__ import annotations


def bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(echelon, pivot_cols, sign)`` where ``echelon`` is the
    eliminated matrix (list of lists of int), ``pivot_cols`` the pivot
    column indices in order, and ``sign`` tracks row swaps.  For a square
    matrix of full rank, ``sign * echelon[-1][pivot_cols[-1]]`` is the
    determinant (every intermediate division below is exact).
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    sign = 1
    prev = 1
    pr = 0
    for pc in range(nc):
        if pr >= nr:
            break
        sel = -1
        for i in range(pr, nr):
            if m[i][pc] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != pr:
            m[pr], m[sel] = m[sel], m[pr]
            sign = -sign
        piv = m[pr][pc]
        mp = m[pr]
        for i in range(pr + 1, nr):
            mi = m[i]
            t = mi[pc]
            for j in range(pc + 1, nc):
                mi[j] = (piv * mi[j] - t * mp[j]) // prev
            mi[pc] = 0
        pivots.append(pc)
        prev = piv
        pr += 1
    return m, pivots, sign


def mod_rank(rows, p):
    """Rank of an integer matrix reduced modulo the prime ``p``."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        return 0
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for pc in range(nc):
        if rank >= nr:
            break
        sel = -1
        for i in range(rank, nr):
            if m[i][pc]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != rank:
            m[rank], m[sel] = m[sel], m[rank]
        inv = pow(m[rank][pc], -1, p)
        mr = m[rank]
        for i in range(rank + 1, nr):
            t = m[i][pc]
            if t:
                f = (t * inv) % p
                mi = m[i]
                for j in range(pc, nc):
                    mi[j] = (mi[j] - f * mr[j]) % p
        rank += 1
    return rank
