"""Elimination kernels: fraction-free Bareiss echelon and rank modulo a prime.

The two elimination loops, in pure Python: Bareiss echelon over Python
integers and Gaussian elimination modulo a prime below 2^28; ``BACKEND``
names the one implementation.  A compiled build gained about 1% end to
end when elimination was under 1% of run time.

``bareiss_echelon`` does only the work that changes a value.  At step k a
row with t = 0 in the pivot column is only scaled by piv_k/prev_k, and
prev_{k+1} = piv_k, so the scalings of the steps it sits out telescope to
prev/stamp, its stamp being the divisor at which it was last up to date
(it moves with the row in a swap).  So the row waits until it is touched:
as the pivot row it is multiplied by prev/stamp, and when t != 0 the update
divides by its stamp instead of prev.  Both divisions are exact, as they
give the Bareiss values; pivot search reads only zero against nonzero; and
rows left below the rank are zero.  So the output is that of the loop that
scales every row.  A cell whose two operands are zero is not touched.

``mod_rank`` works on packed rows: row i mod p is one Python int whose
64-bit slot j holds column j, so a row operation is one bigint
multiply-add instead of one interpreted step per cell.  Every slot stays
non-negative, so no borrow crosses a slot, and a row's slots are reduced
mod p before they could carry into the next one.  Given ``need``, it
stops once the rank found plus the rows not yet reduced falls below
``need``; when ``need`` is the row count, that is at the first row that
reduces to zero.  The kernels' share of the
CLI time is in the ``kernels.*`` rows of a ``--trace 1`` benchmark run.
`tests/test_kernels.py` checks both kernels against the oracles and
against the plain loops ``oracles.bareiss_reference`` and
``oracles.mod_rank_reference``.
"""

from __future__ import annotations

import array

BACKEND = "python"

# Bits per column in a packed row: one array("Q") item.
_SLOT = 64
_MASK = (1 << _SLOT) - 1


def bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(echelon, pivot_cols, sign)`` where ``echelon`` is the
    eliminated matrix (list of lists of int), ``pivot_cols`` the pivot
    column indices in order, and ``sign`` tracks row swaps.  For a square
    matrix of full rank, ``sign * echelon[-1][pivot_cols[-1]]`` is the
    determinant (every intermediate division below is exact).  ``stamp[i]``
    is the divisor prev at which row i was last brought up to date.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    stamp = [1] * nr
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
            stamp[pr], stamp[sel] = stamp[sel], stamp[pr]
            sign = -sign
        mp = m[pr]
        if stamp[pr] != prev:
            s = stamp[pr]
            mp = m[pr] = [x * prev // s for x in mp]
        piv = mp[pc]
        for i in range(pr + 1, nr):
            mi = m[i]
            t = mi[pc]
            if not t:
                continue
            s = stamp[i]
            for j in range(pc + 1, nc):
                a, b = mi[j], mp[j]
                if a or b:
                    mi[j] = (piv * a - t * b) // s
            mi[pc] = 0
            stamp[i] = piv
        pivots.append(pc)
        prev = piv
        pr += 1
    return m, pivots, sign


def _scaled(y, width, p, c=1):
    """The packed row ``y`` of ``width`` slots with every slot times ``c`` mod ``p``."""
    slots = array.array("Q", y.to_bytes(8 * width, "little"))
    return int.from_bytes(array.array("Q", [v * c % p for v in slots]).tobytes(), "little")


def mod_rank(rows, p, need=None):
    """Rank of an integer matrix reduced modulo the prime ``p``.

    Each row is packed into one int (column j in 64-bit slot j, entries
    reduced mod p) and reduced against the pivot rows found so far, in
    the order of its leading columns: a row whose leading column already
    has a pivot row becomes ``(y >> 64) + t * neg``, where ``t`` is its
    leading entry and ``neg`` the pivot row beyond its pivot, scaled once
    by -1/pivot mod p on its first use.  A row whose leading column has
    none becomes a pivot row.  Shifting the leading slot away keeps only
    the columns still to be reduced, and a zero slot costs nothing, so
    sparse rows touch only the columns where they are nonzero.

    A slot starts below p and each multiply-add adds less than p*p to
    it, so ``((1 << 64) - p) // p**2`` multiply-adds fit a slot before
    any carry could cross it (256 for primes below 2^28, 4 for 2^31 - 1);
    after that many the row's slots are reduced mod p.  A prime whose
    square does not fit a slot is refused with ``ValueError``.

    With ``need``, only whether the rank reaches ``need`` is asked: the
    loop stops as soon as the rank found plus the rows not yet reduced
    falls below ``need``, and returns the rank found so far, which is below
    ``need`` as well.  A rank that reaches ``need`` never triggers the stop,
    so it comes out exact; ``need=None`` (the default) is the exact rank.
    """
    room = ((1 << _SLOT) - p) // (p * p)
    if room < 1:
        raise ValueError(f"modulus {p} too large: p*p must fit a {_SLOT}-bit slot")
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        return 0
    row_bytes = 8 * nc
    packed = memoryview(array.array("Q", [x % p for r in rows for x in r]).tobytes())
    if len(packed) != nr * row_bytes:
        raise ValueError("ragged rows")
    # both keyed by the column after the pivot: pivot rows beyond their
    # pivot, scaled by -1/pivot, and those not yet used, as (row, pivot)
    scaled = {}
    unused = {}
    rank = 0
    need = 0 if need is None else need
    left = nr  # rows not yet reduced
    for start in range(0, len(packed), row_bytes):
        left -= 1
        y = int.from_bytes(packed[start:start + row_bytes], "little")
        col = 0  # the column in slot 0 of y
        adds = 0  # multiply-adds into y since its slots were last reduced
        while y:
            u = y & _MASK
            if not u:
                skip = ((y & -y).bit_length() - 1) // _SLOT
                y >>= _SLOT * skip
                col += skip
                u = y & _MASK
            y >>= _SLOT
            col += 1
            t = u % p
            if not t:
                continue
            neg = scaled.get(col)
            if neg is None:
                if col not in unused:
                    unused[col] = (y, t)
                    rank += 1
                    break
                pivot_row, pivot = unused.pop(col)
                neg = scaled[col] = _scaled(pivot_row, nc - col, p, p - pow(pivot, -1, p))
            y += t * neg
            adds += 1
            if adds == room:
                y = _scaled(y, nc - col, p)
                adds = 0
        if rank == nc or rank + left < need:
            break
    return rank
