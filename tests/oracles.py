"""Independent oracles for the test suite.

These deliberately avoid the package's kernel path: a plain
Fraction-arithmetic Gaussian elimination serving as the second, separate
implementation that rank/determinant results are checked against, an
ordered-tuple derivative contraction that the package's contraction is
checked against, and closed-form dimension counts that secant and
osculating verdicts are checked against.

Charts hold integer forms only; ``chart_polys`` and ``polys_chart`` turn
them into coordinate polynomials and back, the latter through
``integer_form``, the reference reduction of a polynomial to its form.
The symbolic reference routes live here too, since only tests compare
against them: derivative tables from a chain of formal partials evaluated
term by term (``symbolic_table``), the 2-osculating criterion vectors as
Fractions from that table (``osc2_vectors``), jet normalization by substituting the
affine frame into every coordinate (``jet_normalize``), curve derivatives
from truncated-series composition (``composed_curve_series``), the
smoothness test on Fraction vectors ranked by ``rref_rank``
(``smoothness_reference``), and the structurally zero columns of the
determinant matrix read term by term (``zero_columns``).  None of them reads the chart's integer
derivative store.

``secant_defect_reference`` ranks every trial, with no rank ceiling, by
``rref_rank``; it shares the package's draws and integer tables, so its
records must match the package's.

``rank_exact`` and ``rank_modular`` do call the package's elimination
kernels, each on its own and without the modular screen that
``span_rank`` puts in front of Bareiss, so the two can be compared.
``mod_rank_reference`` is the per-cell list elimination mod p that the
packed ``mod_rank`` kernel is checked against, and ``bareiss_reference``
the textbook Bareiss loop, which scales every row at every step, that the
lazily scaled ``bareiss_echelon`` must match output for output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm
from operator import mul

from terracini._kernels import bareiss_echelon, mod_rank
from terracini.chart import (
    Chart,
    CurvilinearJet,
    IntegerTable,
    _normalized_frame,
    contract_numerators,
    fraction_vector,
    jet_terms,
    multi_indices,
    unit_vectors,
)
from terracini.exactlin import BadIndexError, Matrix, MultiPoly
from terracini.secants import (
    DefectRecord,
    SingularPointError,
    _require_smooth_lattice_points,
    sample_lattice_size,
    sample_smooth_point,
)

F0 = Fraction(0)


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

    ``table`` maps sorted multi-indices to Fraction vectors (a
    ``symbolic_table``); each term (c, (v_1, ..., v_h)) contributes
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


def contract(table: IntegerTable, terms) -> tuple:
    """One term list contracted by ``chart.contract_numerators``, read as an exact vector.

    Not a second route: tests read single vectors of the package's
    contraction through it, to compare them with ``brute_contract``.
    Numeric terms give canonical Fractions, ring scalars ring elements.
    """
    (acc,), (scale,) = contract_numerators(table, [terms])
    if all(type(a) is int for a in acc):
        return fraction_vector(acc, table.dens, scale)
    return tuple(a * Fraction(1, d * scale) for a, d in zip(acc, table.dens))


def zero_columns(term_lists, d: int) -> list[bool]:
    """Per term list, whether every term reads partials of order above d.

    Such a column is zero on a chart of coordinate degree d.  This is the
    per-term reading that ``Gamma15Matrix.det`` replaced by orders it
    computes from n alone.
    """
    return [all(len(vs) > d for _, vs in terms) for terms in term_lists]


def dot(a, b) -> Fraction:
    return sum(map(mul, a, b), F0)


# ---------------------------------------------------------------------------
# rank routes without the modular screen
# ---------------------------------------------------------------------------

def rank_exact(m: Matrix) -> int:
    """Exact rank by fraction-free elimination alone, on rows cleared here."""
    ints = []
    for r in m.entries:
        d = lcm(*(x.denominator for x in r))
        ints.append([x.numerator * (d // x.denominator) for x in r])
    return len(bareiss_echelon(ints)[1])


def rank_modular(m: Matrix, p: int) -> int:
    """Rank of the entry-wise reduction mod p; no denominator may vanish mod p."""
    return mod_rank([[x.numerator * pow(x.denominator, -1, p) % p for x in r]
                     for r in m.entries], p)


def mod_rank_reference(rows, p: int) -> int:
    """Rank mod p by Gaussian elimination on lists, one reduction per cell.

    The reference for the packed ``_kernels.mod_rank``: it keeps every
    entry reduced, so it needs no slot bound and takes any prime.
    """
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


def bareiss_reference(rows):
    """Fraction-free echelon ``(echelon, pivot_cols, sign)``, every row updated at every step.

    The reference for ``_kernels.bareiss_echelon``: each row below the
    pivot becomes (piv * row - t * pivot_row) // prev at each step, even
    when t = 0 or both operands of a cell are zero.
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


# ---------------------------------------------------------------------------
# coordinate polynomials of a chart
# ---------------------------------------------------------------------------

def integer_form(p: MultiPoly) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(den, coefficients, exponents) with p = sum(c * u^e) / den, all ints."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return (den, tuple(c.numerator * (den // c.denominator) for c in p.terms.values()),
            tuple(p.terms))


def chart_polys(chart: Chart) -> tuple[MultiPoly, ...]:
    """The chart's coordinates as polynomials over Q, read from its integer forms."""
    return tuple(MultiPoly(chart.n, {e: Fraction(c, den) for c, e in zip(cs, es)})
                 for den, cs, es in chart.forms)


def polys_chart(label: str, n: int, r: int, polys) -> Chart:
    """The chart whose coordinates are the given polynomials, via ``integer_form``."""
    return Chart(label, n, r, tuple(integer_form(p) for p in polys))


# ---------------------------------------------------------------------------
# symbolic derivatives and jet normalization
# ---------------------------------------------------------------------------

def partial(p: MultiPoly, i: int) -> MultiPoly:
    """Formal partial derivative with respect to variable i."""
    if not 0 <= i < p.num_vars:
        raise BadIndexError(f"variable index {i} out of range for {p.num_vars} vars")
    return MultiPoly(p.num_vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                  for e, c in p.terms.items() if e[i]})


def symbolic_table(chart: Chart, pt, h: int) -> dict:
    """{sorted multi-index: derivative vector at pt} for every order <= h.

    Each mixed partial is a chain of formal partials of the coordinate
    polynomials, evaluated term by term with ``MultiPoly.eval``.
    """
    polys = {(): chart_polys(chart)}
    out = {}
    for order in range(h + 1):
        for idx in combinations_with_replacement(range(chart.n), order):
            if idx:
                polys[idx] = [partial(p, idx[-1]) for p in polys[idx[:-1]]]
            out[idx] = tuple(p.eval(pt) for p in polys[idx])
    return out


def smoothness_reference(chart: Chart, pt) -> tuple[bool, int]:
    """(chart smooth at pt, Jacobian rank at pt) from ``symbolic_table`` by ``rref_rank``.

    The Fraction route of ``Chart.is_smooth_at`` and ``Chart.jacobian_rank``:
    smooth means a nonzero coordinate vector and n independent first partials.
    """
    table = symbolic_table(chart, pt, 1)
    rank = rref_rank([table[(i,)] for i in range(chart.n)])
    return any(table[()]) and rank == chart.n, rank


def osc2_vectors(chart: Chart, pt, lam, mu) -> list[tuple]:
    """The 3n+1 vectors ranked by ``secants.osc2_regular``, as Fractions.

    x, x_i, d_j x' and d_k x'' along the curve pt + lam t + mu t^2, built
    from the symbolic table by ``brute_contract``; only the term generator
    ``chart.jet_terms`` is shared with the package.
    """
    sym = symbolic_table(chart, pt, 3)
    e = unit_vectors(chart.n)
    return [brute_contract(sym, chart.n, chart.r + 1, jet_terms(h, (lam, mu), along))
            for h, along in [(0, ())] + [(h, (v,)) for h in (0, 1, 2) for v in e]]


def secant_defect_reference(chart: Chart, k: int, samples: int, seed: int) -> DefectRecord:
    """``secants.secant_defect`` with no rank ceiling, each rank by ``rref_rank``.

    It makes the same draws in the same order, checks each point's tangent
    rank before ranking every trial's union, and keeps the first union of
    maximal rank as the witness.
    """
    rng = random.Random(seed)
    lattice = sample_lattice_size(chart.n)
    best, witness, resamples = -1, (), 0
    for _ in range(samples):
        pts, rows, repeats = [], [], 0
        while len(pts) < k + 1:
            pt, extra = sample_smooth_point(chart, rng)
            resamples += extra
            if pt in pts:
                resamples += 1
                repeats += 1
                if repeats == lattice:
                    _require_smooth_lattice_points(chart, k + 1)
                continue
            pts.append(pt)
            repeats = 0
        for pt in pts:
            point_rows = chart.integer_table(pt, 1).rows(multi_indices(chart.n, 1))
            rank = rref_rank(point_rows)
            if rank < chart.n + 1:
                raise SingularPointError(f"tangent rank {rank} < n+1 at"
                                         f" ({', '.join(map(str, pt))}) on {chart.label}")
            rows += point_rows
        observed = rref_rank(rows) - 1
        if observed > best:
            best, witness = observed, tuple(pts)
    expected = min(chart.r, k * chart.n + chart.n + k)
    return DefectRecord(k=k, expected=expected, observed=best, defect=expected - best,
                        witness_points=(witness,), samples=samples, resamples=resamples,
                        seed=seed)


def _power(cache: list, base, k: int, times):
    """base^k, extending ``cache`` (cache[j] = base^j, cache[0] the unit)."""
    while len(cache) <= k:
        cache.append(times(cache[-1], base))
    return cache[k]


def substitute_affine(p: MultiPoly, base, m: Matrix) -> MultiPoly:
    """Substitute u_i = base_i + sum_j m[i][j] w_j into p; a polynomial in w."""
    nw = m.cols
    subs = [sum((MultiPoly.variable(nw, j) * x for j, x in enumerate(row) if x),
                MultiPoly.constant(nw, b)) for b, row in zip(base, m.entries)]
    powers = [[MultiPoly.constant(nw, 1)] for _ in subs]
    out = MultiPoly.zero(nw)
    for e, c in p.terms.items():
        term = MultiPoly.constant(nw, c)
        for cache, s, k in zip(powers, subs, e):
            if k:
                term = term * _power(cache, s, k, mul)
        out = out + term
    return out


def is_normalized(jet: CurvilinearJet) -> bool:
    return jet.lam == (1,) + (0,) * (jet.n - 1) and jet.mu[0] == 0


def jet_normalize(chart: Chart, jet: CurvilinearJet) -> tuple[Chart, CurvilinearJet]:
    """Equivalent chart and jet with lambda = e_1, mu_1 = 0, base = 0.

    The chart parameters undergo the affine change u = base + M w of
    ``chart._normalized_frame`` and every coordinate polynomial is
    substituted, so the normalized chart's derivatives can be read directly.
    """
    if is_normalized(jet) and not any(jet.base):
        return chart, jet
    frame, new_jet = _normalized_frame(jet)
    m = Matrix(list(zip(*frame)))
    coords = [substitute_affine(p, jet.base, m) for p in chart_polys(chart)]
    return polys_chart(f"{chart.label}|jet-normalized", chart.n, chart.r, coords), new_jet


# ---------------------------------------------------------------------------
# truncated power series in one parameter t: the composition route
# ---------------------------------------------------------------------------
# A series truncated at order k is a tuple of k+1 coefficients (t^0 .. t^k).

class OrderMismatchError(ValueError):
    """Curve component series shorter than the requested truncation order."""


def series_const(c, order: int) -> tuple:
    return (Fraction(c),) + (F0,) * order


def series_mul(a, b, order: int) -> tuple:
    out = [F0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return tuple(out)


def poly_compose_curve(p: MultiPoly, curve, order: int) -> tuple:
    """Compose p with truncated series u_i(t), truncated at ``order``.

    Each curve component must carry coefficients at least up to t^order.
    """
    if len(curve) != p.num_vars:
        raise OrderMismatchError(
            f"curve has {len(curve)} components, polynomial has {p.num_vars} variables")
    if any(len(s) < order + 1 for s in curve):
        raise OrderMismatchError(f"a curve component is truncated below order {order}")
    comps = [tuple(Fraction(x) for x in s[: order + 1]) for s in curve]

    def times(a, b):
        return series_mul(a, b, order)

    powers = [[series_const(1, order)] for _ in comps]
    out = [F0] * (order + 1)
    for e, c in p.terms.items():
        term = series_const(c, order)
        for cache, s, k in zip(powers, comps, e):
            if k:
                term = times(term, _power(cache, s, k, times))
        out = [a + b for a, b in zip(out, term)]
    return tuple(out)


def curve_series(jet, order: int) -> list[tuple]:
    """Component series of u(t) = base + lam t + ... + sigma t^5, truncated at order."""
    coeffs = [jet.base, jet.lam, jet.mu, jet.nu, jet.rho, jet.sigma]
    return [tuple(coeffs[k][i] if k < len(coeffs) else F0 for k in range(order + 1))
            for i in range(jet.n)]


def composed_curve_series(chart: Chart, jet, order: int = 5) -> list[tuple]:
    """Coordinate-wise truncated series of t -> x(u(t)); the composition route."""
    curve = curve_series(jet, order)
    return [poly_compose_curve(p, curve, order) for p in chart_polys(chart)]
