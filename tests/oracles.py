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
``nondegenerate_reference`` ranks the forms' coefficients in one column
per exponent, the route of ``Chart.is_nondegenerate`` without flat forms.
The symbolic reference routes live here too, since only tests compare
against them: derivative tables from a chain of formal partials evaluated
term by term (``symbolic_table``), the 2-osculating criterion vectors as
Fractions from that table (``osc2_vectors``), jet normalization by substituting the
affine frame into every coordinate (``jet_normalize``), curve derivatives
from truncated-series composition (``composed_curve_series``), the
smoothness test on Fraction vectors ranked by ``rref_rank``
(``smoothness_reference``), and the structurally zero columns of the
determinant matrix read term by term (``zero_columns``).  None of them
reads the chart's integer derivative store.  ``MultiPoly`` is the sparse
polynomial ring over Q these routes compute in, and ``poly_det`` its
fraction-free determinant.

The second routes that no command-line check reaches live here too:
``claim_coefficient_audit`` expands the determinant D symbolically for
n <= 3 (its columns ``brute_contract``ed with ring-variable lambda and mu)
and checks it against the package's numeric ``gamma15_matrix(...).det()``;
``hyperplane_system`` reads the dual of a tangent space along a jet as a
nullspace; ``osc2_regular_coordinate`` ranks the 2-osculating
criterion vectors at lambda = e_1, mu = 0, a sufficient condition for
``osc2_regular``; and ``curve_derivatives`` contracts x', ..., x^(5) along
a ``FiveJet`` (a fifth-order curve jet, which only tests build) from the
order-5 table, the assembly route that ``composed_curve_series`` is
checked against.  Only tests write chart files, through ``chart_to_obj``
and ``save_chart``, read a span's exact vectors (``generators``) or zero
rows (``zero_generators``) or the determinant matrix's ``column_labels``
and column term lists (``_gamma15_columns``, in lambda and mu of any
ring), or project a catalog chart to its recorded target
(``build_for_length3``).

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

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm
from operator import mul

from terracini._kernels import bareiss_echelon, mod_rank
from terracini.catalog import CatalogEntry
from terracini.chart import (
    Chart,
    CurvilinearJet,
    DegenerateJetError,
    IntegerTable,
    _normalized_frame,
    contract_numerators,
    fraction_vector,
    jet_terms,
    multi_indices,
    project_generic,
    unit_vectors,
)
from terracini.curvilinear import tangent_along
from terracini.exactlin import BadIndexError, Matrix, NotSquareError, Vector
from terracini.gamma15 import (
    Gamma15Matrix,
    _gamma15_spec,
    _require_square_ambient,
    gamma15_matrix,
)
from terracini.secants import (
    DefectRecord,
    LinearSpan,
    SingularPointError,
    _osc2_rank,
    _require_smooth_lattice_points,
    sample_lattice_size,
    sample_point,
    sample_smooth_point,
)

F0 = Fraction(0)
F1 = Fraction(1)


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
    """
    (acc,), (scale,) = contract_numerators(table, [terms])
    return fraction_vector(acc, table.dens, scale)


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
# sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class MultiPoly:
    """Sparse polynomial in ``num_vars`` variables: {exponent tuple: coefficient}.

    Zero coefficients are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != num_vars:
                    raise ValueError(f"exponent {e} has wrong length for {num_vars} vars")
                c = Fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(c)})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "MultiPoly":
        if not 0 <= i < num_vars:
            raise BadIndexError(f"variable index {i} out of range for {num_vars} vars")
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): F1})

    # -- predicates / measurements ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {self.terms})"

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed variable counts")
            return other
        return MultiPoly.constant(self.num_vars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e, F0) + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return MultiPoly(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            if c == 0:
                return MultiPoly.zero(self.num_vars)
            return MultiPoly(self.num_vars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(e, F0) + c1 * c2
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        return MultiPoly(self.num_vars, out)

    __rmul__ = __mul__

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong length")
        total = F0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def divexact(self, d: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ArithmeticError if d does not divide self."""
        d = self._coerce(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        out: dict[tuple[int, ...], Fraction] = {}
        dlead = max(d.terms, key=_grlex_key)
        dc = d.terms[dlead]
        while rem:
            lead = max(rem, key=_grlex_key)
            e = tuple(a - b for a, b in zip(lead, dlead))
            if any(x < 0 for x in e):
                raise ArithmeticError("not divisible")
            c = rem[lead] / dc
            out[e] = c
            for de, dcf in d.terms.items():
                ke = tuple(a + b for a, b in zip(e, de))
                nv = rem.get(ke, F0) - c * dcf
                if nv:
                    rem[ke] = nv
                else:
                    rem.pop(ke, None)
        return MultiPoly(self.num_vars, out)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), F0)


def poly_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials.

    Fraction-free Bareiss over the polynomial ring: every division is by the
    previous pivot and is exact.  Pivots are chosen as the nonzero candidate
    with the fewest terms (ties by row order) to keep intermediate
    polynomials small.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nv = rows[0][0].num_vars
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise NotSquareError("polynomial matrix is not square")
    one = MultiPoly.constant(nv, 1)
    zero = MultiPoly.zero(nv)
    sign = 1
    prev = one
    for c in range(n):
        cand = [(len(m[i][c].terms), i) for i in range(c, n) if not m[i][c].is_zero()]
        if not cand:
            return zero
        _, piv = min(cand)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, n):
            t = m[i][c]
            for j in range(c + 1, n):
                m[i][j] = (p * m[i][j] - t * m[c][j]).divexact(prev)
            m[i][c] = zero
        prev = p
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


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


def nondegenerate_reference(chart: Chart) -> bool:
    """``Chart.is_nondegenerate`` from the integer forms: one column per distinct exponent.

    The second route: exponent dicts and the sorted set of their exponents,
    ranked by ``rref_rank``; it reads neither the flat forms nor the
    chart's monomial list.
    """
    forms = [dict(zip(es, cs)) for _, cs, es in chart.forms]
    mons = sorted({e for f in forms for e in f})
    rows = [[f.get(e, 0) for e in mons] for f in forms]
    return rref_rank(rows) == chart.r + 1


def chart_to_obj(chart: Chart) -> dict:
    """The chart-file document of a chart, the inverse of ``chart.obj_to_chart``."""
    return {
        "label": chart.label,
        "n": chart.n,
        "r": chart.r,
        "coords": [
            [{"exp": list(e), "num": str(q.numerator), "den": str(q.denominator)}
             for e, q in zip(es, (Fraction(c, den) for c in cs))]
            for den, cs, es in chart.forms
        ],
    }


def save_chart(chart: Chart, path) -> None:
    """Write the chart as a chart file that ``chart.load_chart`` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart_to_obj(chart), fh, indent=2)
        fh.write("\n")


def build_for_length3(entry: CatalogEntry, seed: int = 0) -> Chart:
    """The entry's chart, projected to its recorded target when it has one."""
    chart = entry.build()
    if entry.projection_target is not None:
        chart = project_generic(chart, entry.projection_target, seed)
    return chart


def generators(span: LinearSpan) -> tuple[Vector, ...]:
    """The span's exact vectors: row i's entry c over scales[i] * dens[c]."""
    return tuple(fraction_vector(row, span.dens, s) for row, s in zip(span.rows, span.scales))


def zero_generators(span: LinearSpan) -> tuple[int, ...]:
    """Indices of the span's generators that vanish (its zero rows)."""
    return tuple(i for i, row in enumerate(span.rows) if not any(row))


def column_labels(gm: Gamma15Matrix) -> tuple[str, ...]:
    """The labels of the determinant matrix's columns, in ``gamma15._gamma15_spec`` order."""
    e = range(1, gm.chart.n + 1)
    return ("x", *(f"x_{i}" for i in e), *(f"sum_i x_i{j} lam_i" for j in e),
            "quartic combination", *(f"cubic combination k={k}" for k in e),
            "quintic combination")


def _gamma15_columns(n: int, lam, mu) -> list[list]:
    """The contraction terms of the determinant matrix's columns, in lam and mu of any ring."""
    return [jet_terms(m, (lam, mu), along) for m, along in _gamma15_spec(n)]


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
    The normalized mu is (0, w_2, ..., w_n): M maps it to the frame's curve
    coefficient mu - w_1 lambda, whose entries off the pivot are w_2..w_n.
    """
    if is_normalized(jet) and not any(jet.base):
        return chart, jet
    frame, curve_mu = _normalized_frame(jet)
    n = chart.n
    new_jet = CurvilinearJet(base=(F0,) * n, lam=(F1,) + (F0,) * (n - 1),
                             mu=(F0,) + tuple(sum(map(mul, v, curve_mu)) for v in frame[1:]),
                             length=jet.length)
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


@dataclass(frozen=True)
class FiveJet:
    """Fifth-order jet of a curve: u = base + lam t + mu t^2 + nu t^3 + rho t^4 + sigma t^5."""

    base: Vector
    lam: Vector
    mu: Vector
    nu: Vector
    rho: Vector
    sigma: Vector

    def __post_init__(self):
        if all(c == 0 for c in self.lam):
            raise DegenerateJetError("lambda = 0")
        sizes = {len(self.base), len(self.lam), len(self.mu), len(self.nu),
                 len(self.rho), len(self.sigma)}
        if len(sizes) != 1:
            raise ValueError("jet coefficient vectors have mixed lengths")

    @property
    def coeffs(self) -> tuple[Vector, ...]:
        """lam, mu, nu, rho, sigma: the coefficients of t, ..., t^5."""
        return self.lam, self.mu, self.nu, self.rho, self.sigma


def curve_series(jet, order: int) -> list[tuple]:
    """Component series of u(t) = base + lam t + ... + sigma t^5, truncated at order."""
    coeffs = [jet.base, jet.lam, jet.mu, jet.nu, jet.rho, jet.sigma]
    return [tuple(coeffs[k][i] if k < len(coeffs) else F0 for k in range(order + 1))
            for i in range(len(jet.base))]


def composed_curve_series(chart: Chart, jet, order: int = 5) -> list[tuple]:
    """Coordinate-wise truncated series of t -> x(u(t)); the composition route."""
    curve = curve_series(jet, order)
    return [poly_compose_curve(p, curve, order) for p in chart_polys(chart)]


def curve_derivatives(chart: Chart, jet: FiveJet) -> tuple[Vector, Vector, Vector, Vector, Vector]:
    """Derivative vectors x', x'', ..., x''''' of t -> x(u(t)) at t = 0; the assembly route.

    ``jet_terms`` contracted as one span over the chart's order-5
    derivative table at the jet's base; independently equal to k! times
    the t^k coefficients of ``composed_curve_series``.
    """
    t = chart.integer_table(jet.base, 5)
    rows, scales = contract_numerators(t, [jet_terms(k, jet.coeffs) for k in range(1, 6)])
    return tuple(fraction_vector(row, t.dens, s) for row, s in zip(rows, scales))


# ---------------------------------------------------------------------------
# library-only second routes: the symbolic D audit, the dual hyperplane
# system and the coordinate-curve osc2 condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimAuditReport:
    """Exact symbolic expansion of D in (lambda, mu) at a fixed point.

    For n >= 2 also extracts the two determinant-relation coefficients
    (lam_1^{3n+7} mu_2 and lam_1^{3n+6} lam_2 mu_1) and the derived
    determinant |S x_1111 x_111 ... x_11n x_1112| whose vanishing they
    force whenever D == 0.
    """

    n: int
    identically_zero: bool
    total_degree: int
    degree_bound: int
    degree_bound_ok: bool
    evaluations_match: bool
    evaluations: int
    coeff_lam_high_mu2: Fraction | None
    coeff_lam_high_lam2_mu1: Fraction | None
    derived_det: Fraction | None


def gamma15_lamu_degree(n: int) -> int:
    """(lambda, mu)-degree bound of D: the sum of the columns' m, 3n + 9."""
    return sum(m for m, _ in _gamma15_spec(n))


def claim_coefficient_audit(chart: Chart, pt, evaluations: int = 10,
                            seed: int = 0) -> ClaimAuditReport:
    """Expand D symbolically (n <= 3) and audit its monomial coefficients.

    The columns are ``brute_contract``ed from ``symbolic_table`` with lambda
    and mu the ring's variables, and D is their ``poly_det``; it is checked
    against the package's numeric ``gamma15_matrix(...).det()`` at
    ``evaluations`` seeded (lambda, mu).
    """
    _require_square_ambient(chart)
    n = chart.n
    if n > 3:
        raise ValueError(f"symbolic expansion supported for n <= 3, got n={n}")
    nv = 2 * n  # variables: lam_1..lam_n, mu_1..mu_n
    lam = [MultiPoly.variable(nv, i) for i in range(n)]
    mu = [MultiPoly.variable(nv, n + i) for i in range(n)]
    table = symbolic_table(chart, pt, 5)
    cols = [brute_contract(table, n, chart.r + 1, terms) for terms in _gamma15_columns(n, lam, mu)]
    sym = poly_det([[x if isinstance(x, MultiPoly) else MultiPoly.constant(nv, x) for x in row]
                    for row in zip(*cols)])

    rng = random.Random(seed)
    match = True
    for _ in range(evaluations):
        lam_v = sample_point(rng, n)
        if all(c == 0 for c in lam_v):
            lam_v = (F1,) * n
        mu_v = sample_point(rng, n)
        if sym.eval(lam_v + mu_v) != gamma15_matrix(chart, pt, lam_v, mu_v).det():
            match = False

    coeff1 = coeff2 = derived = None
    if n >= 2:
        # exponents over (lam_1..lam_n, mu_1..mu_n): lam_1^{3n+7} mu_2, lam_1^{3n+6} lam_2 mu_1
        coeff1 = sym.coefficient((3 * n + 7,) + (0,) * n + (1,) + (0,) * (n - 2))
        coeff2 = sym.coefficient((3 * n + 6, 1) + (0,) * (n - 2) + (1,) + (0,) * (n - 1))
        # x, x_i, x_1j, x_1111, x_11k, x_1112: derivatives along the u_1 line
        e = unit_vectors(n)
        groups = [(0, ())] + [(0, (ei,)) for ei in e] + [(1, (ej,)) for ej in e] + [(4, ())]
        groups += [(2, (ek,)) for ek in e] + [(3, (e[1],))]
        derived = gauss_det([brute_contract(table, n, chart.r + 1, jet_terms(h, e[:1], along))
                             for h, along in groups])

    bound = gamma15_lamu_degree(n)
    deg = sym.total_degree()
    return ClaimAuditReport(n=n, identically_zero=sym.is_zero(), total_degree=deg,
                            degree_bound=bound, degree_bound_ok=(deg <= bound),
                            evaluations_match=match, evaluations=evaluations,
                            coeff_lam_high_mu2=coeff1, coeff_lam_high_lam2_mu1=coeff2,
                            derived_det=derived)


@dataclass(frozen=True)
class HyperplaneSystem:
    """Hyperplanes singular along the scheme: annihilator of the tangent span."""

    covectors: tuple[Vector, ...]
    dim: int                   # projective dimension of the system
    tangent_dim: int
    speciality_threshold: int  # system dim > threshold exactly when special
    special: bool


def hyperplane_system(chart: Chart, jet: CurvilinearJet) -> HyperplaneSystem:
    """Covector basis of the hyperplanes whose section is singular along the jet."""
    span = tangent_along(chart, jet)
    m = Matrix.from_rows(generators(span))
    covs = tuple(m.right_nullspace())
    for a in covs:  # nullspace contract: every covector kills every generator
        assert not any(sum(map(mul, a, v)) for v in generators(span))
    threshold = chart.r - jet.length * (chart.n + 1)
    sys_dim = len(covs) - 1
    return HyperplaneSystem(covectors=covs, dim=sys_dim, tangent_dim=span.dim,
                            speciality_threshold=threshold,
                            special=sys_dim > threshold)


@dataclass(frozen=True)
class Osc2CoordinateVerdict:
    """Sufficient condition along a coordinate curve: True implies regular."""

    sufficient: bool
    rank: int
    needed: int


def osc2_regular_coordinate(chart: Chart, pt) -> Osc2CoordinateVerdict:
    """Independence of x, x_i, x_1i, x_11i implies 2-osculating regularity.

    A False result is inconclusive (it is the criterion vectors at the
    special value lam = e_1, mu = 0, whose rank can drop below the generic
    one).
    """
    n = chart.n
    rank = _osc2_rank(chart, pt, unit_vectors(n)[0], (0,) * n)
    return Osc2CoordinateVerdict(sufficient=(rank == 3 * n + 1), rank=rank,
                                 needed=3 * n + 1)
