"""Polynomial charts of projective varieties and their jet calculus.

A chart is an affine polynomial parametrization u -> x(u) of an n-fold in
P^r: r+1 coordinate polynomials over Q.  Everything downstream consumes
derivative vectors of the chart at rational points, so this module owns
the derivative store, the contraction primitive, jet normalization and
generic projection.

A chart is its integer forms: one (den, coefficients, exponents) per
coordinate, in lowest terms, built from ints by the constructors, the
projection and the chart-file reader.  Each monomial that a built
derivative reads enters the chart's monomial list once, keyed by its
exponent tuple, with its total degree, and recorded as one step from a
parent entered before it: u^e is its parent times one u_v.  The
derivative store holds each mixed partial flat, its monomials referred
to by index, derived from its prefix's flat form in one pass of integer
differentiation that lowers each distinct monomial once.  A partial with
at most one term per coordinate (every partial of a Veronese or Segre
chart, the top-order partials of a dense chart) is one coefficient and
one index per coordinate; any other keeps the terms of all coordinates
in one list, with one slice per coordinate.  A point is scaled to a common denominator q, the monomial
list is evaluated in index order with one multiply per monomial (its
parent's value times one scaled coordinate), then one pass of q powers
when q != 1, and a row is one gather pass, or one multiply pass and one
sum per slice.  ``integer_table`` returns integers over a column scale
den_c, the coordinate's denominator, times a row scale q^D, the point's;
the two are kept apart, so rows of several points stack under one column
scale.  Every derivative combination of the analysis is a list of terms,
and a span's lists are contracted together: ``contract_numerators`` sums
every list of the span over one such table in one pass, into one row of
integer numerators and one row scale per list, so ranks and determinants
are taken of the numerators.  Exact values are built from the rows only
where they are kept, as canonical ``Fraction``s (``fraction_vector``,
with no gcd when both scales are 1, as at an integer point of an
integer-coefficient chart).  ``derivative_vector`` reads a single
multi-index as ``Fraction``s.  The smoothness test reads x through it and
ranks the n+1 rows x, x_1..x_n of the order-1 table's integers, which
rank's indifference to row and column scales allows; only where that
tangent rank falls short of n+1 does it rank the n first partials.

``integer_table`` is the one evaluator: it keeps one table of the last
point asked for, of the highest order asked there, with the tangent rank
once asked; a lower order reads it, and a new point or a higher order
evaluates afresh.  A span reads the order its own terms need
(``secants.LinearSpan.contracted``).  A point is drawn, tested for
smoothness and its tangent space read, all from one order-1 evaluation and
one rank; the five-jet rank and the span Pi at a curve's base share one
order-5 evaluation.  The memoized table is shared: do not modify it.

``jet_terms`` is the one place that holds Faa di Bruno coefficients.  The
generators along a jet, the 2-osculating criterion vectors, the
determinant columns, the five-jet vectors and Pi are each x or a first
partial of x differentiated m times along one curve u(t) = base + sum_k
c_k t^k, and ``jet_terms`` gives their contraction terms.  A jet is
normalized through its affine frame (chain rule, no polynomial
arithmetic, no normalized jet built): the partials along the frame's
columns and the curve are contracted from the chart's own table at the
jet's base.  The symbolic routes that tests
compare against (a formal partial chain evaluated term by term,
substitution of the frame into every coordinate, composition with the
curve's truncated series) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations_with_replacement, compress, repeat
from operator import add, attrgetter, itemgetter, mul, sub
from typing import NamedTuple, Sequence

from .exactlin import _F0, BadIndexError, Vector, randints, span_rank

# Largest coordinate count r + 1 that the catalog constructors build (checked
# before any polynomial exists) and that a chart file may declare.
MAX_COORDINATES = 1000
# Largest total degree of a chart file's term: the highest degree the
# constructors build (veronese:1:999); evaluation grows with the degree.
MAX_DEGREE = MAX_COORDINATES - 1
# Largest derivative table, C(n+h, h)(r+1) entries at order h, that the
# command line lets a check read; the shipped catalog, tests and benchmark
# read at most 1,890, veronese:900:1 at order 3 would read 1.1e11.
MAX_TABLE_ENTRIES = 200_000
# Largest chart file: json.load holds it whole, at 3-10 times its size.  1,000
# coordinates of 126 terms each, in JSON indented by 2, take 17 MB.
MAX_CHART_BYTES = 64 << 20
# Largest monomial list, in exponent entries (monomials x n).  The largest
# constructor charts hold 997,002 (veronese:998:1), 500,000 (segre:1:499) and
# 42,570 (random:43:2:989:1); a few kB of chart file whose partials enter long
# parent chains, such as u_1...u_999 at n = 2,000, would hold 10^9.
MAX_MONOMIAL_ENTRIES = 4_000_000


class DegenerateJetError(ValueError):
    """Jet has zero leading coefficient vector."""


class BadTargetError(ValueError):
    """Invalid projection target dimension."""


class AmbientTooSmallError(ValueError):
    """Ambient projective dimension below what the requested analysis needs."""


class ChartFormatError(ValueError):
    """Malformed chart JSON document."""


class TooLargeError(ValueError):
    """Requested chart has more coordinates or monomials than its cap."""


def multi_indices(n: int, max_order: int) -> list[tuple[int, ...]]:
    """All sorted derivative multi-indices of order <= max_order, by (order, lex)."""
    out: list[tuple[int, ...]] = []
    for h in range(max_order + 1):
        out.extend(combinations_with_replacement(range(n), h))
    return out


def unit_vectors(n: int) -> list[tuple[int, ...]]:
    """e_1..e_n as integer tuples, the coordinate directions of a contraction term."""
    return [tuple(int(t == i) for t in range(n)) for i in range(n)]


def _lowest_terms(den: int, coeffs: Sequence[int], exps: Sequence[tuple[int, ...]]) -> tuple:
    """The form (den, coefficients, exponents) of sum(c * u^e) / den in lowest terms.

    Zero terms are dropped, the rest sorted by exponent, and den and the
    coefficients divided by their gcd, so each polynomial has one form
    (den = 1 for zero).  A gcd of 1, as in every random chart, divides nothing.
    """
    g = math.gcd(den, *coeffs)
    if g != 1:
        den, coeffs = den // g, [c // g for c in coeffs]
    terms = sorted((e, c) for c, e in zip(coeffs, exps) if c)
    return den, tuple(c for _, c in terms), tuple(e for e, _ in terms)


class _MonomialList(dict):
    """A chart's monomials, {exponent: index}, entered on first use.

    Entry i is u^``exps[i]``, of total degree ``degs[i]``.  Entry 0 is u^0;
    entry i > 0 is its parent times u_v, ``steps[i - 1] = (parent index, v)``,
    with v the lowest variable of positive exponent.  Missing parents are
    entered first, so a parent's index is below its child's.  Exponents
    must be nonnegative: lowering a negative one never reaches u^0.  Each
    new entry is checked against MAX_MONOMIAL_ENTRIES before it is built.
    """

    __slots__ = ("exps", "degs", "steps")

    def __init__(self, n: int):
        super().__init__({(0,) * n: 0})
        self.exps, self.degs, self.steps = [(0,) * n], [0], []

    def __missing__(self, e: tuple) -> int:
        chain = []  # (exponent, v) of e and its missing ancestors, youngest first
        while e not in self:
            if (len(self.exps) + len(chain) + 1) * len(e) > MAX_MONOMIAL_ENTRIES:
                raise TooLargeError(f"the chart's monomial list would pass the cap of"
                                    f" {MAX_MONOMIAL_ENTRIES} exponent entries (monomials x n)")
            v = next(i for i, k in enumerate(e) if k)
            chain.append((e, v))
            e = e[:v] + (e[v] - 1,) + e[v + 1:]
        parent = self[e]
        for e, v in reversed(chain):
            self.steps.append((parent, v))
            parent = self[e] = len(self.exps)
            self.exps.append(e)
            self.degs.append(sum(e))
        return parent


def _flat_form(cs: list, ids: list, stops: list) -> tuple:
    """Flat form (coefficients, monomial indices, cuts) of the terms cs, ids.

    Coordinate c holds the terms before ``stops[c]``.  With at most one term
    per coordinate it is a gather form: one coefficient and index per
    coordinate, 0 and 0 (u^0) where it has none, and cuts None; otherwise
    coordinate c's terms are ``cs[cuts[c]]``.
    """
    starts = [0] + stops
    if max(map(sub, stops, starts), default=0) < 2:
        pick = [a if b > a else -1 for a, b in zip(starts, stops)]  # -1: the appended zero term
        return (list(map((cs + [0]).__getitem__, pick)), list(map((ids + [0]).__getitem__, pick)),
                None)
    return cs, ids, tuple(map(slice, starts, stops))


def _flat_partial(flat: tuple, v: int, mons: _MonomialList) -> tuple:
    """Flat form of the partial derivative in variable v, in one pass over the terms.

    The exponent of u_v of each term is read from the list's exponents, and
    each distinct monomial of the terms is lowered once: its exponent with
    e_v - 1 in slot v is looked up, entering it if new.  A gather form's
    empty coordinates read u^0, so they drop out like the terms free of
    u_v.  The denominators are the chart's and do not change.
    """
    cs, ids, cuts = flat
    ks = list(map(itemgetter(v), map(mons.exps.__getitem__, ids)))  # e_v per term
    kept = list(accumulate(map(bool, ks), initial=0))
    stops = kept[1:] if cuts is None else list(map(kept.__getitem__, map(attrgetter("stop"), cuts)))
    ids = list(compress(ids, ks))
    lowered = {i: mons[e[:v] + (e[v] - 1,) + e[v + 1:]]
               for i in dict.fromkeys(ids) for e in [mons.exps[i]]}
    return _flat_form(list(map(mul, compress(cs, ks), filter(None, ks))),
                      list(map(lowered.__getitem__, ids)), stops)


class IntegerTable(NamedTuple):
    """Chart derivatives of order <= ``order`` at one point, denominators cleared.

    Entry c of the derivative at a sorted multi-index is
    ``nums[key][c] / (dens[c] * scale)``: ``dens`` is the chart's column
    scale den_c and ``scale`` the point's q^D.  Keys whose vector vanishes
    are left out, and ``top`` is the highest order of a key kept (-1 if none).
    """

    nums: dict[tuple[int, ...], tuple[int, ...]]
    dens: tuple[int, ...]
    scale: int
    n: int
    order: int
    top: int

    def rows(self, keys: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
        """The numerator rows at sorted multi-indices, zero rows included."""
        zero = (0,) * len(self.dens)
        return tuple(self.nums.get(key, zero) for key in keys)


@dataclass(frozen=True)
class Chart:
    """Affine polynomial chart of an n-dimensional variety in P^r.

    ``forms`` holds per coordinate sum(c * u^e) / den as (den, coefficients,
    exponents), den > 0 and exponents distinct, put in lowest terms by
    ``_lowest_terms``.
    """

    label: str
    n: int
    r: int
    forms: tuple[tuple, ...]
    # The derivative store: {sorted multi-index: flat form} (see ``_flat_form``).
    _dcache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The monomials that the flat forms read, by index.
    _mons: _MonomialList = field(default=None, init=False, repr=False, compare=False)
    # Chart degree D, the largest total degree of a term (0 for the zero chart).
    _degree: int = field(default=0, init=False, repr=False, compare=False)
    # Per coordinate, the common denominator of its integer forms.
    _dens: tuple = field(default=(), init=False, repr=False, compare=False)
    # The last point given to ``integer_table``, its table of the highest order
    # asked there, and the rank of its order-1 rows (None until ``tangent_rank`` asks).
    _memo: list = field(default_factory=lambda: [None, None, None], init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if len(self.forms) != self.r + 1:
            raise ValueError(f"chart needs r+1={self.r + 1} forms, got {len(self.forms)}")
        if any(den < 1 for den, _, _ in self.forms):
            raise ValueError("form denominators must be positive")
        forms = tuple(_lowest_terms(*f) for f in self.forms)
        exps = [e for _, _, es in forms for e in es]
        distinct = dict.fromkeys(exps)  # a random chart repeats its monomials in every coordinate
        if any(len(e) != self.n for e in distinct):
            raise ValueError("coordinate form has wrong variable count")
        if any(k < 0 for e in distinct for k in e):
            raise ValueError("coordinate form has a negative exponent")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "_dens", tuple(den for den, _, _ in forms))
        object.__setattr__(self, "_degree", max(map(sum, distinct), default=0))
        object.__setattr__(self, "_mons", _MonomialList(self.n))
        self._dcache[()] = _flat_form([c for _, cs, _ in forms for c in cs],
                                      list(map(self._mons.__getitem__, exps)),
                                      list(accumulate(len(cs) for _, cs, _ in forms)))

    # -- derivatives ---------------------------------------------------------

    def _flat(self, key: tuple[int, ...]) -> tuple:
        """Flat form of the mixed partial at a sorted, valid multi-index."""
        flat = self._dcache.get(key)
        if flat is None:
            flat = self._dcache[key] = _flat_partial(self._flat(key[:-1]), key[-1], self._mons)
        return flat

    def _numerators(self, pt: Sequence[Fraction], keys: Sequence[tuple[int, ...]]
                    ) -> tuple[list[tuple[int, ...]], int]:
        """Integer numerators of the derivative vectors at pt, and the scale q^D.

        With q the common denominator of pt and A_i = q * pt_i, a monomial
        u^e with |e| <= D is q^(D - |e|) A^e / q^D, so coordinate c of every
        derivative is an integer combination of these values of the monomial
        list over den_c * q^D, den_c the coordinate's denominator.  The keys'
        flat forms are built first, so that the list holds all they read;
        then A^e is its parent's value times one A_v, in index order.
        """
        if len(pt) != self.n:
            raise ValueError("point has wrong length")
        flats = [self._flat(key) for key in keys]
        q = math.lcm(*(x.denominator for x in pt))
        a = [x.numerator * (q // x.denominator) for x in pt]
        vals = [1]
        for p, v in self._mons.steps:
            vals.append(vals[p] * a[v])
        if q != 1:
            qpowers = list(accumulate(repeat(q, self._degree), mul, initial=1))[::-1]
            vals = list(map(mul, vals, map(qpowers.__getitem__, self._mons.degs)))
        rows = []
        for cs, ids, cuts in flats:
            terms = list(map(mul, cs, map(vals.__getitem__, ids)))
            rows.append(tuple(terms) if cuts is None  # a gather form
                        else tuple(map(sum, map(terms.__getitem__, cuts))))
        return rows, q ** self._degree

    def derivative_vector(self, pt: Sequence[Fraction], idx: Sequence[int]) -> Vector:
        """Value at pt of the mixed partial, as canonical Fractions; symmetric in idx.

        A key of order h is read from ``integer_table(pt, max(1, h))``.
        """
        key = tuple(sorted(idx))
        for i in key:
            if not 0 <= i < self.n:
                raise BadIndexError(f"derivative index {i} out of range for n={self.n}")
        t = self.integer_table(pt, max(1, len(key)))
        return fraction_vector(t.nums.get(key, (0,) * len(t.dens)), t.dens, t.scale)

    def integer_table(self, pt: Sequence[Fraction], h: int) -> IntegerTable:
        """Derivatives of order <= h at pt as integer numerators; what contractions read.

        One table of the last point asked for is kept, of the highest h asked
        there; a lower h reads it (order >= h, same rows at those keys), so it is
        evaluated again only when the point changes or h passes it.  Points match
        by value, so ints and equal Fractions share it; read it, do not modify it.
        """
        pt = tuple(pt)
        if self._memo[0] != pt:
            self._memo[:] = pt, None, None
        t = self._memo[1]
        if t is None or t.order < h:
            # partials above the chart degree vanish
            keys = multi_indices(self.n, min(h, self._degree))
            rows, scale = self._numerators(pt, keys)
            nums = {key: row for key, row in zip(keys, rows) if any(row)}
            t = self._memo[1] = IntegerTable(nums, self._dens, scale, self.n, h,
                                             max(map(len, nums), default=-1))
        return t

    # -- basic geometry -------------------------------------------------------

    def jacobian_rank(self, pt: Sequence[Fraction]) -> int:
        """Rank of the n first partials, taken of the order-1 table's integer rows."""
        return span_rank(self.integer_table(pt, 1).rows([(i,) for i in range(self.n)]))

    def tangent_rank(self, pt: Sequence[Fraction]) -> int:
        """Rank of x, x_1..x_n at pt, taken of the order-1 table's integer rows.

        It is kept with the point's tables, so a point is ranked once.
        """
        t = self.integer_table(pt, 1)
        if self._memo[2] is None:
            self._memo[2] = span_rank(t.rows(multi_indices(self.n, 1)))
        return self._memo[2]

    def is_smooth_at(self, pt: Sequence[Fraction]) -> bool:
        """Chart smoothness: a nonzero coordinate vector and Jacobian rank n.

        x is read through ``derivative_vector``.  Tangent rank n+1 implies
        Jacobian rank n, so the n first partials are ranked only where the
        memoized ``tangent_rank`` falls short.
        """
        if all(c == 0 for c in self.derivative_vector(pt, ())):
            return False
        return self.tangent_rank(pt) == self.n + 1 or self.jacobian_rank(pt) == self.n

    def max_coord_degree(self) -> int:
        return self._degree

    def is_nondegenerate(self) -> bool:
        """Coordinates independent (X spans P^r): ranks the flat x form, read by monomial index."""
        cs, ids, cuts = self._dcache[()]
        rows = [[0] * len(self._mons) for _ in self.forms]
        for row, cut in zip(rows, cuts or [slice(c, c + 1) for c in range(len(cs))]):
            for c, i in zip(cs[cut], ids[cut]):
                row[i] = c
        return span_rank(rows) == self.r + 1


# ---------------------------------------------------------------------------
# contraction of the derivative tensor with direction vectors
# ---------------------------------------------------------------------------

def fraction_vector(nums: Sequence[int], dens: Sequence[int], scale: int) -> Vector:
    """The exact vector of a numerator form: entry c is nums[c] / (dens[c] * scale).

    An integral form (scale 1, every den_c 1) needs no gcd.
    """
    if scale == 1 and dens.count(1) == len(dens):
        return tuple(map(Fraction, nums))
    return tuple(Fraction(a, d * scale) if a else _F0 for a, d in zip(nums, dens))


def _times(part: dict, v: Sequence) -> dict:
    """Multiply {sorted multi-index: scalar} by the linear form sum_i v[i] e_i."""
    out: dict = {}
    for key, s in part.items():
        for i, x in enumerate(v):
            if x:
                k = key + (i,) if not key or key[-1] <= i else tuple(sorted(key + (i,)))
                out[k] = out.get(k, 0) + s * x
    return out


def contract_numerators(table: IntegerTable, term_lists: Sequence[Sequence[tuple]]
                        ) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Numerator rows and row scales of a span of term lists, contracted in one pass.

    Term list i stands for the vector sum of c * D^h x[v_1, ..., v_h] over
    its terms (c, (v_1, ..., v_h)), where D^h x[v_1, ..., v_h] sums
    v_1[i_1] ... v_h[i_h] x_{i_1...i_h} over ordered indices.  Entry c of
    vector i is ``rows[i][c] / (dens[c] * scales[i])``, ``dens`` being
    ``table.dens``.  Every term's order and direction length are
    checked once, and terms above ``table.top`` are dropped (they read
    zeros).  The int or ``Fraction`` directions and coefficients are
    cleared to integers with one common denominator s for the whole span:
    a term c * D^h x[v_1..v_h] is c.numerator * D^h x[s v_1..s v_h] over
    c.denominator * s^h, and a row's scale is the lcm of its terms' times
    the table's q^D.  Each direction object is cleared once per span.  Each
    term expands its own product of directions into {sorted multi-index:
    scalar}, one direction at a time, merging keys at every step, so an
    order-5 term at n = 4 reads 56 distinct derivatives, not 1024 ordered
    index tuples; each row reads each distinct derivative once, in one
    pass over the width.  Every vector
    contracted from one chart's tables is its numerators over a row scale
    times a column scale (den_c), so ranks and determinants can be taken
    of the numerators.
    """
    for terms in term_lists:
        for _, vs in terms:
            if len(vs) > table.order:
                raise ValueError(f"term of order {len(vs)} above the table's order {table.order}")
            if any(len(v) != table.n for v in vs):
                raise ValueError(f"direction length differs from the chart's n={table.n}")
    lists = [[(c, vs) for c, vs in terms if len(vs) <= table.top] for terms in term_lists]
    vecs = {id(v): v for terms in lists for _, vs in terms for v in vs}
    s = math.lcm(*(x.denominator for v in vecs.values() for x in v))
    vecs = {k: tuple(x.numerator * (s // x.denominator) for x in v) for k, v in vecs.items()}
    rows, scales = [], []
    for terms in lists:
        dens = [c.denominator * s ** len(vs) for c, vs in terms]
        scale = math.lcm(*dens)
        coeffs: dict = {}
        for (c, vs), d in zip(terms, dens):
            part = {(): c.numerator * (scale // d)}
            for v in vs:
                part = _times(part, vecs[id(v)])
            for k, x in part.items():
                coeffs[k] = coeffs.get(k, 0) + x
        acc: list = [0] * len(table.dens)
        for k, x in coeffs.items():
            row = table.nums.get(k)
            if row is not None:
                acc = list(map(add, acc, map(mul, row, repeat(x))))
        rows.append(tuple(acc))
        scales.append(scale * table.scale)
    return tuple(rows), tuple(scales)


@cache
def _partitions(m: int, largest: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(m! / prod(multiplicity!), P) per multiset P of part sizes <= largest summing to m."""
    parts = [(top,) + rest for top in range(min(m, largest), 0, -1)
             for _, rest in _partitions(m - top, top)] if m else [()]
    return tuple((math.factorial(m) // math.prod(math.factorial(p.count(k)) for k in set(p)), p)
                 for p in parts)


def jet_terms(m: int, coeffs: Sequence, along: tuple = ()) -> list[tuple]:
    """Contraction terms of d_along (d/dt)^m x(u(t)) at t = 0 (Faa di Bruno).

    u(t) = base + sum_k coeffs[k-1] t^k and ``along`` is a tuple of
    directions of partial derivatives taken before the curve is followed.
    There is one term per multiset P of part sizes <= len(coeffs) summing
    to m: coefficient m! / prod(multiplicity!), directions
    ``along + (coeffs[k-1] for k in P)``.
    """
    return [(c, along + tuple(coeffs[k - 1] for k in parts))
            for c, parts in _partitions(m, len(coeffs))]


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvilinearJet:
    """Length-2 or length-3 curvilinear scheme: u = base + lam*t + mu*t^2."""

    base: Vector
    lam: Vector
    mu: Vector
    length: int

    def __post_init__(self):
        if self.length not in (2, 3):
            raise ValueError("jet length must be 2 or 3")
        if all(c == 0 for c in self.lam):
            raise DegenerateJetError("lambda = 0")
        if not len(self.base) == len(self.lam) == len(self.mu):
            raise ValueError("base/lambda/mu length mismatch")

    @property
    def n(self) -> int:
        return len(self.base)


def _normalized_frame(jet: CurvilinearJet) -> tuple[list[Vector], Vector]:
    """Columns M e_j of the affine frame M, and the curve's second coefficient mu - w_1 lambda.

    M has lambda as first column and e_i (i != pivot p) as the others, so
    u = base + M w is invertible and M w = mu is solved in closed form:
    w_1 = mu_p / lambda_p and w_i = mu_i - w_1 lambda_i.  Rescaling the
    curve parameter (t -> s - w_1 s^2) kills mu_1: M maps the normalized
    mu (0, w_2..w_n) to mu - w_1 lambda, the chart's own coordinates.
    """
    pivot = next(i for i, x in enumerate(jet.lam) if x != 0)
    w1 = Fraction(jet.mu[pivot]) / jet.lam[pivot]
    e = unit_vectors(jet.n)
    return ([tuple(jet.lam)] + e[:pivot] + e[pivot + 1:],
            tuple(m - w1 * x for m, x in zip(jet.mu, jet.lam)))


def project_generic(chart: Chart, r_target: int, seed: int) -> Chart:
    """Generic linear projection of the chart into P^{r_target}.

    Coordinates are replaced by (r_target+1) seeded random integer linear
    combinations, summed as integer forms over the lcm of the coordinate
    denominators; the result is checked to stay smooth and nondegenerate at
    desk scale, retrying with derived seeds a bounded number of times.
    """
    if r_target == chart.r:
        return chart
    if r_target > chart.r or r_target < 2 * chart.n:
        raise BadTargetError(
            f"projection target {r_target} invalid for r={chart.r}, n={chart.n}")
    import random

    den = math.lcm(*(d for d, _, _ in chart.forms))
    scaled = [[(e, c * (den // d)) for c, e in zip(cs, es)] for d, cs, es in chart.forms]
    for attempt in range(20):
        rng = random.Random(seed + 7919 * attempt)
        forms = []
        for _ in range(r_target + 1):
            row = randints(rng, -9, 9, chart.r + 1)
            acc: dict = {}
            for a, terms in zip(row, scaled):
                if a:
                    for e, c in terms:
                        acc[e] = acc.get(e, 0) + a * c
            forms.append((den, tuple(acc.values()), tuple(acc)))
        cand = Chart(f"{chart.label}|proj{r_target}(seed={seed})", chart.n,
                     r_target, tuple(forms))
        test_pts = [tuple(_F0 for _ in range(chart.n)),
                    tuple(Fraction((i * 3 + 1) % 5 - 2) for i in range(chart.n))]
        if all(cand.is_smooth_at(pt) for pt in test_pts if chart.is_smooth_at(pt)) \
                and cand.is_nondegenerate():
            return cand
    raise BadTargetError("no smooth nondegenerate projection found (degenerate chart?)")


# ---------------------------------------------------------------------------
# chart file format (exact JSON)
# ---------------------------------------------------------------------------

def obj_to_chart(obj: dict) -> Chart:
    if not isinstance(obj, dict):
        raise ChartFormatError("chart document must be a JSON object")
    for key in ("label", "n", "r", "coords"):
        if key not in obj:
            raise ChartFormatError(f"missing key {key!r}")
    if not isinstance(obj["label"], str):
        raise ChartFormatError("label must be a string")
    n, r = obj["n"], obj["r"]
    for key, v in (("n", n), ("r", r)):
        # type(v) is int: JSON true/false load as bool, an int subclass
        if not (type(v) is int and v >= 1):
            raise ChartFormatError(f"{key} must be a positive integer")
    if r + 1 > MAX_COORDINATES:
        raise ChartFormatError(f"chart declares {r + 1} coordinates,"
                               f" above the cap of {MAX_COORDINATES}")
    if (n + 1) * (r + 1) > MAX_TABLE_ENTRIES:  # no check can read even an order-1 table
        raise ChartFormatError(f"chart declares n={n} and r={r}: (n+1)(r+1) = {(n + 1) * (r + 1)}"
                               f" table entries, above the cap of {MAX_TABLE_ENTRIES}")
    coords = obj["coords"]
    if not isinstance(coords, list) or len(coords) != r + 1:
        raise ChartFormatError(f"coords must be a list of r+1={r + 1} polynomials")
    forms = []
    for ci, terms in enumerate(coords):
        if not isinstance(terms, list):
            raise ChartFormatError(f"coords[{ci}] must be a list of terms")
        tdict = {}
        for ti, term in enumerate(terms):
            where = f"coords[{ci}][{ti}]"
            if not isinstance(term, dict):
                raise ChartFormatError(f"{where} must be an object")
            exp = term.get("exp")
            if (not isinstance(exp, list) or len(exp) != n
                    or any(type(e) is not int or e < 0 for e in exp)):
                raise ChartFormatError(f"{where}.exp must be {n} nonnegative integers")
            if sum(exp) > MAX_DEGREE:
                raise ChartFormatError(f"{where} has total degree {sum(exp)},"
                                       f" above the cap of {MAX_DEGREE}")
            try:
                num, den = term["num"], term["den"]
                if not (isinstance(num, str) and isinstance(den, str)):
                    raise TypeError("num/den are not strings")
                num, den = int(num), int(den)
            except (KeyError, ValueError, TypeError) as exc:
                raise ChartFormatError(f"{where} needs decimal-string num/den") from exc
            if den <= 0:
                raise ChartFormatError(f"{where}.den must be positive")
            if tuple(exp) in tdict:
                raise ChartFormatError(f"{where} repeats the exponent {exp} of an earlier term")
            tdict[tuple(exp)] = num, den
        den = math.lcm(*(d for _, d in tdict.values()))
        forms.append((den, tuple(a * (den // d) for a, d in tdict.values()), tuple(tdict)))
    return Chart(obj["label"], n, r, tuple(forms))


def load_chart(path) -> Chart:
    # one byte past the cap, read and not stat'ed: a device or a pipe has size 0
    with open(path, "rb") as fh:
        data = fh.read(MAX_CHART_BYTES + 1)
    if len(data) > MAX_CHART_BYTES:
        raise ChartFormatError(f"{path}: file above the cap of {MAX_CHART_BYTES} bytes")
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ChartFormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ChartFormatError(f"{path}: JSON nested too deeply to read") from exc
    return obj_to_chart(obj)
