"""Polynomial charts of projective varieties and their jet calculus.

A chart is an affine polynomial parametrization u -> x(u) of an n-fold in
P^r: r+1 coordinate polynomials over Q.  Everything downstream consumes
derivative vectors of the chart at rational points, so this module owns
the derivative store, the contraction primitive, jet normalization,
generic projection, and the derivatives of a curve through the chart up
to fifth order.

Derivatives come from integer forms.  Each coordinate is stored once with
its denominators cleared (a common denominator and integer coefficients),
and each mixed partial is derived from its prefix by integer
differentiation.  A point is scaled to a common denominator q, one table
of integer powers is built per point and shared by every multi-index of
the request.  ``integer_table`` returns integers over one denominator per
coordinate, and every derivative combination of the analysis is a list of
terms that ``contract`` sums over one such table.  ``contract_numerators``
gives the same sum as integer numerators and one scale; entry c's
denominator is den_c times a factor of the point and the terms, so ranks
and determinants are taken of the numerators (a row scale times a column
scale) and ``contract`` builds canonical ``Fraction``s from them only where
exact values are kept.  ``derivative_vector`` reads a single multi-index as
``Fraction``s for the smoothness test.

The order-1 table of the last point asked for is memoized per chart: a
point is drawn, tested for smoothness (x and the n first partials) and its
tangent space is read, all from one evaluation.  ``derivative_vector``
reads requests of order <= 1 from that table and ``integer_table(pt, 1)``
returns it while the point is unchanged; the memoized table is shared, so
callers must not modify it.

``normalized_derivatives`` normalizes a jet by contracting the chart's
own derivative table at the jet's base point through the affine frame
(chain rule, no polynomial arithmetic).  The symbolic routes that tests
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
from itertools import combinations_with_replacement, repeat
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .exactlin import (
    BadIndexError,
    Matrix,
    MultiPoly,
    Vector,
    solve_square,
    span_rank,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

# Largest coordinate count r + 1 that the catalog constructors build (checked
# before any polynomial exists) and that a chart file may declare.
MAX_COORDINATES = 1000
# Largest derivative table, C(n+h, h)(r+1) entries at order h, that the
# command line lets a check read; the shipped catalog, tests and benchmark
# read at most 1,890, veronese:900:1 at order 3 would read 1.1e11.
MAX_TABLE_ENTRIES = 200_000


class DegenerateJetError(ValueError):
    """Jet has zero leading coefficient vector."""


class BadTargetError(ValueError):
    """Invalid projection target dimension."""


class AmbientTooSmallError(ValueError):
    """Ambient projective dimension below what the requested analysis needs."""


class ChartFormatError(ValueError):
    """Malformed chart JSON document."""


def multi_indices(n: int, max_order: int) -> list[tuple[int, ...]]:
    """All sorted derivative multi-indices of order <= max_order, by (order, lex)."""
    out: list[tuple[int, ...]] = []
    for h in range(max_order + 1):
        out.extend(combinations_with_replacement(range(n), h))
    return out


def unit_vectors(n: int) -> list[tuple[int, ...]]:
    """e_1..e_n as integer tuples, the coordinate directions of ``contract``."""
    return [tuple(int(t == i) for t in range(n)) for i in range(n)]


def _integer_form(p: MultiPoly) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(den, coefficients, exponents) with p = sum(c * u^e) / den, all ints."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return (den, tuple(c.numerator * (den // c.denominator) for c in p.terms.values()),
            tuple(p.terms))


def _partial_form(form: tuple, v: int) -> tuple:
    """Integer form of the partial derivative in variable v; den is unchanged."""
    den, cs, es = form
    pairs = [(c * e[v], e[:v] + (e[v] - 1,) + e[v + 1:]) for c, e in zip(cs, es) if e[v]]
    return den, tuple(c for c, _ in pairs), tuple(e for _, e in pairs)


class _Monomials(dict):
    """q^(D - |e|) * prod A_i^e_i per exponent e at one point, filled on first use.

    ``powers[i][k]`` is A_i^k and ``qpowers[k]`` is q^k for k <= D.
    """

    __slots__ = ("powers", "qpowers")

    def __init__(self, powers: list[list[int]], qpowers: list[int]):
        super().__init__()
        self.powers, self.qpowers = powers, qpowers

    def __missing__(self, e: tuple[int, ...]) -> int:
        v = self.qpowers[-1 - sum(e)]
        for row, k in zip(self.powers, e):
            if k:
                v *= row[k]
        self[e] = v
        return v


class IntegerTable(NamedTuple):
    """Chart derivatives of order <= ``order`` at one point, denominators cleared.

    Entry c of the derivative at a sorted multi-index is
    ``nums[key][c] / dens[c]``; keys whose vector vanishes are left out, and
    ``top`` is the highest order of a key kept (-1 if none).
    """

    nums: dict[tuple[int, ...], tuple[int, ...]]
    dens: tuple[int, ...]
    n: int
    order: int
    top: int


@dataclass(frozen=True)
class Chart:
    """Affine polynomial chart of an n-dimensional variety in P^r."""

    label: str
    n: int
    r: int
    coords: tuple[MultiPoly, ...]
    _dcache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Chart degree D and, per variable, the highest exponent in any coordinate.
    _degree: int = field(default=0, init=False, repr=False, compare=False)
    _top: tuple = field(default=(), init=False, repr=False, compare=False)
    # Per coordinate, the common denominator of its integer forms.
    _dens: tuple = field(default=(), init=False, repr=False, compare=False)
    # The last point given to ``_tangent_table`` and its order-1 table.
    _memo: list = field(default_factory=lambda: [None, None], init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if len(self.coords) != self.r + 1:
            raise ValueError(f"chart needs r+1={self.r + 1} coords, got {len(self.coords)}")
        for p in self.coords:
            if p.num_vars != self.n:
                raise ValueError("coordinate polynomial has wrong variable count")
        self._dcache[()] = tuple(_integer_form(p) for p in self.coords)
        object.__setattr__(self, "_dens", tuple(den for den, _, _ in self._dcache[()]))
        exps = [e for p in self.coords for e in p.terms]
        object.__setattr__(self, "_degree", max(self.max_coord_degree(), 0))
        object.__setattr__(self, "_top", tuple(max((e[i] for e in exps), default=0)
                                              for i in range(self.n)))

    # -- derivatives ---------------------------------------------------------

    def _forms(self, key: tuple[int, ...]) -> tuple:
        """Integer forms of the mixed partial at a sorted, valid multi-index."""
        forms = self._dcache.get(key)
        if forms is None:
            v = key[-1]
            forms = self._dcache[key] = tuple(_partial_form(f, v)
                                              for f in self._forms(key[:-1]))
        return forms

    def _numerators(self, pt: Sequence[Fraction], keys: Sequence[tuple[int, ...]]
                    ) -> tuple[list[tuple[int, ...]], int]:
        """Integer numerators of the derivative vectors at pt, and the scale q^D.

        With q the common denominator of pt and A_i = q * pt_i, a monomial
        u^e with |e| <= D is q^(D - |e|) A^e / q^D, so coordinate c of every
        derivative is an integer combination of one table of integer
        monomial values over den_c * q^D, den_c the coordinate's denominator.
        """
        if len(pt) != self.n:
            raise ValueError("point has wrong length")
        q = math.lcm(*(x.denominator for x in pt))
        powers = []
        for x, top in zip(pt, self._top):
            a, row = x.numerator * (q // x.denominator), [1]
            for _ in range(top):
                row.append(row[-1] * a)
            powers.append(row)
        qpowers = [q ** k for k in range(self._degree + 1)]
        get = _Monomials(powers, qpowers).__getitem__
        zero = (0,) * len(self._dens)  # partials above the chart degree vanish
        rows = [zero if len(key) > self._degree else
                tuple(sum(map(mul, cs, map(get, es))) for _, cs, es in self._forms(key))
                for key in keys]
        return rows, qpowers[-1]

    def derivative_vector(self, pt: Sequence[Fraction], idx: Sequence[int]) -> Vector:
        """Value at pt of the mixed partial, as canonical Fractions; symmetric in idx.

        Orders <= 1 are read from the memoized order-1 table of pt.
        """
        key = tuple(sorted(idx))
        for i in key:
            if not 0 <= i < self.n:
                raise BadIndexError(f"derivative index {i} out of range for n={self.n}")
        if len(key) <= 1:
            t = self._tangent_table(pt)
            return fraction_vector(t.nums.get(key, (0,) * len(t.dens)), t.dens)
        (row,), scale = self._numerators(pt, (key,))
        return fraction_vector(row, self._dens, scale)

    def integer_table(self, pt: Sequence[Fraction], h: int) -> IntegerTable:
        """Derivatives of order <= h at pt as integer numerators; what ``contract`` reads.

        The order-1 table is the memoized one: read it, do not modify it.
        """
        if h == 1:
            return self._tangent_table(pt)
        return self._table(pt, h)

    def _table(self, pt: Sequence[Fraction], h: int) -> IntegerTable:
        keys = multi_indices(self.n, h)
        rows, scale = self._numerators(pt, keys)
        nums = {key: row for key, row in zip(keys, rows) if any(row)}
        return IntegerTable(nums, tuple(den * scale for den in self._dens), self.n, h,
                            max(map(len, nums), default=-1))

    def _tangent_table(self, pt: Sequence[Fraction]) -> IntegerTable:
        """The order-1 table at pt, kept for the last point asked for.

        Points match by value, so ints and equal Fractions share the entry.
        """
        key = tuple(pt)
        if self._memo[0] != key:
            self._memo[:] = key, self._table(key, 1)
        return self._memo[1]

    # -- basic geometry -------------------------------------------------------

    def jacobian_rank(self, pt: Sequence[Fraction]) -> int:
        return span_rank([self.derivative_vector(pt, (i,)) for i in range(self.n)])

    def is_smooth_at(self, pt: Sequence[Fraction]) -> bool:
        """Chart smoothness: Jacobian rank n and a nonzero coordinate vector."""
        if all(c == 0 for c in self.derivative_vector(pt, ())):
            return False
        return self.jacobian_rank(pt) == self.n

    def max_coord_degree(self) -> int:
        return max((p.total_degree() for p in self.coords), default=-1)

    def is_nondegenerate(self) -> bool:
        """Coordinates linearly independent as polynomials (X spans P^r)."""
        mons = sorted({e for p in self.coords for e in p.terms})
        rows = [[p.terms.get(e, _F0) for e in mons] for p in self.coords]
        return span_rank(rows) == self.r + 1


# ---------------------------------------------------------------------------
# contraction of the derivative tensor with direction vectors
# ---------------------------------------------------------------------------

def fraction_vector(nums: Sequence[int], dens: Sequence[int], scale: int = 1) -> Vector:
    """The exact vector of a numerator form: entry c is nums[c] / (dens[c] * scale)."""
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


def contract_numerators(table: IntegerTable, terms: Sequence[tuple]) -> tuple[list, int]:
    """Numerator form (ints, scale) of ``contract``: entry c is ints[c] / (dens[c] * scale).

    ``dens`` is ``table.dens``.  Each product of linear forms is expanded
    into {sorted multi-index: scalar}, merging keys at every step, so each
    distinct derivative is read once, in one pass over the width.  Numeric
    directions and coefficients are cleared to integers with one common
    denominator, which ``scale`` carries; ring scalars (the MultiPoly
    lambda, mu of the symbolic audit) go through the same expansion with
    scale 1 and come back as ring elements.  Every vector contracted from
    one chart's tables is its numerators over a row scale (q^D * scale)
    times a column scale (den_c), so ranks and determinants can be taken
    of the numerators.
    """
    for _, vs in terms:
        if len(vs) > table.order:
            raise ValueError(f"term of order {len(vs)} above the table's order {table.order}")
        if any(len(v) != table.n for v in vs):
            raise ValueError(f"direction length differs from the chart's n={table.n}")
    terms = [(c, vs) for c, vs in terms if len(vs) <= table.top]  # the rest read zeros
    vecs = {id(v): v for _, vs in terms for v in vs}
    if all(isinstance(x, (int, Fraction)) for v in vecs.values() for x in v):
        s = math.lcm(*(x.denominator for v in vecs.values() for x in v))
        vecs = {k: tuple(x.numerator * (s // x.denominator) for x in v)
                for k, v in vecs.items()}
        # term c * D^h x[v_1..v_h] is c.numerator * D^h x[s v_1..s v_h] / (c.denominator s^h)
        dens = [c.denominator * s ** len(vs) for c, vs in terms]
        scale = math.lcm(*dens)
        mults = [c.numerator * (scale // d) for (c, _), d in zip(terms, dens)]
    else:
        scale, mults = 1, [c for c, _ in terms]
    coeffs: dict = {}
    for m, (_, vs) in zip(mults, terms):
        part = {(): m}
        for v in vs:
            part = _times(part, vecs[id(v)])
        for key, x in part.items():
            coeffs[key] = coeffs.get(key, 0) + x
    acc: list = [0] * len(table.dens)
    for key, x in coeffs.items():
        row = table.nums.get(key)
        if row is not None:
            acc = list(map(add, acc, map(mul, row, repeat(x))))
    return acc, scale


def contract(table: IntegerTable, terms: Sequence[tuple]) -> Vector:
    """Sum of c * D^h x[v_1, ..., v_h] over ``terms`` (c, (v_1, ..., v_h)).

    D^h x[v_1, ..., v_h] sums v_1[i_1] ... v_h[i_h] x_{i_1...i_h} over ordered
    indices.  Numeric terms give canonical Fractions, built from
    ``contract_numerators``; ring scalars give ring elements.
    """
    acc, scale = contract_numerators(table, terms)
    if all(type(a) is int for a in acc):
        return fraction_vector(acc, table.dens, scale)
    return tuple(a * Fraction(1, d) for a, d in zip(acc, table.dens))  # scale is 1


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
    def n(self) -> int:
        return len(self.base)


def _normalized_frame(jet: CurvilinearJet) -> tuple[Matrix, CurvilinearJet]:
    """Affine frame M and normalized jet (lambda = e_1, mu_1 = 0, base = 0).

    M has lambda as first column and e_i (i != pivot) as the others, so
    u = base + M w is invertible; the curve parameter is then requadratically
    rescaled to kill mu_1.
    """
    n = jet.n
    pivot = next(i for i in range(n) if jet.lam[i] != 0)
    cols = [list(jet.lam)] + [[_F1 if t == i else _F0 for t in range(n)]
                              for i in range(n) if i != pivot]
    m = Matrix.from_columns(cols)
    mu_w = solve_square(m, jet.mu)
    # t -> s - mu_w[0] s^2 removes the first quadratic coefficient
    lam_new = tuple(_F1 if i == 0 else _F0 for i in range(n))
    mu_new = tuple(mu_w[i] - mu_w[0] * lam_new[i] for i in range(n))
    new_jet = CurvilinearJet(base=tuple(_F0 for _ in range(n)), lam=lam_new,
                             mu=mu_new, length=jet.length)
    return m, new_jet


def normalized_derivatives(chart: Chart, jet: CurvilinearJet
                           ) -> tuple[CurvilinearJet, Callable[[Sequence[tuple]], Vector]]:
    """Normalized jet and the contraction of the normalized chart's derivatives at w = 0.

    Under u = base + M w the w-derivative tensor is the chart's derivative
    tensor at base read through M (chain rule):
    D^h_w x[v_1, ..., v_h] = D^h_u x[M v_1, ..., M v_h].  The returned
    function takes ``contract`` terms over w-direction tuples and maps each
    direction v to M v = v_1 lambda + sum_{s>=2} v_s e_(s-th non-pivot);
    a w-index with ``a`` slots equal to 0 is the term
    (1, (lambda,) * a + unit vectors).  Orders up to 3 (length 2) or 5
    (length 3) are available.
    """
    m, new_jet = _normalized_frame(jet)
    table = chart.integer_table(jet.base, 3 if jet.length == 2 else 5)

    @cache
    def frame(v: tuple) -> Vector:
        return tuple(sum(map(mul, row, v)) for row in m.entries)

    def contract_w(terms: Sequence[tuple]) -> Vector:
        return contract(table, [(c, tuple(map(frame, vs))) for c, vs in terms])

    return new_jet, contract_w


def project_generic(chart: Chart, r_target: int, seed: int) -> Chart:
    """Generic linear projection of the chart into P^{r_target}.

    Coordinates are replaced by (r_target+1) seeded random rational linear
    combinations; the result is checked to stay smooth and nondegenerate at
    desk scale, retrying with derived seeds a bounded number of times.
    """
    if r_target == chart.r:
        return chart
    if r_target > chart.r or r_target < 2 * chart.n:
        raise BadTargetError(
            f"projection target {r_target} invalid for r={chart.r}, n={chart.n}")
    import random

    for attempt in range(20):
        rng = random.Random(seed + 7919 * attempt)
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(chart.r + 1)]
                for _ in range(r_target + 1)]
        coords = []
        for row in rows:
            p = MultiPoly.zero(chart.n)
            for c, q in zip(row, chart.coords):
                if c:
                    p = p + q * c
            coords.append(p)
        cand = Chart(f"{chart.label}|proj{r_target}(seed={seed})", chart.n,
                     r_target, tuple(coords))
        test_pts = [tuple(_F0 for _ in range(chart.n)),
                    tuple(Fraction((i * 3 + 1) % 5 - 2) for i in range(chart.n))]
        if all(cand.is_smooth_at(pt) for pt in test_pts if chart.is_smooth_at(pt)) \
                and cand.is_nondegenerate():
            return cand
    raise BadTargetError("no smooth nondegenerate projection found (degenerate chart?)")


# ---------------------------------------------------------------------------
# curve derivatives through a chart (orders 1..5)
# ---------------------------------------------------------------------------

def curve_derivatives(chart: Chart, jet: FiveJet, table: IntegerTable | None = None
                      ) -> tuple[Vector, Vector, Vector, Vector, Vector]:
    """Derivative vectors x', x'', ..., x''''' of t -> x(u(t)) at t = 0.

    Faa di Bruno terms over the chart's order-5 derivative table at the
    jet's base (``table``, if given), contracted with the jet coefficients;
    independently equal to k! times the t^k coefficients of the composed
    curve (the composition oracle in tests), which validates each assembly.
    """
    lam, mu, nu, rho, sig = jet.lam, jet.mu, jet.nu, jet.rho, jet.sigma
    t = chart.integer_table(jet.base, 5) if table is None else table
    return (contract(t, [(1, (lam,))]),
            contract(t, [(1, (lam, lam)), (2, (mu,))]),
            contract(t, [(1, (lam,) * 3), (6, (lam, mu)), (6, (nu,))]),
            contract(t, [(1, (lam,) * 4), (12, (lam, lam, mu)), (12, (mu, mu)),
                         (24, (lam, nu)), (24, (rho,))]),
            contract(t, [(1, (lam,) * 5), (20, (lam, lam, lam, mu)), (60, (lam, mu, mu)),
                         (60, (lam, lam, nu)), (120, (mu, nu)), (120, (lam, rho)),
                         (120, (sig,))]))


# ---------------------------------------------------------------------------
# chart file format (exact JSON)
# ---------------------------------------------------------------------------

def chart_to_obj(chart: Chart) -> dict:
    return {
        "label": chart.label,
        "n": chart.n,
        "r": chart.r,
        "coords": [
            [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
             for e, c in sorted(p.terms.items())]
            for p in chart.coords
        ],
    }


def obj_to_chart(obj: dict) -> Chart:
    if not isinstance(obj, dict):
        raise ChartFormatError("chart document must be a JSON object")
    for key in ("label", "n", "r", "coords"):
        if key not in obj:
            raise ChartFormatError(f"missing key {key!r}")
    n, r = obj["n"], obj["r"]
    # type(x) is int: JSON true/false load as bool, an int subclass
    if not (type(n) is int and n >= 1):
        raise ChartFormatError("n must be a positive integer")
    if not (type(r) is int and r >= 1):
        raise ChartFormatError("r must be a positive integer")
    if r + 1 > MAX_COORDINATES:
        raise ChartFormatError(f"chart declares {r + 1} coordinates,"
                               f" above the cap of {MAX_COORDINATES}")
    coords = obj["coords"]
    if not isinstance(coords, list) or len(coords) != r + 1:
        raise ChartFormatError(f"coords must be a list of r+1={r + 1} polynomials")
    polys = []
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
            try:
                num, den = term["num"], term["den"]
                if not (isinstance(num, str) and isinstance(den, str)):
                    raise TypeError("num/den are not strings")
                num, den = int(num), int(den)
            except (KeyError, ValueError, TypeError) as exc:
                raise ChartFormatError(f"{where} needs decimal-string num/den") from exc
            if den <= 0:
                raise ChartFormatError(f"{where}.den must be positive")
            tdict[tuple(exp)] = Fraction(num, den)
        polys.append(MultiPoly(n, tdict))
    return Chart(obj["label"], n, r, tuple(polys))


def save_chart(chart: Chart, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart_to_obj(chart), fh, indent=2)
        fh.write("\n")


def load_chart(path) -> Chart:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChartFormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return obj_to_chart(obj)
