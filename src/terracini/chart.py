"""Polynomial charts of projective varieties and their jet calculus.

A chart is an affine polynomial parametrization u -> x(u) of an n-fold in
P^r: r+1 coordinate polynomials over Q.  Everything downstream consumes
derivative vectors of the chart at rational points, so this module owns
the derivative cache, Taylor blocks, jet normalization, generic
projection, and the assembled derivative formulas of a curve through the
chart up to fifth order.

Jet normalization has two routes.  ``normalized_derivatives`` contracts
the chart's own derivative table at the jet's base point with the affine
frame (chain rule, no polynomial arithmetic); the analysis uses it.
``jet_normalize`` substitutes the frame into every coordinate polynomial
and is kept as the symbolic reference that tests compare against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Sequence

from .exactlin import (
    BadIndexError,
    Matrix,
    MultiPoly,
    Series,
    Vector,
    poly_compose_curve,
    solve_square,
    span_rank,
    vaccum,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


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


@dataclass(frozen=True)
class Chart:
    """Affine polynomial chart of an n-dimensional variety in P^r."""

    label: str
    n: int
    r: int
    coords: tuple[MultiPoly, ...]
    _dcache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coords) != self.r + 1:
            raise ValueError(f"chart needs r+1={self.r + 1} coords, got {len(self.coords)}")
        for p in self.coords:
            if p.num_vars != self.n:
                raise ValueError("coordinate polynomial has wrong variable count")

    # -- derivatives ---------------------------------------------------------

    def derivative_polys(self, idx: Sequence[int]) -> tuple[MultiPoly, ...]:
        """Coordinate-wise mixed partial, cached by sorted multi-index."""
        key = tuple(sorted(idx))
        for i in key:
            if not 0 <= i < self.n:
                raise BadIndexError(f"derivative index {i} out of range for n={self.n}")
        cached = self._dcache.get(key)
        if cached is not None:
            return cached
        if key:
            prev = self.derivative_polys(key[:-1])
            polys = tuple(p.partial(key[-1]) for p in prev)
        else:
            polys = self.coords
        self._dcache[key] = polys
        return polys

    def derivative_vector(self, pt: Sequence[Fraction], idx: Sequence[int]) -> Vector:
        """Value at pt of the mixed partial of the chart; symmetric in idx."""
        return tuple(p.eval(pt) for p in self.derivative_polys(idx))

    def taylor_block(self, pt: Sequence[Fraction], h: int) -> list[tuple[tuple[int, ...], Vector]]:
        """All derivative vectors of order <= h, keyed by sorted multi-index."""
        return [(idx, self.derivative_vector(pt, idx)) for idx in multi_indices(self.n, h)]

    def derivative_table(self, pt: Sequence[Fraction], h: int) -> dict[tuple[int, ...], Vector]:
        return {idx: vec for idx, vec in self.taylor_block(pt, h)}

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

    def relabel(self, label: str) -> "Chart":
        return Chart(label, self.n, self.r, self.coords)


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

    def is_normalized(self) -> bool:
        e1 = tuple(_F1 if i == 0 else _F0 for i in range(self.n))
        return self.lam == e1 and self.mu[0] == 0


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

    def curve_series(self, order: int) -> list[Series]:
        """Component series of u(t) truncated at the requested order."""
        coeffs = [self.base, self.lam, self.mu, self.nu, self.rho, self.sigma]
        out = []
        for i in range(self.n):
            s = [coeffs[k][i] if k < len(coeffs) else _F0 for k in range(order + 1)]
            out.append(tuple(s))
        return out


def _normalized_frame(jet: CurvilinearJet) -> tuple[int, Matrix, CurvilinearJet]:
    """Pivot, affine frame M and normalized jet shared by both normalization routes.

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
    return pivot, m, new_jet


def jet_normalize(chart: Chart, jet: CurvilinearJet) -> tuple[Chart, CurvilinearJet]:
    """Equivalent chart and jet with lambda = (1,0,...,0), mu_1 = 0, base = 0.

    The chart parameters undergo the invertible affine change u = base + M w
    with first column of M equal to lambda; the curve parameter is then
    requadratically rescaled to kill mu_1.  The image scheme of the jet in
    P^r is unchanged by either step.

    This is the symbolic reference route: it substitutes into every
    coordinate polynomial.  The analysis itself reads the same derivatives
    by contraction through ``normalized_derivatives``; tests compare the two.
    """
    if all(c == 0 for c in jet.lam):
        raise DegenerateJetError("lambda = 0")
    if jet.is_normalized() and all(c == 0 for c in jet.base):
        return chart, jet
    _, m, new_jet = _normalized_frame(jet)
    new_coords = tuple(p.substitute_affine(jet.base, m) for p in chart.coords)
    new_chart = Chart(f"{chart.label}|jet-normalized", chart.n, chart.r, new_coords)
    return new_chart, new_jet


def normalized_derivatives(chart: Chart, jet: CurvilinearJet
                           ) -> tuple[CurvilinearJet, Callable[..., Vector]]:
    """Normalized jet and an accessor of the normalized chart's derivatives at w = 0.

    Under u = base + M w the w-derivatives are the chart's derivative tensor
    at base contracted with the columns of M (chain rule): a w-index with
    ``a`` slots equal to 0 and other slots S is the sum over a-multisets J of
    multinomial(a; J) * prod(lambda_j) * d[J + S'], where S' maps each s >= 1
    to the s-th non-pivot coordinate.  Orders up to 3 (length 2) or 5
    (length 3) are available; values are memoized per call.
    """
    n, width, lam = chart.n, chart.r + 1, jet.lam
    pivot, _, new_jet = _normalized_frame(jet)
    others = [i for i in range(n) if i != pivot]
    d = chart.derivative_table(jet.base, 3 if jet.length == 2 else 5)
    memo: dict[tuple[int, ...], Vector] = {}

    def dw(*idx: int) -> Vector:
        key = tuple(sorted(idx))
        got = memo.get(key)
        if got is None:
            a = key.count(0)
            rest = tuple(others[s - 1] for s in key[a:])
            parts = []
            for js in combinations_with_replacement(range(n), a):
                coeff = math.factorial(a)
                for j in set(js):
                    coeff //= math.factorial(js.count(j))
                for j in js:
                    coeff *= lam[j]
                parts.append((coeff, d[tuple(sorted(js + rest))]))
            got = memo[key] = vaccum(width, parts)
        return got

    return new_jet, dw


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

def curve_derivatives(chart: Chart, jet: FiveJet) -> tuple[Vector, Vector, Vector, Vector, Vector]:
    """Derivative vectors x', x'', ..., x''''' of t -> x(u(t)) at t = 0.

    Assembled from the chart's Taylor data contracted against the jet
    coefficients; independently equal to k! times the t^k coefficients of
    the composed curve (see tests), which validates each assembly.
    """
    n, width = chart.n, chart.r + 1
    lam, mu, nu, rho, sig = jet.lam, jet.mu, jet.nu, jet.rho, jet.sigma
    d = chart.derivative_table(jet.base, 5)

    def dv(*idx: int) -> Vector:
        return d[tuple(sorted(idx))]

    rng_n = range(n)
    x1 = vaccum(width, ((lam[i], dv(i)) for i in rng_n))
    x2 = vaccum(width, [(lam[i] * lam[j], dv(i, j)) for i in rng_n for j in rng_n]
                + [(2 * mu[i], dv(i)) for i in rng_n])
    x3 = vaccum(width,
                [(lam[i] * lam[j] * lam[k], dv(i, j, k))
                 for i in rng_n for j in rng_n for k in rng_n]
                + [(6 * lam[i] * mu[j], dv(i, j)) for i in rng_n for j in rng_n]
                + [(6 * nu[i], dv(i)) for i in rng_n])
    x4 = vaccum(width,
                [(lam[i] * lam[j] * lam[k] * lam[l], dv(i, j, k, l))
                 for i in rng_n for j in rng_n for k in rng_n for l in rng_n]
                + [(12 * lam[i] * lam[j] * mu[k], dv(i, j, k))
                   for i in rng_n for j in rng_n for k in rng_n]
                + [(12 * mu[i] * mu[j], dv(i, j)) for i in rng_n for j in rng_n]
                + [(24 * lam[i] * nu[j], dv(i, j)) for i in rng_n for j in rng_n]
                + [(24 * rho[i], dv(i)) for i in rng_n])
    x5_parts = [(lam[i] * lam[j] * lam[k] * lam[l] * lam[m], dv(i, j, k, l, m))
                for i, j, k, l, m in product(rng_n, repeat=5)]
    x5_parts += [(20 * lam[i] * lam[j] * lam[k] * mu[l], dv(i, j, k, l))
                 for i, j, k, l in product(rng_n, repeat=4)]
    x5_parts += [(60 * lam[i] * mu[j] * mu[k], dv(i, j, k))
                 for i, j, k in product(rng_n, repeat=3)]
    x5_parts += [(120 * mu[i] * nu[j], dv(i, j)) for i in rng_n for j in rng_n]
    x5_parts += [(120 * lam[i] * rho[j], dv(i, j)) for i in rng_n for j in rng_n]
    x5_parts += [(60 * lam[i] * lam[j] * nu[k], dv(i, j, k))
                 for i, j, k in product(rng_n, repeat=3)]
    x5_parts += [(120 * sig[i], dv(i)) for i in rng_n]
    x5 = vaccum(width, x5_parts)
    return x1, x2, x3, x4, x5


def composed_curve_series(chart: Chart, jet: FiveJet, order: int = 5) -> list[Series]:
    """Coordinate-wise truncated series of t -> x(u(t)); the composition route."""
    curve = jet.curve_series(order)
    return [poly_compose_curve(p, curve, order) for p in chart.coords]


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
    if not (isinstance(n, int) and n >= 1):
        raise ChartFormatError("n must be a positive integer")
    if not (isinstance(r, int) and r >= 1):
        raise ChartFormatError("r must be a positive integer")
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
                    or any(not isinstance(e, int) or e < 0 for e in exp)):
                raise ChartFormatError(f"{where}.exp must be {n} nonnegative integers")
            try:
                num = int(term["num"])
                den = int(term["den"])
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
