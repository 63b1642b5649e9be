"""Constructors for classical varieties with independently known invariants.

The shipped fixture file records, for each entry, the expected chart
dimensions, the known secant defects together with the determinantal
codimension computation that justifies them (so the fixture is
self-justifying rather than a table of bare numbers), and the expected
speciality / determinant-vanishing verdicts used by the audit batteries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Iterator, Sequence

from .chart import MAX_COORDINATES, Chart, TooLargeError, check_form_work, multi_indices
from .exactlin import randints, span_rank

DATA_VERSION = "v1"


class SmoothnessFailureError(RuntimeError):
    """Random constructor failed to produce a chart smooth at the base point."""


def _check_size(what: str, n: int, d: int, count=lambda n, d: math.comb(n + d, d)) -> None:
    # count(n, d) >= max(n, d) + 1 for n, d >= 1, so a larger n or d is refused uncounted:
    # C(2*10^6, 10^6) alone takes 30 s, and a count of over 4,300 digits cannot be printed
    big = max(n, d) >= MAX_COORDINATES
    total = f"more than {MAX_COORDINATES}" if big else count(n, d)
    if big or total > MAX_COORDINATES:
        raise TooLargeError(f"{what} needs {total} coordinates,"
                            f" above the cap of {MAX_COORDINATES}")


def _monomials_upto(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Exponents of total degree <= d, in ``multi_indices`` order; the constant comes first."""
    for idx in multi_indices(n, d):
        e = [0] * n
        for i in idx:
            e[i] += 1
        yield tuple(e)


def make_segre_veronese(dims: Sequence[int], degrees: Sequence[int], label: str) -> Chart:
    """Affine chart of P^dims[0] x ... x P^dims[-1] embedded by O(degrees).

    Each coordinate is a product of one monomial of degree <= degrees[i] in
    the i-th factor's own variables, which come in factor order; the first
    factor varies slowest.  It checks no size: its callers cap theirs first.
    """
    factors = [_monomials_upto(k, d) for k, d in zip(dims, degrees, strict=True)]
    # the factors' variables are disjoint blocks, so a product's exponent is their concatenation
    forms = tuple((1, (1,), (sum(es, ()),)) for es in product(*factors))
    return Chart(label, sum(dims), len(forms) - 1, forms)


def make_veronese(n: int, d: int) -> Chart:
    """Affine chart of the d-uple embedding of P^n: all monomials of degree <= d."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    _check_size(f"veronese(n={n}, d={d})", n, d)
    return make_segre_veronese((n,), (d,), f"veronese-{n}-{d}")


def make_segre(a: int, b: int) -> Chart:
    """Affine chart of the Segre embedding of P^a x P^b."""
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    _check_size(f"segre(a={a}, b={b})", a, b, lambda a, b: (a + 1) * (b + 1))
    return make_segre_veronese((a, b), (1, 1), f"segre-{a}-{b}")


def _draw_accepted(coeffs: Sequence[int], n: int, r: int) -> bool:
    """Whether x = C m(u) is smooth at 0 and nondegenerate, read off C alone.

    C is the (r+1) x M integer draws, row by row, and m(u) the monomials in
    ``_monomials_upto`` order (1, u_1, ..., u_n, ...), so x(0) and
    x_1(0)..x_n(0) are C's columns 0..n.  Smooth at 0 is tangent rank n+1, or
    Jacobian rank n where it falls short (x(0) != 0 is the caller's to
    arrange); nondegenerate is rank C = r+1.  These are the ranks that
    ``Chart.is_smooth_at`` and ``Chart.is_nondegenerate`` take of the chart.
    """
    m = len(coeffs) // (r + 1)
    at0 = [coeffs[j::m] for j in range(n + 1)]  # x(0), x_1(0), ..., x_n(0)
    return ((span_rank(at0) == n + 1 or span_rank(at0[1:]) == n)
            and span_rank([coeffs[i:i + m] for i in range(0, len(coeffs), m)]) == r + 1)


def make_random_variety(n: int, degree: int, r: int, seed: int) -> Chart:
    """Seeded random degree-bounded parametrization, smooth at 0 and nondegenerate.

    Each attempt draws the (r+1) x M coefficients of x = C m(u) from
    ``random.Random(seed + 104729 * attempt)``, coordinate by coordinate, and
    sets C[0][0] = 1 if every constant term is 0.  ``_draw_accepted`` tests the
    draws, and a chart is built only from the first accepted one, with no
    derivative table evaluated; 25 rejected attempts raise
    ``SmoothnessFailureError``.
    """
    if r < 2 * n:
        raise ValueError(f"need r >= 2n, got r={r}, n={n}")
    if n < 1 or degree < 1:
        raise ValueError("need n >= 1 and degree >= 1")
    _check_size(f"random(n={n}, degree={degree})", n, degree)
    # r+1 coordinates, refused before the monomial count, whose message prints r+1
    if r >= MAX_COORDINATES:
        raise TooLargeError(f"random(r >= {MAX_COORDINATES}) needs more than {MAX_COORDINATES}"
                            f" coordinates, above the cap of {MAX_COORDINATES}")
    mons = tuple(_monomials_upto(n, degree))
    m = len(mons)
    if m < r + 1:
        raise ValueError(f"degree {degree} in {n} vars has only {m} monomials < r+1={r + 1}")
    check_form_work(f"random(n={n}, degree={degree}, r={r})", (r + 1) * m, n)
    for attempt in range(25):
        rng = random.Random(seed + 104729 * attempt)
        coeffs = randints(rng, -9, 9, (r + 1) * m)  # coordinate by coordinate
        # arrange a usable base point: some coordinate's constant term nonzero
        if not any(coeffs[::m]):
            coeffs[0] = 1
        if _draw_accepted(coeffs, n, r):
            return Chart(f"random-{n}-{degree}-{r}(seed={seed})", n, r, tuple(
                (1, tuple(coeffs[i:i + m]), mons) for i in range(0, len(coeffs), m)))
    raise SmoothnessFailureError(f"no smooth chart after retries (seed={seed})")


# kind -> constructor of its integer params; each looks its function up when called
CONSTRUCTORS = {"veronese": lambda n, d: make_veronese(n, d),
                "segre": lambda a, b: make_segre(a, b),
                "random": lambda n, d, r, seed: make_random_variety(n, d, r, seed)}


# ---------------------------------------------------------------------------
# fixture catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownDefect:
    k: int
    delta: int
    oracle: str


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str
    params: tuple[int, ...]
    label: str
    n: int
    r: int
    known_defects: tuple[KnownDefect, ...]
    speciality_len2: str | None     # "special" / "regular" / None (not recorded)
    speciality_len3: str | None
    gamma15: str | None             # "identically-zero" / "nonzero" / None
    equivalence_eligible: bool
    projection_target: int | None   # project to this r before length-3 machinery
    notes: str

    def build(self) -> Chart:
        chart = CONSTRUCTORS[self.kind](*self.params)
        if chart.n != self.n or chart.r != self.r:
            raise ValueError(
                f"catalog entry {self.id}: built chart has (n,r)=({chart.n},{chart.r}),"
                f" expected ({self.n},{self.r})")
        return chart


def _entry_from_obj(obj: dict) -> CatalogEntry:
    return CatalogEntry(**{**obj, "params": tuple(obj["params"]), "known_defects": tuple(
        KnownDefect(**d) for d in obj["known_defects"])})


def load_catalog() -> list[CatalogEntry]:
    path = resources.files("terracini").joinpath(f"data/{DATA_VERSION}/catalog.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [_entry_from_obj(o) for o in doc["entries"]]


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"no catalog entry {entry_id!r}")
