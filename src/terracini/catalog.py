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
from itertools import combinations_with_replacement

from .chart import MAX_COORDINATES, Chart
from .exactlin import randints

DATA_VERSION = "v1"


class SmoothnessFailureError(RuntimeError):
    """Random constructor failed to produce a chart smooth at the base point."""


class TooLargeError(ValueError):
    """Requested variety has more coordinates than MAX_COORDINATES."""


def _check_size(what: str, count: int) -> None:
    if count > MAX_COORDINATES:
        raise TooLargeError(f"{what} needs {count} coordinates,"
                            f" above the cap of {MAX_COORDINATES}")


def _monomials_upto(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponents of total degree <= d, by degree; the constant comes first."""
    out = []
    for tot in range(d + 1):
        for pick in combinations_with_replacement(range(n), tot):
            e = [0] * n
            for i in pick:
                e[i] += 1
            out.append(tuple(e))
    return out


def make_veronese(n: int, d: int) -> Chart:
    """Affine chart of the d-uple embedding of P^n: all monomials of degree <= d."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    _check_size(f"veronese(n={n}, d={d})", math.comb(n + d, d))
    forms = tuple((1, (1,), (e,)) for e in _monomials_upto(n, d))
    return Chart(f"veronese-{n}-{d}", n, len(forms) - 1, forms)


def make_segre(a: int, b: int) -> Chart:
    """Affine chart of the Segre embedding of P^a x P^b."""
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    _check_size(f"segre(a={a}, b={b})", (a + 1) * (b + 1))
    n = a + b
    left = [(0,) * n] + [tuple(1 if t == i else 0 for t in range(n)) for i in range(a)]
    right = [(0,) * n] + [tuple(1 if t == a + j else 0 for t in range(n)) for j in range(b)]
    forms = tuple((1, (1,), (tuple(x + y for x, y in zip(ea, eb)),))
                  for ea in left for eb in right)
    return Chart(f"segre-{a}-{b}", n, len(forms) - 1, forms)


def make_random_variety(n: int, degree: int, r: int, seed: int) -> Chart:
    """Seeded random degree-bounded parametrization, smooth at 0 and nondegenerate."""
    if r < 2 * n:
        raise ValueError(f"need r >= 2n, got r={r}, n={n}")
    if n < 1 or degree < 1:
        raise ValueError("need n >= 1 and degree >= 1")
    _check_size(f"random(n={n}, degree={degree})", math.comb(n + degree, degree))
    mons = tuple(_monomials_upto(n, degree))
    if len(mons) < r + 1:
        raise ValueError(
            f"degree {degree} in {n} vars has only {len(mons)} monomials < r+1={r + 1}")
    for attempt in range(25):
        rng = random.Random(seed + 104729 * attempt)
        coeffs = randints(rng, -9, 9, (r + 1) * len(mons))  # coordinate by coordinate
        # arrange a usable base point: some coordinate's constant term nonzero
        if not any(coeffs[::len(mons)]):
            coeffs[0] = 1
        cand = Chart(f"random-{n}-{degree}-{r}(seed={seed})", n, r, tuple(
            (1, tuple(coeffs[i:i + len(mons)]), mons) for i in range(0, len(coeffs), len(mons))))
        if cand.is_smooth_at((0,) * n) and cand.is_nondegenerate():
            return cand
    raise SmoothnessFailureError(f"no smooth chart after retries (seed={seed})")


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
        make = {"veronese": make_veronese, "segre": make_segre,
                "random": make_random_variety}.get(self.kind)
        if make is None:
            raise ValueError(f"unknown constructor kind {self.kind!r}")
        chart = make(*self.params)
        if chart.n != self.n or chart.r != self.r:
            raise ValueError(
                f"catalog entry {self.id}: built chart has (n,r)=({chart.n},{chart.r}),"
                f" expected ({self.n},{self.r})")
        return chart


def _entry_from_obj(obj: dict) -> CatalogEntry:
    return CatalogEntry(
        id=obj["id"],
        kind=obj["kind"],
        params=tuple(obj["params"]),
        label=obj["label"],
        n=obj["n"],
        r=obj["r"],
        known_defects=tuple(KnownDefect(d["k"], d["delta"], d["oracle"])
                            for d in obj.get("known_defects", [])),
        speciality_len2=obj.get("speciality_len2"),
        speciality_len3=obj.get("speciality_len3"),
        gamma15=obj.get("gamma15"),
        equivalence_eligible=obj["equivalence_eligible"],
        projection_target=obj.get("projection_target"),
        notes=obj.get("notes", ""),
    )


def load_catalog() -> list[CatalogEntry]:
    path = resources.files("terracini").joinpath(f"data/{DATA_VERSION}/catalog.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [_entry_from_obj(o) for o in doc["entries"]]


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"no catalog entry {entry_id!r}")
