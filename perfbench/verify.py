"""Correctness gate for one CLI invocation of the benchmark.

A call is wrong when any one of these is wrong:

* the exit code (every benchmark invocation must exit 0);
* the SHA-256 of the report, where a digest was recorded for the exact
  argument list (``digests.json`` holds them for the default seed);
* the verdict, against a closed-form oracle valid for every seed:
  - secants of a quadratic Veronese v_2(P^N): the (k+1)-secant variety is
    the locus of symmetric (N+1)-square matrices of rank <= k+1;
  - secants of a Segre P^a x P^b: matrices of size (a+1) x (b+1) and rank
    <= k+1;
  - secants of v_d(P^2) with d not in (2, 4): Alexander-Hirschowitz, so
    no defect and dimension min(r, 3(k+1) - 1);
  - the gamma15 determinant of a chart of degree 2 (a quadratic Veronese,
    or a random quadratic chart) is identically zero: its third derivatives
    vanish, so the quintic column is zero.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def expected_secant_dim(variety: str, k: int, r: int) -> int | None:
    """Closed-form dimension of the k-secant variety, or None when unknown."""
    kind, _, rest = variety.partition(":")
    try:
        a, b = (int(x) for x in rest.split(":"))
    except ValueError:
        return None
    s = k + 1
    if kind == "segre":
        s = min(s, a + 1, b + 1)
        return min(r, s * (a + b + 2 - s) - 1)
    if kind == "veronese" and b == 2:
        s = min(s, a + 1)
        return min(r, s * (a + 1) - s * (s - 1) // 2 - 1)
    if kind == "veronese" and a == 2 and b not in (2, 4):
        return min(r, 3 * s - 1)
    return None


def _is_quadratic(variety: str) -> bool:
    kind, _, rest = variety.partition(":")
    fields = rest.split(":")
    if kind == "veronese":
        return fields[-1] == "2"
    return kind == "random" and len(fields) == 4 and fields[1] == "2"


def verdict_problems(doc: dict) -> list[str]:
    """Disagreements between a report's verdicts and the closed-form oracles."""
    config = doc["config"]
    variety = config["variety"]
    results = doc["results"]
    problems = []
    if config["command"] == "analyze" and len(results) != len(config["checks"]):
        problems.append(f"{len(results)} results for {len(config['checks'])} checks")
    for res in results:
        check = res["check"]
        if check.startswith("secant:"):
            want = expected_secant_dim(variety, int(check[7:]), doc["chart"]["r"])
            if want is not None and res["observed"] != want:
                problems.append(f"{check}: observed {res['observed']}, oracle {want}")
        elif check == "gamma15" and _is_quadratic(variety):
            if res["identically_zero"] is not True:
                problems.append("gamma15: D is not identically zero on a quadratic chart")
    return problems


def call_problems(argv: list[str], exit_code: int | None, report: bytes,
                  digests: dict[str, str]) -> list[str]:
    """Everything wrong with one invocation; empty when it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    want = digests.get(" ".join(argv))
    if want is not None and want != digest(report):
        problems.append("report digest differs from the recorded one")
    try:
        doc = json.loads(report)
    except ValueError:
        return problems + ["report is not JSON"]
    try:
        return problems + verdict_problems(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"report lacks an expected field: {exc!r}"]
