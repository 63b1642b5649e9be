"""Golden command set: the benchmark's reports, byte for byte.

Round 0 of every template in ``perfbench/run.py`` (``{S}`` = 1000) runs in
process through ``terracini.cli.main``; the SHA-256 of its stdout must equal
the digest recorded in ``perfbench/digests.json``.  The digests are only
read here, never written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from terracini.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling reference.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


_bench = _load_bench()
_recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
DIGESTS = _recorded["digests"]
ROUND0 = [template.format(S=_recorded["seed"] * _bench.SEED_STRIDE)
          for templates in _bench.WORKLOADS.values() for template in templates]


def test_golden_set_covers_every_template():
    assert len(ROUND0) == 8
    assert all(command in DIGESTS for command in ROUND0)


@pytest.mark.parametrize("command", ROUND0)
def test_report_matches_recorded_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DIGESTS[command]


# Contraction callers that the benchmark templates never reach: gamma15 on a
# chart with D != 0 (a 106-digit witness_value), both osc routes, Pi
# constancy with its precondition holding, and the equivalence audit.
# Recorded once from the reports of the integer derivative kernel, before
# the contraction primitive replaced the hand-expanded sums; only read here.
CONTRACTION_DIGESTS = {
    "analyze --variety random:2:5:8:7 --check gamma15 --seed 3":
        "2183250d69369e07c853b67f9cd0e1893c8c43059633199843cb0614897fcf8e",
    "analyze --variety random:3:3:11:5 --check osc:2 --check osc:1 --trials 2":
        "85fadecc34df422c3088aec32faf78cc1c9449556ee67ad49031ebc97f540ed5",
    "analyze --variety random:2:4:8:2 --check pi-constancy":
        "9ea5b88477b449aec8e927042dd9b5f952bcd67139823d7f8b6ba8b61cc67f22",
    "analyze --variety random:2:3:8:4 --check audit --trials 2":
        "d3c998bdefd2f511aed34523dff7ee321cf1aae7d11c53d7a82ef291cfcba1a8",
}


@pytest.mark.parametrize("command", list(CONTRACTION_DIGESTS))
def test_contraction_report_matches_recorded_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == CONTRACTION_DIGESTS[command]


# secant:K paths where draws are thrown away before a point's tangent space
# is read: singular draws on the cusp (1, u^2, u^3), which is singular at
# u = 0 only, and duplicate draws from the 11 points of [-5, 5] on the twisted
# cubic.  Recorded from the reports before the order-1 table was memoized;
# only read here.  The cusp runs from its own directory, so the report echoes
# the relative path.
CUSP = {"label": "cusp", "n": 1, "r": 2,
        "coords": [[{"exp": [e], "num": "1", "den": "1"}] for e in (0, 2, 3)]}
DRAW_DIGESTS = {
    "analyze --variety file:cusp.json --check secant:9 --trials 1":
        "a51c1bdd8b36f317986ee7c648af735e80a08f5717d3558966caa683a7c15d31",
    "analyze --variety veronese:1:3 --check secant:9":
        "7c1f78b9f1eef4bfd5e563fc86363282c4d4699019ac08fa08620e3d1cc7d91b",
}


@pytest.mark.parametrize("command", list(DRAW_DIGESTS), ids=["rejected", "duplicate"])
def test_secant_draw_report_matches_recorded_digest(command, tmp_path, monkeypatch):
    (tmp_path / "cusp.json").write_text(json.dumps(CUSP), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == DRAW_DIGESTS[command]
