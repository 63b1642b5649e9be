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
