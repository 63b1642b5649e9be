"""Mutation check: each mutant of ``mutants.json`` must fail the tests it names.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py ID [ID...] # the named mutants

A mutant is an id, a file, an anchor that occurs exactly once in it, the
text that replaces the anchor, the test files expected to fail with it,
and what the change breaks.  The runner copies ``src/``, ``tests/``,
``perfbench/`` (the golden reports read its templates and digests),
``pyproject.toml`` and ``BENCHMARK.json`` (perfbench's own tests read it)
to a temporary directory and first runs the named test files on the
unmutated copy.  Then it applies one mutant at a time and runs only that
mutant's test files, in one pytest subprocess at a time, restoring the
file after.  A mutant is killed when pytest reports a failure, a
collection error or an internal error, or runs past the timeout.  The
runner prints one line per mutant and the kill count.  It exits 1 if a
mutant survives, and 2 if an anchor does not occur exactly once or the
unmutated copy fails.  It uses the standard library only and is not part
of the tier-1 suite; it takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 300


def copy_tree(copy: Path) -> None:
    """Copy ``src/``, ``tests/``, ``perfbench/``, ``pyproject.toml`` and ``BENCHMARK.json``."""
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / name, copy)


def run_tests(copy: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for pytest over ``tests`` in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    # test failures; an error during collection; an internal error, as when a
    # mutated module exits on import (the unmutated copy has passed already)
    if proc.returncode in (1, 2, 3):
        return "failed"
    raise RuntimeError(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    if args.ids:
        unknown = set(args.ids) - {m["id"] for m in mutants}
        if unknown:
            parser.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m["id"] in args.ids]
    for m in mutants:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["anchor"])
        if count != 1:
            print(f"{m['id']}: anchor occurs {count} times in {m['file']}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        named = sorted({t for m in mutants for t in m["tests"]})
        if run_tests(copy, named) != "passed":
            print(f"the unmutated copy fails {' '.join(named)}")
            return 2
        survivors = []
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m["anchor"], m["replacement"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome = run_tests(copy, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{m['id']}: {verdict} by {' '.join(m['tests'])}"
                  f" in {time.perf_counter() - start:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append(m["id"])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
