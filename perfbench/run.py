"""terracini benchmark: fixed lists of real CLI invocations, run in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload jet-audit --seed 1 --seconds 36 --trace 0

One process, one client, closed loop, no threads: each invocation of
``terracini.cli.main(argv)`` starts after the previous one returned, with
stdout captured as the report.  A workload is a list of argument templates;
round ``i`` of a run fills ``{S}`` with ``seed * 1000 + i``, and rounds repeat
until ``--seconds`` have passed.  Every report goes through the correctness
gate in ``verify.py``, against the digests committed in ``digests.json``;
every digest is printed, one JSON line per call, so runs on two commits can
be compared byte for byte.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.  Call
times are gated in units of ``reference.py``'s fixed work: that work is
timed just before and just after each call and the call's time is divided
by the mean of the two (``call_ref.*``, ``checks_per_kref``), because the
host's speed drifts by up to 40% from minute to minute.  ``setup_s`` is the
import time of ``terracini.cli`` in fresh interpreters, likewise measured
against reference imports (see ``setup_seconds``).  The raw seconds are
printed in the meta line.
``--trace 1`` runs each invocation twice, untraced and then under the
outside-in tracer of ``tracer.py``, requires the two reports to be
byte-identical, and prints the per-layer metrics, including the tracing
overhead.  The spans are written to ``perfbench/out/``.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import count
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Argument templates per workload; BENCHMARK.json says why each workload
# exists.  Per-call statistics pool the templates of a workload, so each
# workload's templates are given about the same cost (0.25-0.4 s on a 2-core
# x86-64 host): a template several times cheaper than the others would put
# the median call in the tail of the expensive calls, where run-to-run noise
# is largest.  Calls are kept this cheap so that a run holds 55 to 110 of
# them, and the tail (ten calls beyond it) lies between the 82nd and the
# 91st percentile.
WORKLOADS = {
    # Dense random charts: derivative evaluation and jet normalization.
    "jet-audit": (
        "audit-theorem --variety random:3:3:11:{S} --trials 1",
        "analyze --variety random:4:3:14:{S} --check speciality:3 --trials 2",
        "analyze --variety random:3:4:11:{S} --check speciality:2 --check speciality:3 --trials 1",
    ),
    # Quadratic charts with r = 3n + 2: D vanishes identically, so the
    # Schwartz-Zippel loop runs every trial.
    "identity-test": (
        "analyze --variety veronese:4:2 --check gamma15 --seed {S}",
        "analyze --variety random:4:2:14:{S} --check gamma15 --seed {S}",
    ),
    # Monomial charts with r = 55..90: span ranks.  On v_12(P^2) the check
    # stays well below the filling secant (k = 14 of 29): near it, one sample
    # in [-5, 5]^2 underestimates the dimension about one time in ten, which
    # the oracle would count as a wrong verdict.
    "wide-spans": (
        "analyze --variety veronese:2:12 --check secant:14 --trials 2 --seed {S}",
        "analyze --variety veronese:10:2 --check secant:4 --trials 5 --seed {S}",
        "analyze --variety segre:6:7 --check secant:6 --trials 4 --seed {S}",
    ),
}
SEED_STRIDE = 1000
# Set-up is timed in SETUP_PAIRS pairs of fresh interpreters: one imports
# reference.IMPORTS, the next terracini.cli.  The host's speed switches
# between two levels about 40% apart for seconds to minutes at a time, so
# raw import times drift from run to run; the ratio within a pair does not.
SETUP_PAIRS = 20
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import {}; "
              "print(time.perf_counter() - t)")


def invocations(workload: str, seed: int):
    """Endless argument lists for a workload: round after round of its templates."""
    for rnd in count():
        s = seed * SEED_STRIDE + rnd
        for template in WORKLOADS[workload]:
            yield template.format(S=s).split()


def checks_in(argv: list[str]) -> int:
    """Checks one invocation performs: each --check, or the one audit pipeline."""
    return argv.count("--check") or 1


def invoke(cli_main, argv: list[str]) -> tuple[int | None, bytes, str, float]:
    """Run one CLI invocation in process: exit code, report, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed call, not a failed run
        code = None
        err.write(repr(exc))
    seconds = perf_counter() - t0
    return code, out.getvalue().encode("utf-8"), err.getvalue(), seconds


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls beyond it: (value, percentile, n).

    With ten calls or fewer no percentile qualifies; the maximum is reported
    as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def measure_setup() -> list[tuple[float, float]]:
    """(reference, program) import times in fresh interpreters, after one warm-up pair."""
    def import_seconds(modules):
        code = SETUP_CODE.format(", ".join(modules))
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        return float(done.stdout)

    return [(import_seconds(reference.IMPORTS), import_seconds(["terracini.cli"]))
            for _ in range(SETUP_PAIRS + 1)][1:]


def setup_seconds(pairs: list[tuple[float, float]]) -> float:
    """Median program import time in units of the reference imports, scaled to seconds."""
    return statistics.median(prog / ref for ref, prog in pairs) * reference.IMPORTS_NOMINAL_S


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric_specs(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def layer_value(name: str, tracer, table: dict, overhead_s: float, untraced_s: float):
    special = {
        "exactlin.screen_hit_ratio": tracer.screen_hit_ratio,
        "exactlin.span_rank.cells": lambda: tracer.cells,
        "exactlin.sz_zero_test.trials": lambda: tracer.sz_trials,
        "chart.Chart.derivative_vector.repeat_share": tracer.repeat_share,
        "trace.overhead_s": lambda: overhead_s,
        "trace.overhead_share": lambda: overhead_s / untraced_s,
    }
    if name in special:
        return special[name]()
    label, _, field = name.rpartition(".")
    return table.get(label, {}).get(field, 0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "terracini" / "cli.py").is_file():
        print(f"perfbench: no terracini sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import terracini
    import terracini.cli

    import tracer as tracing
    import verify

    setup = [] if args.trace else measure_setup()
    digests = verify.load_digests()
    tracer = tracing.Tracer() if args.trace else None
    untraced_s = traced_s = 0.0
    times: list[float] = []
    ref_times: list[float] = []
    attempted = failed = checks_done = 0

    gc.collect()
    ref_before = reference.seconds()
    deadline = perf_counter() + args.seconds
    for argv_i in invocations(args.workload, args.seed):
        if attempted and perf_counter() >= deadline:
            break
        code, report, err, seconds = invoke(terracini.cli.main, argv_i)
        problems = verify.call_problems(argv_i, code, report, digests)
        row = {"call": attempted, "argv": " ".join(argv_i), "exit": code,
               "sha256": verify.digest(report), "wall_s": seconds}
        if tracer is None:
            ref_after = reference.seconds()
            ref_times.append((ref_before + ref_after) / 2)
            ref_before = ref_after
            row["reference_s"] = ref_times[-1]
        else:
            with tracer.installed(), tracer.request():
                code_t, report_t, _, seconds_t = invoke(terracini.cli.main, argv_i)
            if (code_t, report_t) != (code, report):
                problems.append("traced run changed the report or exit code")
            row["traced_wall_s"] = seconds_t
            untraced_s += seconds
            traced_s += seconds_t
        if err.strip() and code != 0:
            problems.append(f"stderr: {err.strip()[-200:]}")
        row["problems"] = problems
        print(json.dumps(row), flush=True)
        attempted += 1
        times.append(seconds)
        if problems:
            failed += 1
        else:
            checks_done += checks_in(argv_i)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_backend": terracini.KERNEL_BACKEND,
        "git_revision": git_revision(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "failed_ratio": failed / attempted,
        "loop": "closed, one client, one process",
    }
    if tracer is None:
        tail_s, tail_pct, n = tail(times)
        in_ref = [t / r for t, r in zip(times, ref_times)]
        meta.update({"call_s.p50": statistics.median(times), "call_s.tail": tail_s,
                     "call_s.tail_percentile": tail_pct, "calls": n,
                     "checks_per_s": checks_done / sum(times),
                     "reference_s.p50": statistics.median(ref_times),
                     "setup_s.raw_p50": statistics.median(prog for _, prog in setup),
                     "setup_samples_s": setup})
        values = {
            "setup_s": setup_seconds(setup),
            "call_ref.p50": statistics.median(in_ref),
            "call_ref.tail": tail(in_ref)[0],
            "checks_per_kref": 1000 * checks_done / sum(in_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_specs("end_to_end")}
    else:
        overhead_s = traced_s - untraced_s
        table = tracer.layer_table()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans_path)
        meta.update({"untraced_s": untraced_s, "traced_s": traced_s,
                     "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)})
        metrics = {name: {"value": layer_value(name, tracer, table, overhead_s, untraced_s),
                          "unit": unit}
                   for name, unit in metric_specs("per_layer")}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
