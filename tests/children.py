"""Bounded child processes: the one place where tests cap a child's memory.

``run_cli(argvs)`` runs each argv through ``terracini.cli.main`` in up to
``CHILDREN`` children, each running this file with ``ADDRESS_SPACE`` bytes of
address space, so that an input refused only after its work started hits
that cap and not the host's memory.  Each case has an alarm of ``ALARM_S``
seconds, and its ``Outcome`` holds the exit code ("timeout" if the alarm
fired, "crash" if an exception escaped; its traceback then ends ``err``),
stdout, stderr and the seconds spent inside ``main``.
"""

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ADDRESS_SPACE = 512 << 20
ALARM_S = 20
CHILDREN = 4


class Outcome(NamedTuple):
    code: int | str
    out: str
    err: str
    seconds: float


def limit_address_space() -> None:
    """Runs in the child, between fork and exec."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


CAPPED = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
              env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
              preexec_fn=limit_address_space)


def run_cli(argvs: list[list[str]]) -> list[Outcome]:
    children = min(CHILDREN, len(argvs))
    results = [None] * len(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        procs = []
        for i in range(children):  # round-robin, so that slow cases spread out
            batch = Path(tmp) / f"batch-{i}.json"
            batch.write_text(json.dumps(argvs[i::children]), encoding="utf-8")
            procs.append(subprocess.Popen([sys.executable, __file__, str(batch)], **CAPPED))
        for i, proc in enumerate(procs):
            out, err = proc.communicate(timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"child {i} exited {proc.returncode}:\n{err}")
            results[i::children] = [Outcome(*r) for r in json.loads(out)]
    return results


def run_python(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` in one capped child, for library code."""
    return subprocess.run([sys.executable, "-c", code], timeout=ALARM_S, **CAPPED)


class CaseTimeout(BaseException):
    pass


def on_alarm(signum, frame):
    raise CaseTimeout


def serve(batch: Path) -> list[list]:
    """The child's side: the outcome of each argv of a batch file, as a JSON list."""
    from terracini.cli import main

    signal.signal(signal.SIGALRM, on_alarm)
    results = []
    for argv in json.loads(batch.read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(ALARM_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: help, usage errors
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            out.getvalue().encode("utf-8")  # the report must be writable to a UTF-8 stdout
        except CaseTimeout:
            code = "timeout"
        except Exception:  # what the command line would print as a traceback
            code, err = "crash", io.StringIO(err.getvalue() + traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            signal.alarm(0)
        results.append([code, out.getvalue(), err.getvalue(), seconds])
    return results


if __name__ == "__main__":
    json.dump(serve(Path(sys.argv[1])), sys.stdout)
