"""Seeded fuzz of command-line inputs: no input may crash the CLI.

Each case mutates one golden command (``test_golden_reports.ROUND0``) or
one chart file of ``tests/fixtures`` with a fixed, seeded mutation: drop a
key or token, swap a type, truncate, nest deeper, put in a huge or a
negative integer, put in non-UTF-8 bytes, repeat or garble tokens.  The
cases run through ``terracini.cli.main`` in a few child processes, each
of which limits its own address space and gives every case an alarm.  A
case must exit 0, 1 or 2 with no traceback, and an exit 1 must say
"terracini: error:".
"""

import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

from test_golden_reports import ROUND0

FIXTURES = Path(__file__).parent / "fixtures"
KINDS = ("drop", "swap-type", "truncate", "nest", "huge", "negative", "non-utf8", "repeat",
         "garble")
VARIANTS = 2  # seeded mutations per source and kind
CHILDREN = 4
FILE_COMMANDS = (["audit-theorem", "--trials", "1"],
                 ["analyze", "--check", "secant:2", "--check", "osc:2", "--check", "gamma15",
                  "--trials", "1"])
# the third is the most digits int() reads, so seed + 1 cannot be printed; the last is above it
HUGE = ("9" * 19, "1" + "0" * 80, "9" * 4300, "1" + "0" * 5000)

CHILD = r"""
import contextlib, io, json, pathlib, resource, signal, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from terracini.cli import main


class CaseTimeout(BaseException):
    pass


def on_alarm(signum, frame):
    raise CaseTimeout


signal.signal(signal.SIGALRM, on_alarm)
results = []
for argv in json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(20)
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
        signal.alarm(0)
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def int_fields(argv):
    """(token, part) positions of the integer fields of an argv, ':' splitting parts."""
    return [(t, p) for t, tok in enumerate(argv) for p, part in enumerate(tok.split(":"))
            if part.isdigit()]


def set_field(argv, at, value):
    t, p = at
    parts = argv[t].split(":")
    parts[p] = value
    argv[t] = ":".join(parts)


def garble(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        chars[rng.randrange(len(chars))] = rng.choice(string.printable)
    return "".join(chars)


def mutate_argv(argv, kind, rng):
    argv = list(argv)
    t = rng.randrange(len(argv))
    field = rng.choice(int_fields(argv))
    if kind == "drop":
        del argv[t]
    elif kind == "swap-type":
        set_field(argv, field, rng.choice(["x", "2.5", "[]", "", "None"]))
    elif kind == "truncate":
        argv = argv[:t]
    elif kind == "nest":
        argv[t] = ":".join([argv[t]] * rng.choice([2, 3, 50]))
    elif kind == "huge":
        set_field(argv, field, rng.choice(HUGE))
    elif kind == "negative":
        set_field(argv, field, "-" + argv[field[0]].split(":")[field[1]])
    elif kind == "non-utf8":  # byte 0xff as the interpreter decodes it from argv
        k = rng.randint(0, len(argv[t]))
        argv[t] = argv[t][:k] + "\udcff" + argv[t][k:]
    elif kind == "repeat":
        argv[t:t] = argv[t:t + rng.randint(1, 3)]
    else:
        argv[t] = garble(argv[t], rng)
    return argv


def slots(doc):
    """(container, key) of every value in a chart document, the document's own keys first."""
    out, todo = [], [doc]
    while todo:
        node = todo.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return out


def mutate_file(data, kind, rng):
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "non-utf8":
        k = rng.randrange(len(data))
        return data[:k] + rng.choice([b"\xff", b"\xc3(", b"\xed\xa0\x80"]) + data[k:]
    if kind == "repeat":
        a = rng.randrange(len(data))
        b = min(len(data), a + rng.randint(1, 40))
        return data[:b] + data[a:b] * rng.randint(1, 3) + data[b:]
    if kind == "garble":
        return garble(data.decode("utf-8"), rng).encode("utf-8")
    doc = json.loads(data)
    everywhere = slots(doc)
    numeric = [(node, key) for node, key in everywhere
               if type(node[key]) is int or (isinstance(node[key], str)
                                             and node[key].lstrip("-").isdigit())]
    node, key = rng.choice(numeric if kind in ("huge", "negative") else everywhere)
    value = node[key]
    if kind == "drop":
        node.pop(key)
    elif kind == "swap-type":
        node[key] = rng.choice([v for v in ("1", 1, 1.5, None, True, [], {}, [value])
                                if type(v) is not type(value)])
    elif kind == "nest":
        for _ in range(rng.choice([1, 3, 100])):
            value = [value]
        node[key] = value
    elif kind == "huge":
        node[key] = int(rng.choice(HUGE[:2])) if type(value) is int else rng.choice(HUGE)
    else:
        node[key] = -abs(int(value)) or -1 if type(value) is int else "-" + value.lstrip("-")
    return json.dumps(doc).encode("utf-8")


def fuzz_cases(tmp_path):
    """[(case id, argv)]: every golden command and every fixture, each kind, seeded."""
    cases = []
    for c, command in enumerate(ROUND0):
        for kind in KINDS:
            for variant in range(VARIANTS):
                rng = random.Random(f"argv {c} {kind} {variant}")
                cases.append((f"argv {c} {kind} {variant}",
                              mutate_argv(command.split(), kind, rng)))
    for path in sorted(FIXTURES.glob("*.json")):
        for kind in KINDS:
            for variant in range(VARIANTS):
                rng = random.Random(f"{path.name} {kind} {variant}")
                mutated = tmp_path / f"{path.stem}-{kind}-{variant}.json"
                mutated.write_bytes(mutate_file(path.read_bytes(), kind, rng))
                command = list(rng.choice(FILE_COMMANDS))
                command[1:1] = ["--variety", f"file:{mutated}"]
                cases.append((f"{path.name} {kind} {variant}", command))
    return cases


def test_fuzz_covers_every_source_and_kind(tmp_path):
    cases = fuzz_cases(tmp_path)
    assert len(list(FIXTURES.glob("*.json"))) == 6 and len(ROUND0) == 8
    assert len(cases) == (6 + 8) * len(KINDS) * VARIANTS
    assert len(set(map(json.dumps, (argv for _, argv in cases)))) > 0.9 * len(cases)
    assert cases == fuzz_cases(tmp_path)  # seeded: the same cases every run


def test_fuzzed_inputs_exit_with_a_code_and_no_traceback(tmp_path):
    cases = fuzz_cases(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = []
    for i in range(CHILDREN):
        batch = tmp_path / f"batch-{i}.json"
        batch.write_text(json.dumps([argv for _, argv in cases[i::CHILDREN]]), encoding="utf-8")
        procs.append(subprocess.Popen([sys.executable, "-c", CHILD, str(batch)],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                      env=dict(os.environ, PYTHONPATH=src)))
    results = [None] * len(cases)
    for i, proc in enumerate(procs):
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        results[i::CHILDREN] = json.loads(out)
    bad = [(name, argv, code, err[-400:]) for (name, argv), (code, err) in zip(cases, results)
           if code not in (0, 1, 2) or "Traceback" in err
           or (code == 1 and not any(line.startswith("terracini: error:")
                                     for line in err.splitlines()))]
    assert bad == []
