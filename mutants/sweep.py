"""Single-line mutation sweep: each comparison and each ``+ 1`` or ``- 1`` of the given files.

    python3 mutants/sweep.py src/terracini/catalog.py [FILE ...]
    python3 mutants/sweep.py --list src/terracini/*.py   # the mutants, none run

A mutant changes one place on one line: it swaps a comparison with its
neighbour (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``) or drops
a ``+ 1`` or ``- 1``.  The places are found with ``ast``, and a place whose
source text is not the operator expected there is skipped.  Each mutant
runs the whole tier-1 suite (the pytest testpaths, stopping at the first
failure) on a copy made as ``run.py`` makes it, with
``tests/test_mutants.py`` left out, so that a moved anchor of a curated
mutant is not a kill.  The sweep prints one line per mutant, then its
survivors, and exits 1 if any survive.  It uses the standard library only
and is not part of the tier-1 suite; each mutant takes about as long as
the suite.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from run import ROOT, copy_tree, run_tests

SWAPS = {ast.Lt: (b"<", b"<="), ast.LtE: (b"<=", b"<"), ast.Gt: (b">", b">="),
         ast.GtE: (b">=", b">"), ast.Eq: (b"==", b"!="), ast.NotEq: (b"!=", b"==")}


class Mutant(NamedTuple):
    file: str     # relative to the repository root
    line: int     # 1-based
    old: str      # the line as it is
    new: str      # the mutated line


def _edits(tree: ast.AST, lines: list[bytes]):
    """(line index, start, end, text) of every single-line edit, in byte offsets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                old, new = SWAPS.get(type(op), (None, None))
                if old and left.end_lineno == right.lineno:
                    gap = lines[right.lineno - 1][left.end_col_offset:right.col_offset]
                    if gap.strip(b" ()") == old:  # only the operator between the operands
                        start = left.end_col_offset + gap.index(old)
                        yield right.lineno - 1, start, start + len(old), new
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
              and isinstance(node.right, ast.Constant) and type(node.right.value) is int
              and node.right.value == 1 and node.left.end_lineno == node.right.end_lineno):
            line = lines[node.right.lineno - 1]
            if line[node.left.end_col_offset:node.right.end_col_offset].replace(b" ", b"") \
                    in (b"+1", b"-1"):
                yield node.right.lineno - 1, node.left.end_col_offset, node.right.end_col_offset, b""


def mutants(rel: str) -> list[Mutant]:
    """The single-line mutants of one file, in line order, each parsing and each distinct."""
    source = (ROOT / rel).read_bytes()
    lines = source.splitlines(keepends=True)
    out = {}
    for i, start, end, text in _edits(ast.parse(source), lines):
        new = lines[i][:start] + text + lines[i][end:]
        try:
            ast.parse(b"".join(lines[:i] + [new] + lines[i + 1:]))
        except SyntaxError:
            continue
        out[i, new] = Mutant(rel, i + 1, lines[i].decode().rstrip("\n"), new.decode().rstrip("\n"))
    return sorted(out.values(), key=lambda m: (m.line, m.new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository root")
    parser.add_argument("--list", action="store_true", help="print the mutants and run none")
    args = parser.parse_args(argv)
    found = [m for f in args.files for m in mutants(Path(f).resolve().relative_to(ROOT).as_posix())]
    if args.list:
        for m in found:
            print(f"{m.file}:{m.line}: {m.new.strip()}")
        print(f"{len(found)} mutants")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        suite = ["--ignore=tests/test_mutants.py"]
        if run_tests(copy, suite) != "passed":
            print("the unmutated copy fails the suite")
            return 2
        survivors = []
        for m in found:
            path = copy / m.file
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            lines[m.line - 1] = m.new + lines[m.line - 1][len(m.old):]
            path.write_text("".join(lines), encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome = run_tests(copy, suite)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{m.file}:{m.line}: {verdict} in {time.perf_counter() - start:.1f} s:"
                  f" {m.new.strip()}", flush=True)
            if outcome == "passed":
                survivors.append(m)
    print(f"{len(found) - len(survivors)} of {len(found)} mutants killed")
    for m in survivors:
        print(f"survivor {m.file}:{m.line}:\n  - {m.old.strip()}\n  + {m.new.strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
