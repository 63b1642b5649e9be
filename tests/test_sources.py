"""Static checks of the package sources: no module imports a name it never
uses, no annotation names something the module never binds, none defines or
imports the polynomial ring or a helper that only tests use, none draws but
through ``exactlin.randints``, and the kernel module exposes its two kernels
only."""

import ast
import builtins
from pathlib import Path

import pytest

from terracini import _kernels

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "terracini"
# the package __init__ imports names to re-export them; _kernels/__init__
# holds the kernels themselves
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def unbound_annotation_names(source: str) -> list[str]:
    """Names read in annotations, quoted ones included, that nothing binds.

    With ``from __future__ import annotations`` no annotation is evaluated,
    so an annotation may name a class the module never imports and the
    module still runs.  Builtins and every name the module binds anywhere
    (imports, definitions, assignments, parameters) count as bound.
    """
    tree = ast.parse(source)
    bound = set(dir(builtins))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            annotations.append(getattr(node, "returns", None))
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
    read = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                node = ast.parse(node.value, mode="eval")
            read.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return sorted(read - bound)


def test_unused_import_check_finds_unread_names():
    source = ("from __future__ import annotations\nimport os.path, sys as system\n"
              "from math import gcd, lcm\n\ndef f(x: int) -> int:\n    return lcm(x, 2)\n")
    assert unused_imports(source) == ["gcd", "os", "system"]


def test_annotation_check_finds_unbound_names():
    source = ("from __future__ import annotations\nfrom fractions import Fraction\n\n"
              "class Span:\n    rows: list[Vector]\n\n"
              "def f(x: Fraction, y: 'Table | None' = None) -> Span:\n    return x\n")
    assert unbound_annotation_names(source) == ["Table", "Vector"]


def defined_or_imported_names(source: str) -> set[str]:
    """Every name a module defines (class, function) or imports, under its original name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_only_the_claim_audit_imports_multipoly(path):
    # a chart is its integer forms and D is decided by evaluation; the ring
    # and its determinant serve the symbolic claim audit, which lives in
    # tests/oracles.py, so no package module defines or imports either
    names = defined_or_imported_names(path.read_text(encoding="utf-8"))
    assert not names & {"MultiPoly", "poly_det"}


# no command-line run enters these, so they live in tests/oracles.py
# (TangentAlongScheme is gone: tangent_along returns its span)
TEST_ONLY = {"curve_derivatives", "chart_to_obj", "save_chart", "build_for_length3",
             "column_labels", "_gamma15_columns", "generators", "FiveJet", "TangentAlongScheme"}


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_test_only_helpers_stay_in_the_oracles(path):
    source = path.read_text(encoding="utf-8")
    assert not defined_or_imported_names(source) & TEST_ONLY


def stray_draws(source: str) -> list[str]:
    """Calls of ``randint``, ``randrange`` or ``choice``, which bypass ``exactlin.randints``."""
    return sorted(name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
                  if name in {"randint", "randrange", "choice"})


def test_stray_draw_check_finds_other_draws():
    source = ("import random\nfrom random import choice\n\n"
              "def f(rng):\n    return rng.randint(0, 1), choice([1]), random.randrange(3)\n")
    assert stray_draws(source) == ["choice", "randint", "randrange"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_draw_goes_through_randints(path):
    # randints pins the CPython 3.11 randint stream; a direct call would follow
    # whatever randint does on the running Python
    assert stray_draws(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_binds_every_name_its_annotations_read(path):
    assert unbound_annotation_names(path.read_text(encoding="utf-8")) == []


def test_kernels_module_exposes_the_two_kernels_only():
    # the benchmark's tracer wraps every public callable of _kernels, so a
    # helper there must stay private; and rank mod p has one kernel in src
    public = {name for name, obj in vars(_kernels).items()
              if not name.startswith("_") and callable(obj)}
    assert public == {"bareiss_echelon", "mod_rank"}
    assert _kernels.BACKEND == "python"
    rank_defs = [node.name for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef) and "mod" in node.name and "rank" in node.name]
    assert rank_defs == ["mod_rank"]
