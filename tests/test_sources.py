"""Static checks of the package sources: no module imports a name it never
uses, no annotation names something the module never binds, and only the
claim audit's modules import the polynomial ring."""

import ast
import builtins
from pathlib import Path

import pytest

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


def imported_names(source: str) -> set[str]:
    """Every name a module's import statements bind, under its original name."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_only_the_claim_audit_imports_multipoly(path):
    # a chart is its integer forms; MultiPoly is the ring of the symbolic
    # determinant audit (gamma15's poly_det) and exactlin defines it
    if path.name not in ("exactlin.py", "gamma15.py"):
        assert "MultiPoly" not in imported_names(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_binds_every_name_its_annotations_read(path):
    assert unbound_annotation_names(path.read_text(encoding="utf-8")) == []
