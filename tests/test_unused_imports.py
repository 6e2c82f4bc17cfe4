"""No module of the package or the tests imports a name it never reads.

The project configures no linter, so this test reads the source with
``ast``: every name a top-level import binds must be read somewhere in the
module.  ``__init__.py`` only re-exports and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "cliffbundle").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a top-level import of ``source`` and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def test_both_trees_are_read():
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert {"src/cliffbundle/clifford.py", "tests/test_clifford.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import random\n", ["line 1: random"]),
    ("from cliffbundle import QQ, PolyRing\nQQ.one\n", ["line 1: PolyRing"]),
    ("import os.path as osp\n", ["line 1: osp"]),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", []),
])
def test_a_planted_unused_import_is_caught(source, unused):
    assert unused_imports(source) == unused
