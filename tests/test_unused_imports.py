"""No module of the package or the tests imports a name it never reads,
and no private helper of the package is left unread.

The project configures no linter, so these tests read the source with
``ast``: every name a top-level import binds must be read somewhere in the
module (``__init__.py`` only re-exports and is exempt), and every top-level
``_name`` the package defines must be read somewhere in the package.
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


def dead_private_names(sources) -> list:
    """Top-level ``_names`` (functions, classes, assignments; dunders
    aside) defined in ``sources`` and read, by name or as an attribute, in
    none of them."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__")):
                        defined[name.id] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{where}: {name}" for name, where in defined.items() if name not in read]


def test_no_dead_private_helper():
    package = sorted((ROOT / "src" / "cliffbundle").glob("*.py"))
    assert dead_private_names({p.name: p.read_text(encoding="utf-8")
                               for p in package}) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a.py": "def _f():\n    pass\n"}, ["a.py:1: _f"]),
    ({"a.py": "_X = 1\nclass _C:\n    pass\n"}, ["a.py:1: _X", "a.py:2: _C"]),
    ({"a.py": "def _f():\n    pass\n", "b.py": "from a import _f\n_f()\n"}, []),
    ({"a.py": "_X = 1\n", "b.py": "import a\na._X\n"}, []),
    ({"a.py": "__all__ = []\ndef f():\n    _y = 1\n"}, []),
])
def test_a_planted_dead_helper_is_caught(sources, dead):
    assert dead_private_names(sources) == dead
