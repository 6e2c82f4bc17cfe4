"""The package imports only at the top of its modules, and its modules
import one another without a cycle.

An import inside a function hides a dependency from the reader, and is
the usual way round a cycle.  The sources are read with ``ast``;
``__init__.py`` only re-exports and is left out of the graph.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliffbundle"
SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def imports_inside_functions(source: str) -> list:
    """Line numbers of the imports nested in a function of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def relative_imports(source: str, modules) -> set:
    """The modules among ``modules`` that ``source`` imports relatively:
    ``from .m import x`` and ``from . import m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found.update(name for name in names if name in modules)
    return found


def import_cycle(sources) -> list:
    """A cycle of the relative-import graph of ``sources`` (module name to
    source), or [] when the graph is acyclic."""
    graph = {name: relative_imports(source, sources) for name, source in sources.items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_import_inside_a_function(module):
    assert imports_inside_functions(SOURCES[module]) == []


def test_the_import_graph_is_acyclic():
    assert {"catalog", "invariants", "cli"} <= set(SOURCES)
    assert import_cycle(SOURCES) == []


@pytest.mark.parametrize("source, lines", [
    ("import json\n", []),
    ("def f():\n    import json\n", [2]),
    ("class C:\n    def f(self):\n        from . import a\n", [3]),
])
def test_a_planted_local_import_is_caught(source, lines):
    assert imports_inside_functions(source) == lines


@pytest.mark.parametrize("sources, cyclic", [
    ({"a": "from . import b\n", "b": "from .c import x\n", "c": ""}, False),
    ({"a": "from .b import x\n", "b": "def f():\n    from . import a\n"}, True),
    ({"a": "from . import b, a\n", "b": ""}, True),
    ({"a": "from json import b\n", "b": "from . import a\n"}, False),
])
def test_a_planted_cycle_is_caught(sources, cyclic):
    assert bool(import_cycle(sources)) == cyclic
