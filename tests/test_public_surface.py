"""Every public function and class of the package serves something.

A module-level public ``def`` or ``class`` in ``src/cliffbundle`` must be
read by another top-level statement of the package, by the benchmark
(``perfbench/*.py``) or by the acceptance tests; otherwise ``KEPT`` names it
with the reason it stays.  A ``KEPT`` entry that names nothing, or a name
that is already read elsewhere, fails too, so the table cannot go stale.

The project configures no linter, so the sources are read with ``ast``.
Inside the package a read is a loaded name or an attribute; a docstring
reads nothing.  From outside, the package is reached only through an
import from it, an attribute of one of its modules, or, as the benchmark
patches it, a ``(module, attribute path)`` pair of strings.  A local
variable that shares a public name (the benchmark's ``census`` dict) does
not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = {p.name: p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "src" / "cliffbundle").glob("*.py"))}
OUTSIDE = sorted([*(ROOT / "perfbench").glob("*.py"),
                  ROOT / "tests" / "test_acceptance.py"])

KEPT = {
    "is_nowhere_zero": "the paper's hypothesis over F_p that q vanishes nowhere (a flat "
                       "conic bundle), checked with its first witness",
    "singularity_type_at": "open item 11: the Hessian oracle of the regularity census",
    "conic_point_count": "item 16: the brute-force oracle of the split rule",
    "kernel_basis": "open item 2: the boxed kernel the int elimination is checked against",
    "bs_membership": "reference route: the conic equation against the kernel matrix's rank",
    "bs_matrix_via_algebra": "reference route: the rewriting engine against bs_matrix",
    "trace_pairing_fiber": "reference route: one fiber's pairing against the global one",
}


def reads_inside(statement) -> set:
    """Names a statement of the package reads: loaded names and attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


def reads_outside(source: str, modules) -> set:
    """Names of the package that ``source`` reaches: names imported from
    it, attributes, and each part of a string path that follows the string
    name of one of ``modules`` in a tuple or an argument list."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cliffbundle"):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Call)):
            items = node.args if isinstance(node, ast.Call) else node.elts
            for module, path in zip(items, items[1:]):
                if (isinstance(module, ast.Constant) and module.value in modules
                        and isinstance(path, ast.Constant) and isinstance(path.value, str)):
                    read.update(path.value.split("."))
    return read


def unserved_names(package, outside, kept) -> list:
    """Public top-level functions and classes of ``package`` (file name to
    source) that no other top-level statement there reads, that are not in
    the set ``outside`` and not in ``kept``; then the ``kept`` entries that
    name nothing or a name read elsewhere."""
    defined, statements = [], []
    for module, source in package.items():
        for statement in ast.parse(source).body:
            statements.append((statement, reads_inside(statement)))
            if (isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and not statement.name.startswith("_")):
                defined.append((module, statement))
    found, held = [], set()
    for module, node in defined:
        if node.name in outside or any(node.name in read for statement, read in statements
                                       if statement is not node):
            held.add(node.name)
        elif node.name not in kept:
            found.append(f"{module}:{node.lineno}: {node.name}")
    names = {node.name for _, node in defined}
    found += [f"KEPT {name}: names nothing" for name in kept if name not in names]
    found += [f"KEPT {name}: already read" for name in kept if name in held]
    return found


def read_from_outside() -> set:
    modules = {Path(name).stem for name in PACKAGE}
    return set().union(*(reads_outside(p.read_text(encoding="utf-8"), modules)
                         for p in OUTSIDE))


def test_both_trees_are_read():
    assert {"clifford.py", "qform.py"} <= set(PACKAGE)
    assert {"run.py", "tracing.py", "test_acceptance.py"} <= {p.name for p in OUTSIDE}


def test_every_public_name_is_served():
    assert unserved_names(PACKAGE, read_from_outside(), KEPT) == []


@pytest.mark.parametrize("package, outside, kept, found", [
    ({"a.py": "def f():\n    pass\n"}, set(), {}, ["a.py:1: f"]),
    ({"a.py": "def f():\n    pass\ndef g():\n    f()\n"}, set(), {}, ["a.py:3: g"]),
    ({"a.py": "def f():\n    return f()\n"}, set(), {}, ["a.py:1: f"]),
    ({"a.py": "class C:\n    pass\n", "b.py": "import a\nX = a.C\n"}, set(), {}, []),
    ({"a.py": 'def f():\n    pass\ndef g():\n    "Calls f."\n'}, {"g"}, {},
     ["a.py:1: f"]),
    ({"a.py": "def f():\n    pass\n"}, {"f"}, {}, []),
    ({"a.py": "def f():\n    pass\n"}, set(), {"f": "why"}, []),
    ({"a.py": "def _f():\n    pass\n"}, set(), {}, []),
    ({"a.py": ""}, set(), {"g": "why"}, ["KEPT g: names nothing"]),
    ({"a.py": "def f():\n    pass\n"}, {"f"}, {"f": "why"}, ["KEPT f: already read"]),
])
def test_a_planted_unserved_name_is_caught(package, outside, kept, found):
    assert unserved_names(package, outside, kept) == found


@pytest.mark.parametrize("source, read", [
    ("from cliffbundle import census\n", {"census"}),
    ("census = payload['census']\ncensus['LinePair']\n", set()),
    ("patch('qform', 'projective_points', wrap)\n", {"projective_points"}),
    ("TARGETS = (('span', 'catalog', 'F25PlusProvider.fiber_form'),)\n",
     {"F25PlusProvider", "fiber_form"}),
    ("patch('json', 'census')\n", set()),
])
def test_outside_reads_only_what_reaches_the_package(source, read):
    assert reads_outside(source, {"qform", "catalog"}) == read


def test_a_readded_wrapper_is_caught():
    wrapper = ("\n\ndef census(q):\n"
               "    return fiber_census(q).counts\n")
    package = {**PACKAGE, "qform.py": PACKAGE["qform.py"] + wrapper}
    found = unserved_names(package, read_from_outside(), KEPT)
    assert [f.rpartition(": ")[2] for f in found] == ["census"]
