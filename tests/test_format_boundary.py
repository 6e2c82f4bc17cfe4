"""Only ``poly`` knows the packed-exponent term format.

Every other module of the package works through exponent tuples and domain
elements (``iter_terms``, ``coefficient``, ``evaluate``, the ring and BiPoly
constructors).  So none of them may import the term kernel or read a
``terms`` attribute; this test reads their source with ``ast``.

Likewise no module of the package imports a sibling's underscore-prefixed
name: what two modules share is public in the module that owns it.

Two layouts have one converter each.  In ``qform`` only the slot packer and
the slot reader turn ints into bytes and slots or back; in ``poly`` a ratio
n / d becomes a stored coefficient by ``div_coeff``, never by a domain's
``from_pair``.

A batch of zeros in ``qform`` reads its columns at many indices by one
``operator.itemgetter`` each, never by mapping a bound ``__getitem__``.

One layout has no converter at all.  The 64 structure constants of a
rank-4 algebra are flat from the engine to every reader, so no module
subscripts ``constants`` twice in a chain, and the per-point values of a
form stay an upper triangle, so ``brauer_severi`` builds no grid.
"""

import ast
from pathlib import Path

import pytest

from cliffbundle import poly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliffbundle"

KERNEL = {"pack", "unpack", "div_coeff", "add_multiple", "add_product",
          "reduce_terms", "mul_terms", "divide_terms", "guard_bits",
          "terms_to_string", "SparsePoly"}

MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "poly.py")

PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))


def format_leaks(source: str) -> list:
    """Lines of ``source`` that import the term kernel or touch ``terms``."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            leaks += [f"line {node.lineno}: imports {alias.name}"
                      for alias in node.names if alias.name in KERNEL]
        elif isinstance(node, ast.Attribute) and (node.attr == "terms"
                                                  or node.attr in KERNEL):
            leaks.append(f"line {node.lineno}: reads .{node.attr}")
    return leaks


def test_every_kernel_name_is_defined_by_poly():
    assert {name for name in KERNEL if not hasattr(poly, name)} == set()


def test_the_package_has_modules_besides_poly():
    assert {p.name for p in MODULES} >= {"brauer_severi.py", "qform.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_poly_knows_the_term_format(path):
    assert format_leaks(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .poly import pack",
    "from cliffbundle.poly import HomogPoly, SparsePoly",
    "def f(g):\n    return len(g.terms)",
    "from . import poly\nk = poly.div_coeff",
])
def test_a_planted_leak_is_caught(source):
    assert format_leaks(source)


def private_imports(source: str) -> list:
    """Lines of ``source`` that import an underscore-prefixed name from a
    module of the package, by a relative or an absolute import."""
    return [f"line {node.lineno}: imports {alias.name} from {node.module or '.'}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "cliffbundle")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .clifford import _GENERIC_ENTRIES, fiber_algebra",
    "from cliffbundle.clifford import (\n    specializer,\n    _generic_table)",
    "def f():\n    from .poly import _grid\n    return _grid",
    "from . import _private",
])
def test_a_planted_private_import_is_caught(source):
    assert private_imports(source)


@pytest.mark.parametrize("source", [
    "from __future__ import annotations",
    "from functools import _lru_cache_wrapper",
    "from .clifford import GENERIC_ENTRIES, generic_form",
])
def test_public_and_outside_imports_pass(source):
    assert private_imports(source) == []


SLOT_CONVERTERS = {"pack_slots", "slots"}

BYTE_CONVERSIONS = {"to_bytes", "from_bytes", "tobytes", "cast"}


def reads_outside(source: str, names, owners=()) -> list:
    """Lines of ``source`` that read an attribute in ``names`` outside the
    module-level functions named in ``owners``."""
    tree = ast.parse(source)
    owned = {id(node) for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name in owners
             for node in ast.walk(f)}
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            and id(node) not in owned]


def test_only_the_slot_converters_convert_packed_ints():
    source = (PACKAGE / "qform.py").read_text(encoding="utf-8")
    assert reads_outside(source, BYTE_CONVERSIONS, SLOT_CONVERTERS) == []
    assert reads_outside(source, BYTE_CONVERSIONS) != []
    assert SLOT_CONVERTERS <= {f.name for f in ast.parse(source).body
                               if isinstance(f, ast.FunctionDef)}


def test_poly_reads_ratios_through_div_coeff_alone():
    source = (PACKAGE / "poly.py").read_text(encoding="utf-8")
    assert reads_outside(source, {"from_pair"}) == []


@pytest.mark.parametrize("source", [
    "def f(x):\n    return x.to_bytes(8, 'little')",
    "row = int.from_bytes(b'', 'little')",
    "class PackedLines:\n    def slots(self, x):\n        return memoryview(x).cast('Q')",
    "def pack_slots(v):\n    def g():\n        pass\n    return v\ng = array('Q').tobytes()",
])
def test_a_planted_conversion_is_caught(source):
    assert reads_outside(source, BYTE_CONVERSIONS, SLOT_CONVERTERS)


def test_a_conversion_inside_a_converter_passes():
    source = "def slots(x, n):\n    return memoryview(x.to_bytes(n, 'little')).cast('Q')"
    assert reads_outside(source, BYTE_CONVERSIONS, SLOT_CONVERTERS) == []


def item_maps(source: str) -> list:
    """Lines of ``source`` that map a bound ``__getitem__``, as in
    ``map(column.__getitem__, lines)``."""
    return [f"line {node.lineno}: maps .__getitem__" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
            and node.args and getattr(node.args[0], "attr", None) == "__getitem__"]


def test_qform_gathers_by_itemgetter():
    assert item_maps((PACKAGE / "qform.py").read_text(encoding="utf-8")) == []


def test_a_planted_item_map_is_caught():
    assert item_maps("at = [list(map(row.__getitem__, ts)) for row in powers]")
    assert item_maps("at = [itemgetter(*ts)(row) for row in powers]") == []


def nested_constant_reads(source: str) -> list:
    """Lines of ``source`` that subscript a name or attribute called
    ``constants`` twice in a chain, as in ``alg.constants[i][j]``."""
    def is_constants(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "constants"
    return [f"line {node.lineno}: subscripts constants twice"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
            and is_constants(node.value.value)]


def calls_to(source: str, name: str) -> list:
    """Lines of ``source`` that call ``name``, bare or as an attribute."""
    return [f"line {node.lineno}: calls {name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_structure_constants_nested(path):
    assert nested_constant_reads(path.read_text(encoding="utf-8")) == []


def test_brauer_severi_builds_no_grid():
    source = (PACKAGE / "brauer_severi.py").read_text(encoding="utf-8")
    assert calls_to(source, "symmetric_grid") == []


def test_a_planted_nested_read_and_grid_are_caught():
    assert nested_constant_reads("def f(alg):\n    return alg.constants[1][2][0]")
    assert nested_constant_reads("x = alg.constants[16 * i + 4 * j + k]") == []
    assert calls_to("from . import linalg\ng = linalg.symmetric_grid(v)", "symmetric_grid")
