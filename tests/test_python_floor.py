"""The package parses on the oldest Python that ``pyproject.toml`` admits.

The suite runs on one interpreter, newer than the declared floor, so a
construct the floor lacks (``except*``, a new ``type`` statement) would
pass every other test.  ``ast.parse`` with ``feature_version`` refuses
such grammar; it checks syntax only, not library calls.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cliffbundle").glob("*.py"))


def python_floor() -> tuple:
    """The (major, minor) of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name,
              feature_version=python_floor())


def test_the_floor_refuses_newer_grammar():
    """The check has teeth: at 3.10, ``except*`` (3.11) does not parse."""
    assert python_floor() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=python_floor())
