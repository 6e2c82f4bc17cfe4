"""The benchmark's tracing targets resolve in the package.

``perfbench/tracing.py`` wraps program functions by (module, attribute
path); a deleted or renamed one makes every traced benchmark run fail with
a KeyError while the rest of the suite stays green.  The module is loaded
from its file and left unedited.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import cliffbundle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted({(module, path) for _, module, path, _ in
                  tracing.SPAN_TARGETS + tracing.COUNT_TARGETS})


@pytest.mark.parametrize("module, path", TARGETS)
def test_tracing_target_resolves(module, path):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    # The wrapper replaces the owner's own binding, not an inherited one.
    assert callable(vars(owner).get(attr)), f"{module}.{path}"


def test_install_and_uninstall_restore_every_binding():
    """The path a traced run takes, with the targets named in code too."""
    modules = [m for m in vars(cliffbundle).values()
               if isinstance(m, types.ModuleType)
               and m.__name__.startswith(f"{tracing.PACKAGE}.")]
    before = [dict(vars(m)) for m in modules]
    for recorder in (tracing.SpanRecorder(), tracing.OpCounter()):
        try:
            recorder.install()
        finally:
            recorder.uninstall()
    assert [dict(vars(m)) for m in modules] == before
