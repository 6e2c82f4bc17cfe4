"""The report writer and what a CLI job leaves behind.

``cli.json_text`` must write exactly what ``json.dumps(indent=2,
sort_keys=True, default=str)`` writes, on any JSON-like tree: a Hypothesis
property draws non-ASCII and control characters, empty containers, negative
and long ints, floats and ``Fraction`` leaves.  And a CLI job must free
everything it allocates by reference counting: with the cyclic collector
disabled, a job of each benchmark command leaves no reference cycle.
"""

import gc
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import cli


def reference_text(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


LEAVES = (st.text()
          | st.text(st.characters(max_codepoint=0x7f))
          | st.integers()
          | st.integers(-10 ** 700, 10 ** 700)
          | st.booleans()
          | st.none()
          | st.floats()
          | st.fractions())

TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=TREES)
def test_the_writer_is_json_dumps(value):
    assert cli.json_text(value) == reference_text(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, "é\n\x00\ud800", -0.0,
    float("nan"), float("-inf"), Fraction(-7, 3), {1: "int key", 2.5: "float"},
    {True: 1}, {None: 2}, {"x": {"y": {"z": [[[]]]}}}, ["a", ["b", {"c": None}]],
])
def test_the_writer_is_json_dumps_on_fixed_values(value):
    assert cli.json_text(value) == reference_text(value)


def test_the_writer_refuses_what_json_dumps_refuses():
    too_long = 10 ** (sys.get_int_max_str_digits() + 1)
    for value in ({"a": 1, 2: "b"}, [too_long]):
        with pytest.raises(Exception) as want:
            reference_text(value)
        with pytest.raises(want.type):
            cli.json_text(value)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Seed-7 catalog documents (F25minus over F_101 and over Q, an F25plus
    net over F_101) and one with an inhomogeneous entry."""
    folder = tmp_path_factory.mktemp("documents")
    paths = {}
    for name, argv in (("F101", ["--type", "F25minus"]),
                       ("Q", ["--type", "F25minus", "--rational"]),
                       ("net", ["--type", "F25plus"])):
        out = []
        cli_main_quietly(["catalog", *argv, "--seed", "7"], out)
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(json.loads(out[0])["payload"]),
                               encoding="utf-8")
    bad = {"scalar_domain": "rational",
           "form": {"a": [0, 0, 0], "d": 1,
                    "entries": ["u + v^2", "0", "0", "v", "0", "w"]}}
    paths["bad"] = folder / "bad.json"
    paths["bad"].write_text(json.dumps(bad), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def cli_main_quietly(argv, out):
    """cli.main(argv) with its stdout appended to ``out``; the exit code."""
    stdout = StringIO()
    with redirect_stdout(stdout), redirect_stderr(StringIO()):
        code = cli.main(argv)
    out.append(stdout.getvalue())
    return code


@pytest.mark.parametrize("argv, code", [
    (["fiber", "F101", "--point", "1:2:3"], 0),
    (["fiber", "Q", "--point", "1:2:3"], 0),
    (["classify", "F101", "--point", "1:2:3"], 0),
    (["scan", "F101", "--prime", "101"], 0),
    (["scan", "Q", "--prime", "101"], 0),
    (["disc", "Q"], 0),
    (["trace-pairing", "F101"], 0),
    (["recover", "Q"], 0),
    (["bsv-verify", "F101"], 0),
    (["validate", "net"], 0),
    (["hilbert", "Q", "--order", "20"], 0),
    (["validate", "bad"], 1),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_no_cli_job_leaves_a_reference_cycle(documents, argv, code):
    argv = [argv[0], documents[argv[1]], *argv[2:]]
    out = []
    assert cli_main_quietly(argv, out) == code  # first use fills caches
    gc.collect()
    gc.disable()
    try:
        assert cli_main_quietly(argv, out) == code
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out[0] == out[1]
