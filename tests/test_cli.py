"""End-to-end CLI behaviour: payloads, exit codes, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import PrimeField, brauer_severi, catalog, cli, clifford, linalg, poly, qform
from cliffbundle.errors import InternalInvariantError, NotDivisibleError
from cliffbundle.poly import EXP_LIMIT
from cliffbundle.scalars import PRIME_LIMIT
from conftest import unlimited_text

DIAG_DOC = {
    "scalar_domain": "rational",
    "form": {"a": [0, 0, 0], "d": 1,
             "entries": ["u", "0", "0", "v", "0", "w"]},
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.out


def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["status"] == "ok"
    assert report["payload"]["kind"] == "form"
    assert report["payload"]["entry_degrees"] == [[1, 1, 1]] * 3


def test_validate_bad_pattern_exits_1(tmp_path, capsys):
    doc = json.loads(json.dumps(DIAG_DOC))
    doc["form"]["entries"][0] = "u^2"
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 1
    assert report["status"] == "invalid-input"


def test_validate_requires_exactly_one_body(tmp_path, capsys):
    doc = {"scalar_domain": "rational"}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 1


@pytest.mark.parametrize("text", ["5", "null", "true", "1.5", '"form"', "[1]"])
def test_non_object_documents_exit_1(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, report, _ = run_cli(capsys, ["validate", str(path)])
    assert code == 1
    assert report["status"] == "invalid-input"
    assert report["payload"]["message"] == "document must be a JSON object"


def test_disc(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["disc", path])
    assert code == 0
    assert report["payload"]["discriminant"] == "u*v*w"
    assert report["payload"]["degree"] == 3


def test_normalize(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["normalize", path])
    assert code == 0
    assert report["payload"]["a"] == [-1, -1, -1]
    assert report["payload"]["d"] == 3
    assert report["payload"]["entries"] == ["u", "0", "0", "v", "0", "w"]


@pytest.mark.parametrize("tag,k3,h12", [("F23", 30, 0), ("F24", 24, 2),
                                        ("F25plus", 16, 5), ("F25minus", 18, 5)])
def test_invariants_rows(capsys, tag, k3, h12):
    code, report, _ = run_cli(capsys, ["invariants", "--type", tag])
    assert code == 0
    assert report["payload"]["minus_K3"] == k3
    assert report["payload"]["h12"] == h12


def test_invariants_refuses_a_table_h12_off_the_topological_route(capsys, monkeypatch):
    tag = catalog.DelPezzoTag.coerce("F24")
    row = catalog.CATALOG[tag]
    monkeypatch.setitem(catalog.CATALOG, tag, dataclasses.replace(row, h12=3))
    code, report, _ = run_cli(capsys, ["invariants", "--type", "F24"])
    assert code == 2
    assert report["payload"]["error"] == "InconsistentInvariantsError"
    assert "h12 = 2" in report["payload"]["contract"]

def test_fiber_and_classify(tmp_path, capsys):
    doc = {"scalar_domain": {"prime": 5}, "form": DIAG_DOC["form"]}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["fiber", path, "--point", "1:1:1"])
    assert code == 0
    payload = report["payload"]
    assert payload["rank"] == 3
    assert payload["conic_type"] == "SmoothConic"
    assert payload["algebra_type"] == 1
    assert payload["azumaya"] is True
    code, report, _ = run_cli(capsys, ["classify", path, "--point", "0:1:1"])
    assert report["payload"]["algebra_type"] == 2


def test_point_parse_error(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["fiber", path, "--point", "1:1"])
    assert code == 1


F101_DOC = {"scalar_domain": {"prime": 101}, "form": DIAG_DOC["form"]}


@pytest.mark.parametrize("command", ["fiber", "classify"])
@pytest.mark.parametrize("doc, point", [(DIAG_DOC, "1/0:1:1"),
                                        (F101_DOC, "1/0:1:1"),
                                        (F101_DOC, "1:2/101:1")])
def test_point_with_zero_denominator_exits_1(tmp_path, capsys, command, doc, point):
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, [command, path, "--point", point])
    assert code == 1
    assert report["status"] == "invalid-input"
    assert "denominator" in report["payload"]["message"]


def without(body: dict, name: str) -> dict:
    return {k: v for k, v in body.items() if k != name}


@pytest.mark.parametrize("doc, field", [
    (["form"], "document"),
    ({"scalar_domain": {"prime": 101.9}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": {"prime": True}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": {"prime": "101"}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], d=0.7)},
     "form.d"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], d=True)},
     "form.d"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], a=[0, 1.2, 1.9])},
     "form.a[1]"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], a=[False, 0, 0])},
     "form.a[0]"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], d=float("inf"))},
     "form.d"),
    ({"scalar_domain": {"prime": None}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": {"prime": [101]}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": {"prime": {"p": 101}}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": {"prime": "eleven"}, "form": DIAG_DOC["form"]},
     "scalar_domain.prime"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], d=None)},
     "form.d"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], a=[None, 0, 0])},
     "form.a[0]"),
    ({"scalar_domain": "rational", "form": dict(DIAG_DOC["form"], a=5)}, "form.a"),
    ({"scalar_domain": "rational", "form": without(DIAG_DOC["form"], "a")},
     "form.a is missing"),
    ({"scalar_domain": "rational", "form": without(DIAG_DOC["form"], "d")},
     "form.d is missing"),
    ({"scalar_domain": "rational", "form": []}, "form must be a JSON object"),
], ids=["array", "float-prime", "bool-prime", "string-prime", "float-d",
        "bool-d", "float-a", "bool-a", "infinite-d", "null-prime",
        "array-prime", "object-prime", "text-prime", "null-d", "null-a",
        "int-a", "missing-a", "missing-d", "array-form"])
def test_document_fields_must_be_json_integers(tmp_path, capsys, doc, field):
    path = write_doc(tmp_path, doc)
    for argv in (["validate", path], ["fiber", path, "--point", "1:2:1"]):
        code, report, _ = run_cli(capsys, argv)
        assert code == 1
        assert report["status"] == "invalid-input"
        assert report["payload"]["error"] == "ValueError"
        assert field in report["payload"]["message"]


NET_DOC = {"scalar_domain": {"prime": 101},
           "net": {"entries": cli.upper_entries(
               catalog.make_net(domain=PrimeField(101), seed=1).matrix)}}


MISSING = object()


@pytest.mark.parametrize("body, entries", [
    ("form", [[0, 1.2, 1.9]] + DIAG_DOC["form"]["entries"][1:]),
    ("form", "uvwuvw"),
    ("form", [7] + DIAG_DOC["form"]["entries"][1:]),
    ("form", None),
    ("net", [[0, 1.2, 1.9]] + NET_DOC["net"]["entries"][1:]),
    ("net", "uvwuvwuvwuvwuvw"),
    ("net", [7] + NET_DOC["net"]["entries"][1:]),
    ("form", MISSING),
    ("net", MISSING),
], ids=["form-array-entry", "form-string", "form-int-entry", "form-null",
        "net-array-entry", "net-string", "net-int-entry", "form-missing",
        "net-missing"])
def test_entries_must_be_an_array_of_strings(tmp_path, capsys, body, entries):
    doc = copy.deepcopy(DIAG_DOC if body == "form" else NET_DOC)
    if entries is MISSING:
        del doc[body]["entries"]
    else:
        doc[body]["entries"] = entries
    path = write_doc(tmp_path, doc)
    commands = [["validate", path]]
    if body == "form":
        commands += [["disc", path], ["fiber", path, "--point", "1:2:1"]]
    for argv in commands:
        code, report, _ = run_cli(capsys, argv)
        assert code == 1
        assert report["status"] == "invalid-input"
        assert report["payload"]["error"] == "ValueError"
        assert f"{body}.entries" in report["payload"]["message"]


@pytest.mark.parametrize("command", ["validate", "disc"])
def test_coefficient_denominator_zero_in_the_domain_exits_1(tmp_path, capsys, command):
    doc = copy.deepcopy(F101_DOC)
    doc["form"]["entries"][0] = "1/101*u"
    code, report, _ = run_cli(capsys, [command, write_doc(tmp_path, doc)])
    assert code == 1
    assert report["status"] == "invalid-input"
    assert report["payload"] == {"error": "PolyParseError",
                                 "message": "zero denominator"}


def test_coefficient_denominator_p_parses_over_q(tmp_path, capsys):
    doc = copy.deepcopy(DIAG_DOC)
    doc["form"]["entries"][0] = "1/101*u"
    code, report, _ = run_cli(capsys, ["disc", write_doc(tmp_path, doc)])
    assert code == 0
    assert report["payload"]["discriminant"] == "1/101*u*v*w"


@pytest.mark.parametrize("doc", [DIAG_DOC, F101_DOC], ids=["Q", "F101"])
def test_fractional_point_is_its_integer_multiple(tmp_path, capsys, doc):
    path = write_doc(tmp_path, doc)
    code, _, half = run_cli(capsys, ["fiber", path, "--point", "1/2:1:1"])
    assert code == 0
    _, _, whole = run_cli(capsys, ["fiber", path, "--point", "1:2:2"])
    assert half == whole


def test_trace_pairing_and_recover(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["trace-pairing", path])
    assert code == 0
    assert report["payload"]["pairing"][0][0] == "-v*w"
    code, report, _ = run_cli(capsys, ["recover", path])
    assert code == 0
    assert report["payload"]["sign"] == 1
    assert report["payload"]["entries"] == ["u", "0", "0", "v", "0", "w"]


def test_recover_degenerate_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(DIAG_DOC))
    doc["form"]["entries"][5] = "0"  # rank-2 form, zero discriminant
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["recover", path])
    assert code == 2
    assert report["status"] == "math-failure"
    assert "contract" in report["payload"]


def test_bsv_verify(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["bsv-verify", path])
    assert code == 0
    payload = report["payload"]
    assert payload["all_divisible"] is True
    assert payload["named_identities_ok"] is True
    assert payload["quotients"]["(4,3)"] == "(1)*a1"


def test_hilbert(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["hilbert", path, "--order", "6"])
    assert code == 0
    payload = report["payload"]
    assert payload["coefficients"] == [1, 0, 6, 0, 15, 0, 28]
    assert payload["numerator"] == [1, 0, 3]


def test_hilbert_refuses_an_order_past_the_limit(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    limit = cli.HILBERT_ORDER_LIMIT
    code, report, _ = run_cli(capsys, ["hilbert", path, "--order", str(limit + 1)])
    assert code == 1
    assert report["payload"]["error"] == "OrderTooLargeError"
    assert str(limit) in report["payload"]["message"]
    code, report, _ = run_cli(capsys, ["hilbert", path, "--order", str(limit)])
    assert code == 0
    assert len(report["payload"]["coefficients"]) == limit + 1


def test_scan_reduces_rational_doc(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "5"])
    assert code == 0
    census = report["payload"]["census"]
    assert census == {"SmoothConic": 16, "LinePair": 12,
                      "DoubleLine": 3, "WholePlane": 0}
    assert report["payload"]["points"] == 31
    assert report["payload"]["discriminant_zero_points"] == 15


def test_scan_refuses_a_denominator_that_vanishes_mod_the_prime(tmp_path, capsys):
    doc = copy.deepcopy(DIAG_DOC)
    doc["form"]["entries"][3] = "1/3*v"
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "3"])
    assert code == 1
    assert report["status"] == "invalid-input"
    assert report["payload"] == {
        "error": "ValueError",
        "message": "form.entries[3] (1/3*v) has a coefficient whose "
                   "denominator vanishes mod 3"}
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "5"])
    assert code == 0
    assert report["payload"]["census"] == {"SmoothConic": 16, "LinePair": 12,
                                           "DoubleLine": 3, "WholePlane": 0}


def test_scan_prime_mismatch(tmp_path, capsys):
    doc = {"scalar_domain": {"prime": 7}, "form": DIAG_DOC["form"]}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "5"])
    assert code == 1


def test_scan_thread_pool_matches_serial(tmp_path, capsys, monkeypatch):
    # CLIFFORD_THREADS no longer selects anything; the output must not move.
    path = write_doc(tmp_path, DIAG_DOC)
    _, _, serial = run_cli(capsys, ["scan", path, "--prime", "7"])
    monkeypatch.setenv("CLIFFORD_THREADS", "3")
    _, _, pooled = run_cli(capsys, ["scan", path, "--prime", "7"])
    assert pooled == serial


def test_scan_refuses_oversized_prime_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(qform, "plane_lines", no_scan)
    monkeypatch.setattr(qform, "PackedLines", no_scan)
    monkeypatch.setattr(cli, "reduce_mod", no_scan)
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "1000003"])
    assert code == 1
    assert report["payload"]["error"] == "ScanTooLargeError"
    assert str(qform.SCAN_POINT_LIMIT) in report["payload"]["message"]


def test_scan_never_evaluates_the_entries_along_a_line(tmp_path, capsys, monkeypatch):
    # The census evaluates only the discriminant along each line, and the
    # six entries only where it vanishes: one rank per zero, none elsewhere.
    code, report, _ = run_cli(capsys, ["catalog", "--type", "F25minus", "--seed", "7"])
    path = write_doc(tmp_path, report["payload"])
    ranked = []
    symmetric_rank = linalg.symmetric_rank

    def counted_rank(upper, p):
        ranked.append(upper)
        return symmetric_rank(upper, p)

    monkeypatch.setattr(linalg, "symmetric_rank", counted_rank)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "101"])
    assert code == 0
    assert sum(report["payload"]["census"].values()) == 101 * 101 + 101 + 1
    assert report["payload"]["discriminant_zero_points"] > 0
    assert len(ranked) == report["payload"]["discriminant_zero_points"]


@pytest.mark.parametrize("diagonal, point", [
    # diag(u, v, w): the first zero, (0, 0, 1), is on the whole line u = 0.
    (["u", "v", "w"], "(0, 0, 1)"),
    # The first zero, (0, 3, 1), is one of a line's few zeros; the whole
    # line u = 2w comes later.
    (["u - 2*w", "v - 3*w", "w"], "(0, 3, 1)"),
])
def test_rank_three_at_a_discriminant_zero_exits_3(tmp_path, capsys, monkeypatch,
                                                   diagonal, point):
    # Where the discriminant vanishes det = disc forces rank < 3, so a rank
    # of 3 there is a bug, not a smooth conic.
    q11, q22, q33 = diagonal
    doc = {"scalar_domain": "rational",
           "form": {"a": [0, 0, 0], "d": 1, "entries": [q11, "0", "0", q22, "0", q33]}}
    path = write_doc(tmp_path, doc)
    monkeypatch.setattr(linalg, "symmetric_rank", lambda upper, p: 3)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "5"])
    assert code == 3
    assert report["status"] == "internal-error"
    assert report["payload"]["error"] == "InternalInvariantError"
    assert report["payload"]["message"] == (
        f"the entry values have rank 3 at {point}, a zero of the discriminant")


@pytest.mark.parametrize("tag", ["F23", "F24", "F25plus", "F25minus"])
def test_catalog_roundtrip(tmp_path, capsys, tag):
    code, report, _ = run_cli(capsys, ["catalog", "--type", tag, "--seed", "7"])
    assert code == 0
    generated = report["payload"]
    path = write_doc(tmp_path, generated, name="gen.json")
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["status"] == "ok"


def test_catalog_rational_roundtrip(tmp_path, capsys):
    code, report, _ = run_cli(capsys,
                              ["catalog", "--type", "F23", "--seed", "3",
                               "--rational"])
    generated = report["payload"]
    assert generated["scalar_domain"] == "rational"
    path = write_doc(tmp_path, generated, name="gen.json")
    code, _, _ = run_cli(capsys, ["recover", path])
    assert code == 0


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    outputs = set()
    for _ in range(3):
        _, _, out = run_cli(capsys, ["disc", path])
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        _, _, out = run_cli(capsys, ["catalog", "--type", "F24", "--seed", "11"])
        outputs.add(out)
    assert len(outputs) == 2  # the catalog output is new but itself stable


def test_installed_entry_point_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cliffbundle.cli", "invariants", "--type", "F23"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["payload"]["minus_K3"] == 30
    assert "invariants: ok" in proc.stderr


def run_argv(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, whether it returns or
    exits; the timing in the stderr summary reads ``(ms)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, re.sub(r"\(\d+\.\d ms\)", "(ms)", err)


@pytest.mark.parametrize("argv", [["scan", "DOC", "--prime", "abc"], ["fiber", "DOC"],
                                  ["frobnicate", "DOC"]],
                         ids=["bad-int", "missing-option", "unknown-command"])
def test_a_malformed_command_line_exits_1(tmp_path, capsys, monkeypatch, argv):
    """A usage error is invalid input: exit 1, argparse's usage and message
    on stderr, nothing on stdout, in process and from ``python -m``.  Both
    wrap the usage at the same width."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [write_doc(tmp_path, DIAG_DOC) if a == "DOC" else a for a in argv]
    code, out, err = run_argv(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: cliffbundle") and "error: " in err
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cliffbundle.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def test_help_exits_0(capsys):
    for argv in (["-h"], ["fiber", "-h"]):
        code, out, err = run_argv(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: cliffbundle")


COMMAND_LINES = [
    ["validate", "DOC"], ["normalize", "DOC"], ["disc", "DOC"],
    ["fiber", "DOC", "--point", "1:2:3"], ["fiber", "DOC", "--point=1:1:0"],
    ["fiber", "--point", "1:0:0", "DOC"],
    ["classify", "DOC", "--point", "1:1:1"], ["classify", "--point=0:1:1", "DOC"],
    ["bsv-verify", "DOC"], ["trace-pairing", "DOC"], ["recover", "DOC"],
    ["invariants", "--type", "F24"], ["invariants", "--type=F25plus"],
    ["catalog", "--type", "F23", "--seed", "3", "--prime", "7"],
    ["catalog", "--type=F24", "--rational", "--seed=1"],
    ["catalog", "--type", "F23", "--pri", "11"],
    ["hilbert", "DOC", "--order", "4"], ["hilbert", "--order=4", "DOC"],
    ["scan", "DOC", "--prime", "5"], ["scan", "--prime=7", "DOC"],
    ["scan", "DOC", "--pri", "5"],
    ["fiber", "-h"], ["scan", "DOC", "-h"],
    ["fiber", "DOC", "--point", "1:1:1", "--bogus"], ["validate", "DOC", "--bogus=1"],
    ["validate", "DOC", "extra"],
    ["fiber", "DOC"], ["scan", "DOC"], ["catalog"],
    ["scan", "DOC", "--prime", "abc"], ["hilbert", "DOC", "--order=x"],
    ["frobnicate", "DOC"], ["-h"], [],
]


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_the_direct_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    """Each command line gives the same exit code, stdout and stderr with
    the direct route to a subparser and with every line sent through the
    full parser."""
    argv = [write_doc(tmp_path, DIAG_DOC) if a == "DOC" else a for a in argv]
    direct = run_argv(capsys, argv)
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert run_argv(capsys, argv) == direct


def test_a_command_skips_the_top_level_pass(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    path = write_doc(tmp_path, DIAG_DOC)
    for argv in (["fiber", path, "--point", "1:2:3"], ["scan", "--prime=5", path],
                 ["invariants", "--type", "F23"]):
        assert run_argv(capsys, argv)[0] == 0


@pytest.mark.parametrize("spec", ["rational", {"prime": 101}], ids=["Q", "F101"])
def test_coefficients_past_the_digit_limit_are_read(tmp_path, capsys, spec):
    """A 4,400-digit coefficient, past the 4,300 digits int() reads by
    default, gets its normal report.  It is 10 mod 101, where a repdigit of
    4,400 digits would be 0."""
    long = "6" + "7" * 4399
    doc = {"scalar_domain": spec,
           "form": {"a": [0, 0, 0], "d": 1, "entries": [f"{long}*u", "0", "0", "v", "0", "w"]}}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["payload"]["entry_degrees"] == [[1, 1, 1]] * 3
    c = 6 * 10 ** 4399 + 7 * (10 ** 4399 - 1) // 9
    if spec != "rational":
        c %= 101
    code, report, _ = run_cli(capsys, ["disc", path])
    assert code == 0
    assert report["payload"]["discriminant"] == f"{unlimited_text(c)}*u*v*w"
    code, report, _ = run_cli(capsys, ["fiber", path, "--point", "1:1:1"])
    assert (code, report["payload"]["rank"]) == (0, 3)


@pytest.mark.parametrize("spec", ["rational", {"prime": 101}], ids=["Q", "F101"])
def test_an_exponent_past_the_digit_limit_exits_1_by_name(tmp_path, spec, capsys):
    power = "7" * 4400
    doc = {"scalar_domain": spec,
           "form": {"a": [0, 0, 0], "d": 1,
                    "entries": [f"u^{power}", "0", "0", "v", "0", "w"]}}
    code, report, _ = run_cli(capsys, ["validate", write_doc(tmp_path, doc)])
    assert code == 1
    assert report["payload"] == {
        "error": "ExponentLimitError",
        "message": f"exponent {power} is larger than EXP_LIMIT = {EXP_LIMIT}"}


LONG = "6" + "7" * 4399  # 4,400 digits


def digit_limit_report(capsys, argv):
    code, report, out = run_cli(capsys, argv)
    assert (code, report["status"]) == (1, "invalid-input")
    assert report["payload"]["error"] == "DigitLimitError"
    assert "7777" not in out
    return report["payload"]["message"]


@pytest.mark.parametrize("spec", ["rational", {"prime": 101}], ids=["Q", "F101"])
def test_a_long_json_integer_exits_1_by_name(tmp_path, capsys, spec):
    """A JSON integer past 4,300 digits, which json.loads refuses with
    Python's bare ValueError, is refused by name; the message gives the
    limit, not the integer."""
    message = "the document holds an integer of more than 4300 digits"
    for field, value in (("d", LONG), ("d", "-" + LONG), ("a", f"[0, {LONG}, 0]")):
        text = json.dumps({"scalar_domain": spec, "form": dict(DIAG_DOC["form"], **{field: 0})})
        path = tmp_path / "doc.json"
        path.write_text(text.replace(f'"{field}": 0', f'"{field}": {value}'), encoding="utf-8")
        for argv in (["validate", str(path)], ["fiber", str(path), "--point", "1:2:1"]):
            assert digit_limit_report(capsys, argv) == message
    path = tmp_path / "prime.json"
    path.write_text(json.dumps(DIAG_DOC).replace('"rational"', f'{{"prime": {LONG}}}'),
                    encoding="utf-8")
    assert digit_limit_report(capsys, ["validate", str(path)]) == message


SETS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no int <-> str digit limit to set")


@contextlib.contextmanager
def interpreter_digit_limit(limit):
    """The block runs with the interpreter's int <-> str limit at ``limit``
    (0: no limit), as ``PYTHONINTMAXSTRDIGITS`` would set it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@SETS_DIGIT_LIMIT
@pytest.mark.parametrize("spec", ["rational", {"prime": 101}], ids=["Q", "F101"])
def test_document_fields_past_the_digit_limit_exit_1_without_the_interpreter_limit(
        tmp_path, capsys, spec):
    """Where the interpreter has no digit limit (as before Python 3.10.7),
    json.loads reads the integer and the field refuses it by name; 4,300
    digits still pass the field."""
    with interpreter_digit_limit(0):
        for field, value, name in (("d", 10 ** 4300, "form.d"), ("d", -10 ** 4300, "form.d"),
                                   ("a", [0, 0, 10 ** 4300], "form.a[2]")):
            doc = {"scalar_domain": spec, "form": dict(DIAG_DOC["form"], **{field: value})}
            path = write_doc(tmp_path, doc)
            assert digit_limit_report(capsys, ["validate", path]) == \
                f"{name} has more than 4300 digits"
        doc = {"scalar_domain": {"prime": 10 ** 4300 + 1}, "form": DIAG_DOC["form"]}
        assert digit_limit_report(capsys, ["validate", write_doc(tmp_path, doc)]) == \
            "scalar_domain.prime has more than 4300 digits"
        doc = {"scalar_domain": spec, "form": dict(DIAG_DOC["form"], d=10 ** 4300 - 1)}
        code, report, _ = run_cli(capsys, ["validate", write_doc(tmp_path, doc)])
        assert report["payload"]["error"] == "DegreePatternError"


def long_d_doc(tmp_path, spec, digits):
    """A document whose ``form.d`` has ``digits`` digits, written without
    formatting the integer."""
    text = json.dumps({"scalar_domain": spec, "form": dict(DIAG_DOC["form"], d=0)})
    path = tmp_path / "long_d.json"
    path.write_text(text.replace('"d": 0', '"d": 6' + "7" * (digits - 1)), encoding="utf-8")
    return str(path)


@SETS_DIGIT_LIMIT
@pytest.mark.parametrize("doc", [DIAG_DOC, F101_DOC], ids=["Q", "F101"])
def test_a_lower_interpreter_limit_is_the_limit_of_every_integer(tmp_path, capsys, doc):
    """Under an interpreter limit of 1,000 digits, a JSON integer and a
    --point coordinate of 2,000 digits are both refused naming 1,000, and
    a coordinate of 1,000 digits is read."""
    path = write_doc(tmp_path, doc)
    long_d = long_d_doc(tmp_path, doc["scalar_domain"], 2000)
    x = 10 ** 999 + 1
    expected = f"1/{x}:1:1" if doc is DIAG_DOC else f"{pow(x, -1, 101)}:1:1"
    with interpreter_digit_limit(1000):
        assert digit_limit_report(capsys, ["validate", long_d]) == \
            "the document holds an integer of more than 1000 digits"
        for point in ("6" + "7" * 1999 + ":1:1", "1:1:3/6" + "7" * 1999):
            assert digit_limit_report(capsys, ["fiber", path, "--point", point]) == \
                "a --point coordinate has more than 1000 digits"
        code, report, _ = run_cli(capsys, ["fiber", path, "--point", f"1:{x}:{x}"])
        assert (code, report["payload"]["point"]) == (0, expected)


@SETS_DIGIT_LIMIT
@pytest.mark.parametrize("doc", [DIAG_DOC, F101_DOC], ids=["Q", "F101"])
def test_a_higher_interpreter_limit_leaves_int_digit_limit(tmp_path, capsys, doc):
    """Under an interpreter limit of 10,000 digits, json.loads reads a
    5,000-digit integer and the field refuses it naming 4,300; an integer
    past 10,000 digits and a 5,000-digit coordinate name 4,300 too."""
    path = write_doc(tmp_path, doc)
    spec = doc["scalar_domain"]
    with interpreter_digit_limit(10000):
        assert digit_limit_report(capsys, ["validate", long_d_doc(tmp_path, spec, 5000)]) == \
            "form.d has more than 4300 digits"
        assert digit_limit_report(capsys, ["validate", long_d_doc(tmp_path, spec, 10001)]) == \
            "the document holds an integer of more than 4300 digits"
        assert digit_limit_report(capsys, ["fiber", path, "--point", "6" + "7" * 4999 + ":1:1"]) \
            == "a --point coordinate has more than 4300 digits"


@SETS_DIGIT_LIMIT
def test_the_environment_sets_the_digit_limit(tmp_path):
    """``PYTHONINTMAXSTRDIGITS`` lowers the limit of a CLI run."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cliffbundle.cli", "validate",
         long_d_doc(tmp_path, "rational", 2000)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONINTMAXSTRDIGITS="1000"))
    payload = json.loads(proc.stdout)["payload"]
    assert (proc.returncode, payload["error"], payload["message"]) == (
        1, "DigitLimitError", "the document holds an integer of more than 1000 digits")


@pytest.mark.parametrize("doc", [DIAG_DOC, F101_DOC], ids=["Q", "F101"])
@pytest.mark.parametrize("point", [f"{LONG}:1:1", f"1:-{LONG}:1", f"1:1:{LONG}/3",
                                   f"1:1:3/{LONG}", f" {LONG} :1:1"],
                         ids=["x", "negative-y", "numerator", "denominator", "spaced"])
def test_a_long_point_coordinate_exits_1_by_name(tmp_path, capsys, doc, point):
    path = write_doc(tmp_path, doc)
    for command in ("fiber", "classify"):
        assert digit_limit_report(capsys, [command, path, "--point", point]) == \
            "a --point coordinate has more than 4300 digits"


@pytest.mark.parametrize("doc", [DIAG_DOC, F101_DOC], ids=["Q", "F101"])
def test_a_point_coordinate_of_4300_digits_is_read(tmp_path, capsys, doc):
    path = write_doc(tmp_path, doc)
    x = 10 ** 4299 + 1
    code, report, _ = run_cli(capsys, ["fiber", path, "--point", f"1:{x}:{x}"])
    assert code == 0
    assert report["payload"]["point"] == (f"1/{x}:1:1" if doc is DIAG_DOC
                                          else f"{pow(x, -1, 101)}:1:1")


def test_exponents_past_the_limit_exit_1(tmp_path, capsys):
    doc = {"scalar_domain": "rational",
           "form": {"a": [0, 0, 0], "d": EXP_LIMIT + 1,
                    "entries": [f"u^{EXP_LIMIT + 1}", "0", "0", "v", "0", "w"]}}
    code, report, _ = run_cli(capsys, ["validate", write_doc(tmp_path, doc)])
    assert code == 1
    assert report["payload"]["error"] == "ExponentLimitError"
    assert "EXP_LIMIT" in report["payload"]["message"]
    # Entries at the limit are valid, but their determinant is u^(3*limit).
    top = f"u^{EXP_LIMIT}"
    doc["form"].update(d=EXP_LIMIT, entries=[top, "0", "0", top, "0", top])
    path = write_doc(tmp_path, doc)
    assert run_cli(capsys, ["validate", path])[0] == 0
    code, report, _ = run_cli(capsys, ["disc", path])
    assert code == 1
    assert report["payload"]["error"] == "ExponentLimitError"
    # The pairing and the recovery multiply two diagonal entries, u^(2*limit);
    # each product in the minor quotients has an off-diagonal factor, here 0.
    for field in ("rational", {"prime": 7}):
        doc["scalar_domain"] = field
        path = write_doc(tmp_path, doc)
        for command in ("trace-pairing", "recover"):
            code, report, _ = run_cli(capsys, [command, path])
            assert code == 1, (field, command)
            assert report["payload"]["error"] == "ExponentLimitError"
            assert "EXP_LIMIT" in report["payload"]["message"]
        assert run_cli(capsys, ["bsv-verify", path])[0] == 0


def test_slots_past_three_exp_limits_exit_1(tmp_path, capsys):
    # Zero entries fit any slot, but no nonzero entry has a degree past
    # 3 * EXP_LIMIT, so such a slot is refused before hilbert or disc run.
    doc = {"scalar_domain": "rational",
           "form": {"a": [0, 0, 0], "d": 3 * EXP_LIMIT + 1, "entries": ["0"] * 6}}
    code, report, _ = run_cli(capsys, ["validate", write_doc(tmp_path, doc)])
    assert code == 1
    assert report["payload"]["error"] == "DegreePatternError"
    assert "3*EXP_LIMIT" in report["payload"]["message"]
    doc["form"]["d"] = 3 * EXP_LIMIT
    assert run_cli(capsys, ["validate", write_doc(tmp_path, doc)])[0] == 0


def test_a_deeply_nested_document_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, report, _ = run_cli(capsys, ["validate", str(path)])
    assert code == 1
    assert report["status"] == "invalid-input"
    assert report["payload"]["message"] == "document nests too deeply"


def test_a_minor_off_the_conic_exits_3(tmp_path, capsys, monkeypatch):
    def not_divisible(f, g):
        raise NotDivisibleError("planted")
    monkeypatch.setattr(brauer_severi, "divide_exact_bipoly", not_divisible)
    # The division runs when the generic table is built, once per process.
    brauer_severi._generic_quotients.cache_clear()
    code, report, _ = run_cli(capsys, ["bsv-verify", write_doc(tmp_path, DIAG_DOC)])
    assert code == 3
    assert report["status"] == "internal-error"
    assert report["payload"]["error"] == "MinorNotDivisibleError"


def test_the_minor_division_runs_once_per_process(tmp_path, capsys, monkeypatch):
    calls = {"divide": 0, "minor": 0}
    divide, minor = brauer_severi.divide_exact_bipoly, brauer_severi.bipoly_minor

    def counted_divide(f, g):
        calls["divide"] += 1
        return divide(f, g)

    def counted_minor(*args):
        calls["minor"] += 1
        return minor(*args)

    monkeypatch.setattr(brauer_severi, "divide_exact_bipoly", counted_divide)
    monkeypatch.setattr(brauer_severi, "bipoly_minor", counted_minor)
    brauer_severi._generic_quotients.cache_clear()
    assert run_cli(capsys, ["bsv-verify", write_doc(tmp_path, DIAG_DOC)])[0] == 0
    assert calls == {"divide": 16, "minor": 16}
    for field in ([], ["--prime", "5"], ["--rational"]):
        _, report, _ = run_cli(capsys, ["catalog", "--type", "F24", *field])
        path = write_doc(tmp_path, report["payload"])
        assert run_cli(capsys, ["bsv-verify", path])[0] == 0
    assert calls == {"divide": 16, "minor": 16}


@pytest.mark.parametrize("tag, field", [("F25minus", ["--rational"]), ("F23", [])],
                         ids=["F25minus_Q", "F23_F101"])
def test_the_global_pairing_and_recovery_product_counts(tmp_path, capsys, monkeypatch,
                                                        tag, field):
    """trace-pairing multiplies the 12 distinct products of two entries that
    the nine pairing constants need; recover adds 12 for the six cofactors,
    3 for the determinant and 1 to check the square root.  bsv-verify
    multiplies the 6 distinct products of two entries in the quotient
    table."""
    _, report, _ = run_cli(capsys, ["catalog", "--type", tag, "--seed", "7", *field])
    path = write_doc(tmp_path, report["payload"])
    for command in ("trace-pairing", "bsv-verify"):  # build the tables
        assert run_cli(capsys, [command, path])[0] == 0
    calls = []
    add_product = poly.add_product

    def counted(*args):
        calls.append(args)
        return add_product(*args)

    monkeypatch.setattr(poly, "add_product", counted)
    for command, bound in (("trace-pairing", 12), ("recover", 28), ("bsv-verify", 6)):
        calls.clear()
        assert run_cli(capsys, [command, path])[0] == 0
        assert len(calls) <= bound, command


def test_catalog_over_a_large_prime_is_prompt(capsys):
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, ["catalog", "--type", "F23",
                                       "--prime", "1000000000000000003"])
    assert code == 0
    assert report["payload"]["scalar_domain"] == {"prime": 1000000000000000003}
    assert time.perf_counter() - started < 5
    code, report, _ = run_cli(capsys, ["catalog", "--type", "F23",
                                       "--prime", str(PRIME_LIMIT + 2)])
    assert code == 1
    assert "PRIME_LIMIT" in report["payload"]["message"]


# A classifier that answers central simple at a rank-2 point or type 2 at a
# rank-3 point; and type 2 at the rank-1 point 0:0:1, which a check of
# central simplicity against the discriminant alone lets through.
@pytest.mark.parametrize("command", ["fiber", "classify"])
@pytest.mark.parametrize("point, planted", [("0:1:1", "CENTRAL_SIMPLE"),
                                            ("1:1:1", "DEGENERATE_CLIFFORD"),
                                            ("0:0:1", "DEGENERATE_CLIFFORD")])
def test_planted_wrong_classifier_exits_3(tmp_path, capsys, monkeypatch,
                                          point, planted, command):
    monkeypatch.setattr(clifford, "_int_type",
                        lambda t, p: clifford.AlgebraType[planted])
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, [command, path, "--point", point])
    assert code == 3
    assert report["status"] == "internal-error"
    assert report["payload"]["error"] == "InternalInvariantError"
    assert "disagree" in report["payload"]["message"]
    q = cli.form_from_document(DIAG_DOC)
    with pytest.raises(InternalInvariantError, match="disagree"):
        clifford.azumaya_at(q, cli.parse_point(point, q.domain))


@pytest.mark.parametrize("command", ["fiber", "classify"])
@pytest.mark.parametrize("bug", [TypeError, KeyError], ids=lambda exc: exc.__name__)
def test_a_stray_builtin_error_exits_3(tmp_path, capsys, monkeypatch, command, bug):
    """A builtin exception raised inside the library is a bug, not bad input."""
    def planted(q, p):
        raise bug("planted")

    monkeypatch.setattr(clifford, "fiber_at", planted)
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, [command, path, "--point", "1:1:1"])
    assert code == 3
    assert report["status"] == "internal-error"
    assert report["payload"]["error"] == bug.__name__


def _catalog_document(capsys, tag, field):
    assert cli.main(["catalog", "--type", tag, "--seed", "7", *field]) == 0
    return json.loads(capsys.readouterr().out)["payload"]


def _classify_and_fiber_agree(capsys, path, point):
    code, classified, _ = run_cli(capsys, ["classify", path, f"--point={point}"])
    assert code == 0
    code, fiber, _ = run_cli(capsys, ["fiber", path, f"--point={point}"])
    assert code == 0
    keys = ("point", "algebra_type", "algebra_type_name")
    assert ({k: classified["payload"][k] for k in keys}
            == {k: fiber["payload"][k] for k in keys})
    return fiber["payload"]["algebra_type"]


@pytest.mark.parametrize("tag", ["F23", "F24", "F25minus"])
def test_classify_and_fiber_agree_at_every_point_of_f7(tmp_path, capsys, tag):
    path = write_doc(tmp_path, _catalog_document(capsys, tag, ["--prime", "7"]))
    points = ([f"{x}:{y}:1" for x in range(7) for y in range(7)]
              + [f"{x}:1:0" for x in range(7)] + ["1:0:0"])
    types = {_classify_and_fiber_agree(capsys, path, point) for point in points}
    assert {1, 2} <= types


@pytest.mark.parametrize("tag", ["F23", "F24", "F25minus"])
def test_classify_and_fiber_agree_at_fractional_rational_points(tmp_path, capsys, tag):
    path = write_doc(tmp_path, _catalog_document(capsys, tag, ["--rational"]))
    rng = random.Random(tag)
    points = 0
    while points < 30:
        nums = [rng.randint(-9, 9) for _ in range(3)]
        if any(nums):
            point = ":".join(f"{n}/{rng.randint(2, 12)}" for n in nums)
            _classify_and_fiber_agree(capsys, path, point)
            points += 1


@pytest.mark.parametrize("command", [["fiber", "--point", "1:1:1"], ["disc"]],
                         ids=lambda argv: argv[0])
def test_form_commands_refuse_a_net_document(tmp_path, capsys, command):
    assert cli.main(["catalog", "--type", "F25plus"]) == 0
    net = json.loads(capsys.readouterr().out)["payload"]
    path = write_doc(tmp_path, net)
    code, report, _ = run_cli(capsys, [command[0], path, *command[1:]])
    assert code == 1
    assert report["payload"] == {
        "error": "ValueError",
        "message": "this command needs a 'form' document, got a 'net' document"}


# ------------------------------------------------------------------ fuzzing

def _f5_document():
    q = catalog.make_type("F23", domain=PrimeField(5), seed=7)
    return {"scalar_domain": {"prime": 5},
            "form": {"a": list(q.a), "d": q.d,
                     "entries": cli.upper_entries(q.matrix)}}


F5_DOC = _f5_document()
# float("inf") is what json.load makes of 1e999.
FUZZ_VALUES = [None, True, 1.5, float("inf"), -1, "", "u", [], {}]


def _paths(node, prefix=()):
    """Every (path, parent) pair below node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,), node
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(F5_DOC)
    kind = draw(st.sampled_from(["replace", "drop", "wrap"]))
    if kind == "wrap":
        return [doc]
    paths = [p for p, parent in _paths(doc)
             if kind == "replace" or isinstance(parent, dict)]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_mutated_documents_exit_cleanly(tmp_path_factory, doc):
    path = write_doc(tmp_path_factory.mktemp("fuzz"), doc)
    for argv in (["validate", path], ["disc", path],
                 ["fiber", path, "--point", "1:2:1"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        report = json.loads(out.getvalue())
        assert set(report) == {"command", "status", "payload"}
