"""End-to-end CLI behaviour: payloads, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from cliffbundle import cli, qform
from cliffbundle.poly import EXP_LIMIT
from cliffbundle.scalars import PRIME_LIMIT

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


def test_scan_reduces_rational_doc(tmp_path, capsys):
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "5"])
    assert code == 0
    census = report["payload"]["census"]
    assert census == {"SmoothConic": 16, "LinePair": 12,
                      "DoubleLine": 3, "WholePlane": 0}
    assert report["payload"]["points"] == 31
    assert report["payload"]["discriminant_zero_points"] == 15


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

    monkeypatch.setattr(qform, "plane_values", no_scan)
    monkeypatch.setattr(cli, "reduce_mod", no_scan)
    path = write_doc(tmp_path, DIAG_DOC)
    code, report, _ = run_cli(capsys, ["scan", path, "--prime", "1000003"])
    assert code == 1
    assert report["payload"]["error"] == "ScanTooLargeError"
    assert str(qform.SCAN_POINT_LIMIT) in report["payload"]["message"]


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
