import json
from pathlib import Path

import pytest

from vrg import load_spec, report_from_dict, verify_report
from vrg.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def write_spec(tmp_path, payload) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_analyze_cusp_text(capsys):
    rc = main(["analyze", str(SPEC_DIR / "cusp.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "well-ramified: yes" in out
    assert "degree r = 12" in out
    assert "D~  = y1^2*y2 - 4*y2^2" in out
    assert "discarded unit: 6" in out


def test_analyze_mixed_text(capsys):
    rc = main(["analyze", str(SPEC_DIR / "mixed.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "well-ramified: no" in out
    assert "witness prime P~ = y1" in out
    assert "pullback factor Y: unramified" in out


def test_analyze_writes_verifiable_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["analyze", str(SPEC_DIR / "cusp.json"), "--json", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    spec, _ = load_spec(SPEC_DIR / "cusp.json")
    data = json.loads(report_path.read_text())
    report = report_from_dict(data, spec)
    assert verify_report(report, spec).ok


def test_jacobian_command(capsys):
    rc = main(["jacobian", str(SPEC_DIR / "cusp.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "discarded unit = 6" in out
    assert "(X^2 - Y^3)" in out
    assert "expanded = X^3*Y^2 - X*Y^5" in out


def test_wellramified_exit_codes(capsys):
    assert main(["wellramified", str(SPEC_DIR / "sym2.json")]) == 0
    assert "yes" in capsys.readouterr().out
    assert main(["wellramified", str(SPEC_DIR / "mixed.json")]) == 10
    assert "no" in capsys.readouterr().out


def test_fiber_command(capsys):
    rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "0,-1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count = 2" in out


def test_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_json_is_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()


def test_schema_errors_are_invalid_spec(tmp_path, capsys):
    cases = [
        {},
        {"variables": [], "generators": []},
        {"variables": [{"name": "X", "weight": 0}], "generators": ["X"]},
        {"variables": [{"name": "X", "weight": 1}], "generators": []},
        {"variables": [{"name": "X", "weight": 1}], "generators": ["X + "]},
        {"variables": [{"name": "X", "weight": 1}], "generators": ["2X"]},
    ]
    for payload in cases:
        rc = main(["analyze", write_spec(tmp_path, payload)])
        assert rc == 2, payload
        capsys.readouterr()


def test_inhomogeneous_is_invalid_spec(tmp_path, capsys):
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": ["X^2+Y", "Y^2"],
    }
    assert main(["analyze", write_spec(tmp_path, payload)]) == 2
    capsys.readouterr()


def test_nonfinite_exit_code(tmp_path, capsys):
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": ["X", "X*Y"],
    }
    assert main(["analyze", write_spec(tmp_path, payload)]) == 3
    capsys.readouterr()


def test_degree_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VRG_MAX_DEGREE", "3")
    rc = main(["analyze", str(SPEC_DIR / "cusp.json")])
    assert rc == 4
    assert "error" in capsys.readouterr().err


def test_failed_factor_remultiplication_exits_4(capsys, monkeypatch):
    from vrg import Factorization, factor, parse
    from vrg.errors import TheoremViolationError

    real_expand = Factorization.expand
    monkeypatch.setattr(Factorization, "expand", lambda self, n: real_expand(self, n) + 1)
    spec, _ = load_spec(SPEC_DIR / "cusp.json")
    with pytest.raises(TheoremViolationError):
        factor(parse("X^2-Y^3", spec.vars), spec.vars)
    assert main(["analyze", str(SPEC_DIR / "cusp.json")]) == 4
    assert "re-multiplication" in capsys.readouterr().err


def test_golden_report_verifies_with_audit():
    spec, _ = load_spec(SPEC_DIR / "sym2.json")
    data = json.loads((DATA_DIR / "golden_sym2.json").read_text())
    report = report_from_dict(data, spec)
    assert report.fiber_audit is not None
    assert verify_report(report, spec).ok


def test_report_bytes_are_stable(tmp_path, capsys):
    args = ["analyze", str(SPEC_DIR / "sym2.json"), "--fiber", "6", "--seed", "3"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--json", str(first)]) == 0
    assert main(args + ["--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_report_matches_golden_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze",
            str(SPEC_DIR / "sym2.json"),
            "--fiber",
            "6",
            "--seed",
            "3",
            "--json",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert out.read_bytes() == (DATA_DIR / "golden_sym2.json").read_bytes()


def test_non_finite_base_point_is_invalid(capsys):
    for u in ("nan,2", "inf,2", "1/0,1"):
        rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", u])
        assert rc == 2, u
        assert "error" in capsys.readouterr().err


def test_bad_option_values_are_invalid(capsys):
    spec = str(SPEC_DIR / "sym2.json")
    cases = [
        ["analyze", spec, "--fiber", "-3"],
        ["analyze", spec, "--tol", "-1"],
        ["analyze", spec, "--tol", "0"],
        ["analyze", spec, "--tol", "nan"],
        ["fiber", spec, "--u", "1,2", "--tol", "inf"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "error" in capsys.readouterr().err


def test_bad_degree_cap_setting_is_invalid(capsys, monkeypatch):
    monkeypatch.setenv("VRG_MAX_DEGREE", "abc")
    rc = main(["analyze", str(SPEC_DIR / "sym2.json")])
    assert rc == 2
    assert "VRG_MAX_DEGREE" in capsys.readouterr().err
