import importlib
import json
import re
import time
from pathlib import Path

import pytest

from vrg import errors, load_spec, report_from_dict, report_to_dict, verify_report
from vrg.cli import build_parser, main
from vrg.errors import InputError, NotFiniteError, VrgError

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


def test_unramified_extension_end_to_end(tmp_path, capsys):
    # r = 1 and J = 1: no ramified prime, and every product is 1
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 2}],
        "generators": ["X", "X^2 + Y"],
    }
    path = write_spec(tmp_path, payload)
    report_path = tmp_path / "report.json"
    assert main(["analyze", path, "--fiber", "3", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    for line in (
        "degree r = 1",
        "jacobian J = 1",
        "ramified primes: none (the map is unramified)",
        "well-ramified: yes",
        "discriminant D = 1",
        "  D~  = 1",
        "  D/J = 1",
        "fiber audit: seed 0 | generic 3/3 at r",
    ):
        assert line in out.splitlines(), line
    spec, _ = load_spec(path)
    report = report_from_dict(json.loads(report_path.read_text()), spec)
    assert report.ramification == ()
    assert verify_report(report, spec).ok
    assert main(["fiber", path, "--u", "1,2"]) == 0
    assert "count = 1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "generators",
    [
        ["X*Y + " + "1" * 5000 + "*X^2", "Y^2"],  # more digits than int() reads
        ["X*Y + " + "1" * 3000 + "*X^2", "Y^2"],  # R's square has more than str() prints
        ["(" + "1" * 3000 + "*X)^2", "Y^2"],  # a discarded unit of 6001 digits
    ],
)
def test_long_integer_literals(tmp_path, capsys, generators):
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": generators,
    }
    spec_path = write_spec(tmp_path, payload)
    report_path = tmp_path / "report.json"
    assert main(["analyze", spec_path, "--json", str(report_path)]) == 0
    assert main(["jacobian", spec_path]) == 0
    capsys.readouterr()
    spec, _ = load_spec(spec_path)
    data = json.loads(report_path.read_text())
    report = report_from_dict(data, spec)
    assert verify_report(report, spec).ok
    assert report_to_dict(report, spec) == data


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


@pytest.mark.parametrize("spec, u", [("sym2.json", "0,-1"), ("powers.json", "1/2,3")])
def test_fiber_command_builds_one_fiber_algebra(capsys, monkeypatch, spec, u):
    # the count and the listing read the same fiber algebra
    import vrg.fiber as fiber_mod

    calls = []
    real = fiber_mod._algebra
    monkeypatch.setattr(fiber_mod, "_algebra", lambda *args: calls.append(args) or real(*args))
    rc = main(["fiber", str(SPEC_DIR / spec), "--u", u])
    assert rc == 0
    assert "residual = " in capsys.readouterr().out
    assert len(calls) == 1


def test_fiber_command_validates_the_spec_once(capsys, monkeypatch):
    # analyze and the fiber tables both call validate on the one spec, and
    # its finiteness test, the lex basis, is built once: the tables read
    # their origin basis off the same basis
    import sys

    import vrg.extension

    calls, bases = [], []
    real, real_groebner = vrg.extension.validate, vrg.extension.groebner

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for module in [m for name, m in sys.modules.items() if name.startswith("vrg.")]:
        if getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counted)
    monkeypatch.setattr(
        vrg.extension, "groebner", lambda *args: bases.append(args) or real_groebner(*args)
    )
    assert main(["fiber", str(SPEC_DIR / "powers.json"), "--u", "1/2,3"]) == 0
    capsys.readouterr()
    assert len(calls) == 2 and calls[0] is calls[1]
    assert len(bases) == 1


def _break_tables(monkeypatch, case):
    """Make the fiber tables see one of the three failures of freeness."""
    import vrg.fiber as fiber_mod

    real_monomials, real_piece = fiber_mod._standard_monomials, fiber_mod._graded_piece
    if case == "rank":  # the origin basis misses a monomial
        monkeypatch.setattr(fiber_mod, "_standard_monomials", lambda *a: real_monomials(*a)[:-1])
    elif case == "kernel":  # a graded elimination finds a relation
        monkeypatch.setattr(fiber_mod, "_graded_piece", lambda *a: (real_piece(*a)[0], [{}]))
    else:  # a border monomial keeps a remainder
        monkeypatch.setattr(fiber_mod, "_graded_piece", lambda *a: ({}, []))


@pytest.mark.parametrize("case", ["rank", "kernel", "border"])
def test_fiber_tables_that_are_not_free_exit_4(case, capsys, monkeypatch):
    _break_tables(monkeypatch, case)
    assert main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "0,-1"]) == 4
    assert "not free" in capsys.readouterr().err
    spec = str(SPEC_DIR / "sym2.json")
    assert main(["analyze", spec, "--fiber", "2"]) == 4
    assert "not free" in capsys.readouterr().err


def test_fiber_listing_with_a_wrong_count_exits_4(capsys, monkeypatch):
    from test_fiber import _miscount_listings

    tried = _miscount_listings(monkeypatch, 1)
    assert main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "0,-1"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: fiber listing: ")
    assert len(captured.err.splitlines()) == 1
    assert len(tried) == 4  # N = 3 points claimed in n = 2 variables: 3 + 1 values of c


def test_fiber_command_at_cusp_origin(capsys):
    # the only preimage of u = 0 is the origin, a root of multiplicity 12
    rc = main(["fiber", str(SPEC_DIR / "cusp.json"), "--u", "0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count = 1" in out
    assert "classification = branch" in out


def test_fiber_command_reads_complex_decimals_exactly(capsys):
    # (0.2+0.4i, -0.03+0.04i) lies on y1^2 - 4*y2; read through complex(),
    # its binary approximation does not
    rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "0.2+0.4i,-0.03+0.04i"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count = 1\nclassification = branch\n  on Z(y1^2 - 4*y2)\n" in out


def test_fiber_command_lists_the_dihedral5_origin(tmp_path, capsys):
    # the only preimage of the origin is the origin, a 10-fold root; its
    # coordinates are rational, so the listing is exact
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": ["X^5+Y^5", "X*Y"],
    }
    rc = main(["fiber", write_spec(tmp_path, payload), "--u", "0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith(
        "count = 1\nclassification = branch\n  on Z(y1^2 - 4*y2^5)\n"
        "residual = 0.000e+00\n  (+0.000000+0.000000i, +0.000000+0.000000i)\n"
    )


def test_fiber_command_prints_points_in_decreasing_order(capsys):
    # X = +-sqrt(1/2) and Y a cube root of 3; the real points' imaginary
    # parts come from root finding and are never printed as -0.000000
    rc = main(["fiber", str(SPEC_DIR / "powers.json"), "--u", "1/2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith(
        "  (+0.707107+0.000000i, +1.442250+0.000000i)\n"
        "  (+0.707107+0.000000i, -0.721125+1.249025i)\n"
        "  (+0.707107+0.000000i, -0.721125-1.249025i)\n"
        "  (-0.707107+0.000000i, +1.442250+0.000000i)\n"
        "  (-0.707107+0.000000i, -0.721125+1.249025i)\n"
        "  (-0.707107+0.000000i, -0.721125-1.249025i)\n"
    )


def test_fiber_command_leaves_out_points_beyond_floats(capsys):
    # the fiber over (10^5000, 0) is (10^5000, 0) and (0, 10^5000), exactly,
    # but no float holds 10^5000: the count is printed and the points are not
    rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "1e5000,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "degree r = 2\ncount = 2\nclassification = generic\n"


def test_fiber_command_refuses_huge_decimal_exponents_at_once(capsys):
    # 10^1000000 has 3.3 million bits: each is refused before it is built
    for u, part in (
        ("1e1000000,1", "1e1000000"),
        ("1e-1000000,1", "1e-1000000"),
        ("1,2+1e100000i", "2+1e100000i"),
    ):
        start = time.perf_counter()
        rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", u])
        assert time.perf_counter() - start < 1.0, u
        assert rc == 2, u
        assert capsys.readouterr().err == f"error: component {part!r} has over 65536 bits\n"


def test_fiber_command_refuses_a_long_component_at_once(capsys):
    # a 20000-digit component is read in one pass, then refused for its length
    part = "1" * 20000
    start = time.perf_counter()
    rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", f"{part},1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot read component {part!r}\n"


def test_fiber_audit_seed_with_failed_root_finding_exits_0(capsys):
    rc = main(
        ["analyze", str(SPEC_DIR / "sym3.json"), "--fiber", "5", "--seed", "698354534"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fiber audit: seed 698354534 | generic 5/5 at r" in out
    assert ": 5/5 below r" in out


def test_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_json_is_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for content, reason in [
        (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2"
                       " (char 1)"),
        (b"\xff\xfe\x00", "'utf-8' codec can't decode byte 0xff in position 0:"
                          " invalid start byte"),
        (b"[" * 100000, "maximum recursion depth exceeded while decoding a JSON array"
                        " from a unicode string"),
    ]:
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: spec file is not valid JSON: {reason}\n"


def test_schema_errors_are_invalid_spec(tmp_path, capsys):
    x = {"name": "X", "weight": 1}
    cases = [
        ({}, '"variables" must be a non-empty array'),
        ({"variables": [], "generators": []}, '"variables" must be a non-empty array'),
        ({"variables": [{"name": "X", "weight": 0}], "generators": ["X"]},
         "weight of 'X' must be a positive integer"),
        ({"variables": [{"name": "X", "weight": True}], "generators": ["X"]},
         "weight of 'X' must be a positive integer"),
        ({"variables": [{"name": ["X"], "weight": 1}], "generators": ["X"]},
         "variable names must be strings"),
        ({"variables": [{"name": "X"}], "generators": ["X"]},
         'each variable needs "name" and "weight"'),
        ({"variables": [x, x], "generators": ["X", "X"]}, "variable names must be distinct"),
        ({"variables": [x], "generators": []},
         '"generators" must list exactly one expression per variable'),
        ({"variables": [x], "generators": ["X + "]},
         "unexpected end of expression (at position 4)"),
        ({"variables": [x], "generators": ["2X"]},
         "implicit multiplication is not allowed; write '*' (at position 1)"),
        ({"variables": [x], "generators": ["(" * 3000 + "X" + ")" * 3000]},
         "nesting deeper than 100 levels (at position 100)"),
        ({"variables": [x], "generators": ["-" * 3000 + "X"]},
         "nesting deeper than 100 levels (at position 100)"),
        ([x], "spec file must contain a JSON object"),
        ({"variables": [x], "generators": [1]}, "generator 1 must be an expression string"),
        ({"variables": [x], "generators": ["X"], "labels": ["X"]},
         '"labels" must be an object when present'),
        ({"variables": [x, {"name": "Y", "weight": 1}], "generators": ["X", "2"]},
         "generator 2 is constant"),
    ]
    for payload, message in cases:
        rc = main(["analyze", write_spec(tmp_path, payload)])
        assert rc == 2, payload
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "cls", [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, VrgError)]
)
def test_every_error_class_exits_with_its_documented_code(cls, capsys, monkeypatch):
    def fail(spec):
        raise cls("boom", 0) if issubclass(cls, errors.ParseError) else cls("boom")

    monkeypatch.setattr("vrg.cli.analyze", fail)
    rc = main(["analyze", str(SPEC_DIR / "cusp.json")])
    out, err = capsys.readouterr()
    documented = 2 if issubclass(cls, InputError) else 3 if issubclass(cls, NotFiniteError) else 4
    assert rc == documented
    assert out == "" and err.startswith("error: boom") and err.count("\n") == 1


def test_epilog_lists_every_exit_code():
    epilog = build_parser().epilog
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, VrgError)]
    assert set(map(int, re.findall(r"\d+", epilog))) == {0, 1, 10} | {c.exit_code for c in classes}


def test_characterizations_that_disagree_exit_4(capsys, monkeypatch):
    analyzer_mod = importlib.import_module("vrg.analyzer")
    monkeypatch.setattr(analyzer_mod, "subalgebra_membership", lambda *args: None)
    assert main(["analyze", str(SPEC_DIR / "sym2.json")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: characterization mismatch: ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize(
    "generator",
    ["X^" + "9" * 5000, "(X+Y)^100000000000000000000"],
    ids=["5000-digit-exponent", "binomial-power"],
)
def test_power_above_degree_cap_exits_4_at_once(tmp_path, capsys, generator):
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": [generator, "Y^2"],
    }
    start = time.perf_counter()
    rc = main(["analyze", write_spec(tmp_path, payload)])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap 200" in err


def test_power_of_a_constant_exits_4_at_once(tmp_path, capsys):
    payload = {
        "variables": [{"name": "X", "weight": 1}, {"name": "Y", "weight": 1}],
        "generators": ["2^100000000000*X", "Y"],
    }
    start = time.perf_counter()
    rc = main(["analyze", write_spec(tmp_path, payload)])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


GOLDEN_FIBER = json.loads((DATA_DIR / "golden_fiber.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("cid", sorted(GOLDEN_FIBER))
def test_fiber_output_matches_golden_file(cid, monkeypatch, capsys):
    """``vrg fiber`` on each spec in specs/ at the points ``1,1,...``,
    ``-1,-2,...``, the origin and ``1+2i,1/3,...``: exit code and stdout, byte
    for byte.  The residuals are those of mpmath 1.3.0's polyroots; another
    mpmath may print other digits there.  Each entry is ``main(argv)`` run
    from the repository root."""
    golden = GOLDEN_FIBER[cid]
    monkeypatch.chdir(SPEC_DIR.parent)
    assert main(golden["argv"]) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


def test_non_finite_base_point_is_invalid(capsys):
    for u in ("nan,2", "inf,2", "1/0,1", "1,2,3"):
        rc = main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", u])
        assert rc == 2, u
        assert "error" in capsys.readouterr().err
    main(["fiber", str(SPEC_DIR / "sym2.json"), "--u", "1,2,3"])
    assert "--u needs 2 comma-separated components" in capsys.readouterr().err


@pytest.mark.parametrize("spec, u", [("sym2", "-1,2"), ("sym3", "-1,-1,-1")])
def test_base_point_may_begin_with_a_minus_sign(capsys, spec, u):
    path = str(SPEC_DIR / f"{spec}.json")
    assert main(["fiber", path, f"--u={u}"]) == 0
    attached = capsys.readouterr()
    assert main(["fiber", path, "--u", u]) == 0
    assert capsys.readouterr() == attached
    assert attached.out.startswith("degree r = ")


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
