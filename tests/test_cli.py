import copy
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import origami_quintic
from conftest import reference_cli_parser
from origami_quintic import FoldConfig, FoldSolution, IncidenceResiduals, Line, cli
from origami_quintic.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_coeffs,
)

HENDECAGON_ARGS = ["--coeffs", "1,1,-4,-3,3,1"]

# roots at two scales, near -4.6e3 and of size 1e-8: even in its frame the
# configuration reproduces the quintic within 8.830e-08 only
MISMATCH_COEFFS = "1,0,0,1e11,0,1e-5"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseCoeffs:
    def test_integers_decimals_fractions(self):
        got = parse_coeffs("1,-22/5,0.5,3,-1,2")
        assert got == [1.0, -4.4, 0.5, 3.0, -1.0, 2.0]

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="^--coeffs needs 6 comma-separated values, got 3$"):
            parse_coeffs("1,2,3")

    def test_garbage(self):
        with pytest.raises(ValueError, match="^cannot parse coefficient 'banana'$"):
            parse_coeffs("1,2,3,4,5,banana")


class TestSolve:
    def test_hendecagon(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, report = run_json(capsys, ["solve", *HENDECAGON_ARGS, "--svg", str(svg)])
        assert code == EXIT_OK
        assert len(report["solutions"]) == 5
        assert report["config"]["k"] == pytest.approx(-1.5, abs=1e-12)
        assert report["warnings"] == []
        assert svg.exists()
        assert "timing_ms" not in report

    @pytest.mark.parametrize("coeffs, exponent", [("1,1,-4,-3,3,1", 0),
                                                  ("1,0,-110,-55,2310,979", 4)])
    def test_report_writes_each_records_own_fields(self, capsys, coeffs, exponent):
        # a field added to FoldConfig or FoldSolution is written with no change here;
        # exponent is left out in the quintic's own frame
        code, out = run_json(capsys, ["solve", "--coeffs", coeffs])
        assert code == EXIT_OK
        config_fields = set(FoldConfig._fields) - ({"exponent"} if exponent == 0 else set())
        assert set(out["config"]) == config_fields
        assert out["config"].get("exponent", 0) == exponent
        assert out["solutions"]
        for sol in out["solutions"]:
            assert set(sol) == set(FoldSolution._fields)
            assert set(sol["xi"]) == set(sol["chi"]) == set(Line._fields)
            assert set(sol["residuals"]) == set(IncidenceResiduals._fields)

    def test_solutions_sorted_and_verified(self, capsys):
        code, report = run_json(capsys, ["solve", *HENDECAGON_ARGS])
        ts = [s["t"] for s in report["solutions"]]
        assert ts == sorted(ts)
        for sol in report["solutions"]:
            assert max(sol["residuals"].values()) <= 1e-9

    def test_zero_constant_term_path(self, capsys):
        code, report = run_json(capsys, ["solve", "--coeffs", "1,1,-4,-3,3,0"])
        assert code == EXIT_OK
        assert report["config"] is None
        assert report["solutions"] == []
        assert any("t = 0" in w for w in report["warnings"])

    def test_not_a_quintic(self, capsys):
        assert main(["solve", "--coeffs", "0,1,0,0,0,0"]) == EXIT_USAGE
        assert "not a quintic" in capsys.readouterr().err

    def test_wrong_arity(self):
        assert main(["solve", "--coeffs", "1,2,3"]) == EXIT_USAGE

    def test_deterministic_stdout(self, capsys):
        main(["solve", *HENDECAGON_ARGS])
        first = capsys.readouterr().out
        main(["solve", *HENDECAGON_ARGS])
        second = capsys.readouterr().out
        assert first == second

    def test_timing_flag_adds_field(self, capsys):
        code, report = run_json(capsys, ["solve", *HENDECAGON_ARGS, "--timing"])
        assert code == EXIT_OK
        assert report["timing_ms"] > 0.0

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_root_tol_is_unrecognized(self, capsys, command):
        # roots are refined at one fixed width, so verify rebuilds what solve wrote
        assert main([command, *HENDECAGON_ARGS, "--root-tol", "1e-4"]) == EXIT_USAGE
        assert "unrecognized arguments: --root-tol" in capsys.readouterr().err

    def test_environment_sets_no_tol(self, capsys, monkeypatch, tmp_path):
        # the tolerance is --tol or its default, whatever the environment holds
        monkeypatch.setenv("ORIGAMI_QUINTIC_TOL", "1e-30")
        path = str(tmp_path / "report.json")
        assert main(["solve", *HENDECAGON_ARGS, "--json", path]) == EXIT_OK
        assert main(["verify", "--json", path]) == EXIT_OK

    def test_readme_quintic(self, capsys):
        # the documented input whose worst residual (about 4.4e-10) is nearest tol
        code, report = run_json(capsys, ["solve", "--coeffs", "1,0,-110,-55,2310,979"])
        assert code == EXIT_OK
        assert report["solutions"]
        for sol in report["solutions"]:
            assert max(sol["residuals"].values()) <= 1e-9

    def test_warning_names_the_residual(self, capsys):
        code, report = run_json(capsys, ["solve", *HENDECAGON_ARGS, "--tol", "1e-300"])
        assert code == EXIT_VERIFY
        assert len(report["warnings"]) == len(report["solutions"]) == 5
        for sol, warning in zip(report["solutions"], report["warnings"]):
            name, worst = max(sol["residuals"].items(), key=lambda item: item[1])
            assert warning == (
                f"residual {worst:.3e} ({name}) above tol 1.000e-300 at t = {sol['t']!r}"
            )

    def test_chi_equals_n_diagnostic_round_trip(self, capsys, tmp_path):
        # (t - 2)^2 (t + 1)^3: at t = 2 the fold chi is line n itself, which the
        # report flags and still writes, and verify rebuilds it, flag included
        path = tmp_path / "report.json"
        assert main(["solve", "--coeffs", "1,-1,-5,1,8,4", "--json", str(path)]) == EXIT_OK
        report = json.loads(path.read_text())
        assert report["warnings"] == ["diagnostic chi_equals_n at t = 2.0"]
        assert [(s["t"], s["multiplicity"]) for s in report["solutions"]] == [(-1.0, 3), (2.0, 2)]
        assert main(["verify", "--json", str(path)]) == EXIT_OK

    def test_fraction_input(self, capsys):
        code, report = run_json(
            capsys, ["solve", "--coeffs", "2/2,1,-4,-3,3,1"]
        )
        assert code == EXIT_OK
        assert len(report["solutions"]) == 5


    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "--coeffs", "1,1,-4,-3,3,1e400"], "1e400"),
            (["solve", *HENDECAGON_ARGS, "--h", "1e300"], "1e+300"),
            (["solve", *HENDECAGON_ARGS, "--h", "nan"], "nan"),
            (["solve", *HENDECAGON_ARGS, "--h", "0"], "0.0"),
            (["config", *HENDECAGON_ARGS, "--h", "1e-300"], "1e-300"),
            (["solve", *HENDECAGON_ARGS, "--tol", "nan"], "nan"),
            (["solve", *HENDECAGON_ARGS, "--tol", "-1"], "-1.0"),
            # a zero constant: the h is checked before the constant term
            (["solve", "--coeffs", "1,1,-4,-3,3,0", "--h", "1e300"], "1e+300"),
            (["config", "--coeffs", "1,1,-4,-3,3,0", "--h", "1e300"], "1e+300"),
            (["compare", "--coeffs", "1,1,-4,-3,3,0", "--h", "1e300"], "1e+300"),
        ],
        ids=["coeff_1e400", "h_1e300", "h_nan", "h_zero", "h_1e-300", "tol_nan", "tol_negative",
             "zero_constant_solve_h_1e300", "zero_constant_config_h_1e300",
             "zero_constant_compare_h_1e300"],
    )
    def test_numeric_input_fault_is_usage_error(self, capsys, argv, named):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err

    # argparse's, parse_coeffs' and normalize_monic's ValueError print alike
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["solve", *HENDECAGON_ARGS, "--bogus"], "unrecognized arguments: --bogus"),
            (["solve", "--coeffs", "1,2,3"], "--coeffs needs 6 comma-separated values, got 3"),
            (["config", "--coeffs", "1,2,3,4,5,banana"], "cannot parse coefficient 'banana'"),
            (["compare", "--coeffs", "0,1,2,3,4,5"], "leading coefficient is zero; not a quintic"),
        ],
        ids=["argparse", "wrong_count", "garbage", "zero_lead"],
    )
    def test_input_fault_is_one_usage_line(self, capsys, argv, line):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {line}\n")

    @pytest.mark.parametrize("command", ["solve", "config", "compare"])
    @pytest.mark.parametrize(
        "coeffs, named",
        [
            ("1e-300,1e300,1,1,1,1", "monic coefficient 1 is inf"),
            ("1e-320,1,1,1,1,1", "monic coefficient 1 is inf"),
            ("-1e-300,1,1,1,1,1e300", "monic coefficient 5 is -inf"),
        ],
        ids=["a4_over_tiny_lead", "subnormal_lead", "a0_over_negative_lead"],
    )
    def test_overflowing_monic_is_usage_error(self, capsys, command, coeffs, named):
        assert main([command, f"--coeffs={coeffs}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_overflowing_system_fails_quietly(self, capfd):
        # fd-level capture: a linear-algebra library writing to stdout shows here;
        # no frame holds roots near 1e300 and 1e-75 at once
        assert main(["solve", "--coeffs", "1,-1e300,0,0,0,1"]) == EXIT_CONFIG
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("configuration error: ") and err.count("\n") == 1


class TestConfig:
    def test_hendecagon_values(self, capsys):
        code, out = run_json(capsys, ["config", *HENDECAGON_ARGS])
        assert code == EXIT_OK
        cfg = out["config"]
        assert cfg["h"] == 1.0
        assert cfg["D"] == 0.0
        assert (cfg["b"], cfg["c"]) == (0.0, 0.0)
        assert cfg["k"] == pytest.approx(-1.5, abs=1e-12)
        assert cfg["p"] == pytest.approx(-2.5, abs=1e-12)
        assert cfg["q"] == pytest.approx(-3.0, abs=1e-12)
        assert cfg["branch"] == "plus"

    def test_branch_coincidence_at_zero_discriminant(self, capsys):
        _, plus = run_json(capsys, ["config", *HENDECAGON_ARGS, "--branch", "plus"])
        _, minus = run_json(capsys, ["config", *HENDECAGON_ARGS, "--branch", "minus"])
        for key in "hbckpqD":
            assert plus["config"][key] == minus["config"][key]

    def test_scaled_hendecagon_branch_values(self, capsys):
        import math

        root = math.sqrt(949637.0)
        code, out = run_json(
            capsys,
            ["config", "--coeffs", "1,0,-110,-55,2310,979", "--h", "1", "--branch", "plus"],
        )
        assert code == EXIT_OK
        # the quintic's frame is 2^4: there h is 1/16, and D is 2^-40 times the D at h = 1
        assert out["config"]["exponent"] == 4
        assert out["config"]["D"] == pytest.approx(949637.0 * 2.0**-40, rel=1e-12)
        assert out["config"]["b"] == pytest.approx((979.0 + root) / 4.0, rel=1e-12)
        assert out["config"]["c"] == pytest.approx((979.0 - 3.0 * root) / 4.0, rel=1e-12)

    def test_inadmissible_h_is_config_error(self, capsys):
        assert main(["config", *HENDECAGON_ARGS, "--h", "2"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["1e31", "3.402823669209385e+38"])
    def test_h_beyond_the_range_is_usage_error(self, capsys, h):
        # above 2^102 D's h^10 overflows in the frame: the range is named, not D
        assert main(["config", *HENDECAGON_ARGS, "--h", h]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"usage error: h must be from 2^-128 to 2^102, got {float(h)!r}\n")

    def test_roundtrip_mismatch_is_verification_failure(self, capsys):
        assert main(["config", "--coeffs", MISMATCH_COEFFS]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reproduces the source within 8.830e-08" in captured.err


class TestCompare:
    def test_hendecagon(self, capsys):
        code, out = run_json(capsys, ["compare", *HENDECAGON_ARGS])
        assert code == EXIT_OK
        assert out["schema"] == 8
        assert out["direct"]["max_abs_parameter"] == pytest.approx(3.0, abs=1e-9)
        assert out["depressed"]["max_abs_parameter"] > out["direct"]["max_abs_parameter"]
        # in u = 5t + a4 the hendecagon is the README quintic, exactly, so the
        # route builds the README example's configuration (h = 8, exponent 4)
        assert out["depressed"]["quintic"] == [1.0, 0.0, -110.0, -55.0, 2310.0, 979.0]
        assert "shift" not in out["depressed"]
        _, readme = run_json(capsys, ["config", "--coeffs", "1,0,-110,-55,2310,979"])
        assert out["depressed"]["config"] == readme["config"]
        assert (readme["config"]["h"], readme["config"]["exponent"]) == (8.0, 4)
        assert out["max_root_gap"] <= 1e-6
        assert out["unmatched_roots"] == 0

    def test_already_admissible_reports_unit_scale(self, capsys):
        # already depressed: u = 5t, so the route's quintic is the input's
        # coefficient i times 5^i, exactly
        code, out = run_json(capsys, ["compare", "--coeffs", "1,0,-110,-55,2310,979"])
        assert code == EXIT_OK
        assert out["depressed"]["quintic"] == [c * 5**i for i, c in
                                               enumerate(out["quintic"]["monic"])]
        assert out["unmatched_roots"] == 0

    @pytest.mark.parametrize("coeffs", [
        # (t + 3/4)^2 (t - 13/4) (t^2 + ...), case 259 of the seed-0 unit-batch
        # corpus: a float shift by a4/5 split -3/4 into two real roots
        "1.0,-4.75,12.1875,-8.578125,-43.03125,-20.56640625",
        # (t - 1)^2 (t - 15/4)^3, case 3 of the same corpus: a float shift by
        # a4/5 left one real root near 15/4, where the direct route finds a triple root
        "1.0,-13.25,65.6875,-148.359375,147.65625,-52.734375",
    ], ids=["split_double_root", "lost_triple_root"])
    def test_roots_are_matched_with_multiplicities(self, capsys, coeffs):
        # the quintic in u = 5t + a4 is exact here, and so is every root mapped back
        code, out = run_json(capsys, ["compare", "--coeffs", coeffs])
        assert code == EXIT_OK
        assert len(out["direct"]["roots"]) == 2
        assert out["max_root_gap"] == 0.0
        assert out["unmatched_roots"] == 0

    def test_u_coefficient_beyond_the_float_range_is_named(self, capsys):
        # 4 a4^5 = 9.72e312 is the constant term in u = 5t + a4
        assert main(["compare", "--coeffs", "1,3e62,-1,2,1,-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: depressed-form route: the u^0 coefficient 9.7200e+312 "
            "overflows\n")

    def test_depressed_route_errors_name_the_route(self, capsys):
        # (t + 2)^5 - (t + 2): the direct route builds, but the depressed
        # quintic u^5 - u has a zero constant term, the root t = -2
        assert main(["compare", "--coeffs", "1,10,40,80,79,30"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: depressed-form route: the depressed quintic's constant "
            "term is zero; t = -a4/5 = -2.0 is a root\n"
        )


def brackets_a_root(coeffs: str, t: float, rel: float = 1e-9) -> bool:
    """Whether the exact polynomial changes sign, or vanishes, within rel of t."""
    exact = [Fraction(c) for c in coeffs.split(",")]

    def value(x):
        acc = Fraction(0)
        for c in exact:
            acc = acc * x + c
        return acc

    lo, hi = (Fraction(t) * (1 + Fraction(sign) * Fraction(rel)) for sign in (-1, 1))
    return value(Fraction(t)) == 0 or (value(lo) > 0) != (value(hi) > 0)


class TestFrame:
    """Quintics whose roots lie far from 1 are solved in their 2^e frame."""

    @pytest.mark.parametrize("constant, e", [("1e300", 200), ("1e-300", -199), ("-3e250", 167)])
    def test_extreme_constant_solves_and_verifies(self, capsys, tmp_path, constant, e):
        # t^5 + E has one real root, -E^(1/5)
        coeffs, path = f"1,0,0,0,0,{constant}", str(tmp_path / "report.json")
        assert main(["solve", "--coeffs", coeffs, "--json", path]) == EXIT_OK
        report = json.loads(Path(path).read_text())
        assert report["config"]["exponent"] == e
        (sol,) = report["solutions"]
        assert brackets_a_root(coeffs, sol["t"])
        assert main(["verify", "--json", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("a4", ["-1e300", "-1e70", "-1e100", "-1e200", "1e250", "1e300",
                                    "1e308"])
    def test_roots_at_several_scales_fail_cleanly(self, capsys, command, a4):
        # t^5 + a4 t^4 + 1 has a root near -a4 and four of size |a4|^(-1/4): in
        # the large one's frame, a0 = 1 falls below the float range
        assert main([command, "--coeffs", f"1,{a4},0,0,0,1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"configuration error: coefficient a0 = 1\.0 times 2\^-\d+ is 0\.0, "
                            r"not exact: no frame holds this quintic \(e = \d+\)\n",
                            captured.err)

    def test_p_on_l_is_relative_below_1(self, capsys, tmp_path):
        # case 106 of the random several-scale set (random.Random(5)): at the
        # frame's first h, 2^-23, p and k are near -4e-8 and differ by 1.2e-6 of
        # their size, which an absolute 1e-12 took for P on l, and so on to
        # h = 2^-40, where p and k were -8.5e-45 and the solve failed
        coeffs = ("1.0,-31094.370706256694,28072727453.81077,7781832393.421712,"
                  "-0.025851068285457326,1.1565983517117995")
        path = str(tmp_path / "report.json")
        assert main(["solve", "--coeffs", coeffs, "--json", path]) == EXIT_OK
        report = json.loads(Path(path).read_text())
        assert (report["config"]["exponent"], len(report["solutions"])) == (18, 1)
        assert report["config"]["h"] == 2.0**-23 * 2.0**18
        assert main(["verify", "--json", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_n_far_from_the_origin_fails_on_a_named_residual(self):
        # a random several-scale quintic (random.Random(5)) at h = 2^-14: n is
        # x = c with c = -7.96e27, so far out that one unit along n is below
        # c's ulp; chi is still n reflected across xi, and the solve fails on
        # the residual it names, not in the construction
        coeffs = ("1.0,-2.1400210319165064e-09,1.0984532577457723e-09,-216817809513.02063,"
                  "-1.0640283020183446e-07,-110420676925.15979")
        result = subprocess.run(
            [sys.executable, "-m", "origami_quintic.cli", "solve", "--coeffs", coeffs,
             "--h", "6.103515625e-05"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert result.returncode == EXIT_VERIFY
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout)["warnings"] == [
            "residual 1.342e+08 (p_on_l) above tol 1.000e-09 at t = 6007.562801967912"]

    def test_h_is_the_callers_and_checked_in_the_frame(self, capsys, tmp_path):
        # h = 1 is 2^-200 in the frame of t^5 + 1e300, below 2^-128
        assert main(["solve", "--coeffs", "1,0,0,0,0,1e300", "--h", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: h must be from 2^72 to 2^302, got 1.0\n")
        # the h that solve picks for itself, 1/2 in the frame
        path, h = str(tmp_path / "report.json"), 2.0**199
        assert main(["solve", "--coeffs", "1,0,0,0,0,1e300", "--h", repr(h), "--json", path]) == 0
        assert json.loads(Path(path).read_text())["config"]["h"] == h


class TestVerify:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["solve", *HENDECAGON_ARGS, "--json", str(path)]) == EXIT_OK
        assert main(["verify", "--json", str(path)]) == EXIT_OK

    def test_tampered_root_fails(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        data["solutions"][0]["t"] += 0.01
        path.write_text(json.dumps(data))
        assert main(["verify", "--json", str(path)]) == EXIT_VERIFY

    def test_tampered_config_fails(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        data["config"]["q"] = -2.0
        path.write_text(json.dumps(data))
        assert main(["verify", "--json", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("field", ["q", "k", "b"])
    def test_nan_config_fails(self, capsys, tmp_path, field):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        data["config"][field] = float("nan")
        path.write_text(json.dumps(data))
        assert main(["verify", "--json", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("schema, named", [(None, "schema 1"), (7, "schema 7"),
                                               (9, "schema 9")],
                             ids=["missing", "older", "newer"])
    def test_other_schema_is_unreadable(self, capsys, tmp_path, schema, named):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        assert data.pop("schema") == 8
        if schema is not None:
            data["schema"] = schema
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--json", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"unreadable report: {named}, but verify reads schema 8; re-run solve\n"
        )

    @pytest.mark.parametrize("text", ["[]", "1", '"report"'])
    def test_report_that_is_not_an_object_is_unreadable(self, capsys, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["verify", "--json", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("unreadable report: ")

    def test_truncated_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        path.write_text(path.read_text()[:150])
        assert main(["verify", "--json", str(path)]) == EXIT_DATA

    def test_missing_file(self, capsys, tmp_path):
        assert main(["verify", "--json", str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_zero_constant_report_passes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        main(["solve", "--coeffs", "1,1,-4,-3,3,0", "--json", str(path)])
        assert main(["verify", "--json", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "corrupt, code",
        [
            (lambda monic: [2.0 * c for c in monic], EXIT_VERIFY),
            (lambda monic: monic[:5], EXIT_DATA),
            (lambda monic: [0.0, *monic[1:]], EXIT_VERIFY),
            (lambda monic: "1,1,-4,-3,3,1", EXIT_DATA),
            (lambda monic: [5.0, *monic[1:]], EXIT_VERIFY),
            (lambda monic: [float("nan"), *monic[1:]], EXIT_VERIFY),
        ],
        ids=["doubled", "five_entries", "leading_zero", "string", "leading_five",
             "leading_nan"],
    )
    def test_corrupted_monic(self, capsys, tmp_path, corrupt, code):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        data["quintic"]["monic"] = corrupt(data["quintic"]["monic"])
        path.write_text(json.dumps(data))
        assert main(["verify", "--json", str(path)]) == code

    def test_custom_tol(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        capsys.readouterr()
        assert main(["verify", "--json", str(path), "--tol", "1e-30"]) == EXIT_VERIFY
        assert capsys.readouterr().err == (
            "verification failed: worst residual 3.442e-15 (quintic_value at "
            "t = 1.6825070656623624) > tol 1.000e-30\n")

    @pytest.mark.parametrize(
        "tamper, named",
        [
            (lambda sol: sol.update(t=sol["t"] + 0.01), "failed: solutions.0.t is "),
            (lambda sol: sol["chi"].update(a=sol["chi"]["a"] + 0.01), "failed: solutions.0.chi.a is "),
            (lambda sol: sol["xi"].update(a=sol["xi"]["a"] + 0.01), "failed: solutions.0.xi.a is "),
            (lambda sol: sol.update(t=1e200),
             "failed: solutions.0.t is 1e+200, rebuilt -1.9189859472289947\n"),
        ],
        ids=["root", "chi", "xi", "overflowing_t"],
    )
    def test_failure_names_the_quantity(self, capsys, tmp_path, tamper, named):
        path = tmp_path / "report.json"
        main(["solve", *HENDECAGON_ARGS, "--json", str(path)])
        data = json.loads(path.read_text())
        tamper(data["solutions"][0])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--json", str(path)]) == EXIT_VERIFY
        assert named in capsys.readouterr().err


def _tamper(data, path, value):
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


# each tampered report must fail cleanly: 65 unreadable, 3 verification failure
TAMPERED = [
    (("solutions",), None, EXIT_DATA),
    (("solutions",), 5, EXIT_DATA),
    (("solutions",), "1.68", EXIT_DATA),
    (("solutions", 0, "t"), 1e200, EXIT_VERIFY),
    (("solutions", 0, "t"), float("inf"), EXIT_VERIFY),
    (("solutions", 0, "t"), float("nan"), EXIT_VERIFY),
    (("solutions", 0, "xi", "a"), "x", EXIT_DATA),
    (("solutions", 0, "chi"), [1.0, 0.0, 0.0], EXIT_DATA),
    (("config", "h"), 1e150, EXIT_VERIFY),
]


@pytest.mark.parametrize(
    "path, value, code", TAMPERED,
    ids=["solutions_null", "solutions_number", "solutions_string", "t_1e200", "t_inf",
         "t_nan", "xi_string", "chi_list", "h_overflows"],
)
def test_tampered_report_fails_without_traceback(capsys, tmp_path, path, value, code):
    report = tmp_path / "report.json"
    main(["solve", *HENDECAGON_ARGS, "--json", str(report)])
    data = json.loads(report.read_text())
    _tamper(data, path, value)
    report.write_text(json.dumps(data))
    result = subprocess.run(
        [sys.executable, "-m", "origami_quintic.cli", "verify", "--json", str(report)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == EXIT_DATA:
        assert result.stderr.startswith("unreadable")


README_ARGS = ["--coeffs", "1,0,-110,-55,2310,979"]

# case 186 of the seed-0 unit-batch benchmark corpus: roots at 3.75365 and 3.75434
CLUSTERED_COEFFS = (
    "1.0,-11.888279185796655,38.833294797739924,38.80217502315802,"
    "-410.38120960990494,554.8009178766879"
)

# each replaces one leaf of a stored report
TAMPER_VALUES = (1e9, -1.5, "x", None, True, [], -5.0)


def _solved(tmp_path, args):
    """A report written by solve, as loaded JSON."""
    path = tmp_path / "solved.json"
    assert main(["solve", *args, "--json", str(path)]) == EXIT_OK
    return json.loads(path.read_text())


def _leaf_paths(node, path=()):
    """The path of every number, string, bool and null in a JSON tree."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _leaf_paths(value, (*path, key))]
    return [path]


def _is_tampering(old, new):
    """Another JSON type or value; two floats must differ by more than the
    default tol relative to max(1, |old|), since verify forgives less."""
    if type(old) is not type(new):
        return True
    if isinstance(old, float):
        return not abs(new - old) <= 1e-9 * max(1.0, abs(old))
    return old != new


def _verify(tmp_path, capsys, data):
    """verify's exit code and stderr on this report, which must hold no traceback."""
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--json", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("tol", ["0", "1e-30", "1e-9"])
@pytest.mark.parametrize("coeffs", ["1,1,-4,-3,3,1", "1,0,-110,-55,2310,979", CLUSTERED_COEFFS,
                                    "1,1,-4,-3,3,0"],
                         ids=["hendecagon", "readme", "clustered", "zero_constant"])
def test_solve_and_verify_share_the_residual_verdict(capsys, tmp_path, coeffs, tol):
    # both exit on the worst residual of the same rebuild, so at any --tol they agree
    path = tmp_path / "report.json"
    code = main(["solve", "--coeffs", coeffs, "--tol", tol, "--json", str(path)])
    assert code in (EXIT_OK, EXIT_VERIFY)
    assert main(["verify", "--json", str(path), "--tol", tol]) == code


class TestVerifyRebuildsTheReport:
    """verify reruns solve's report builder and compares every stored field."""

    @pytest.mark.parametrize("args", [HENDECAGON_ARGS, README_ARGS], ids=["hendecagon", "readme"])
    def test_any_one_field_tampered_fails(self, tmp_path, capsys, args):
        stored = _solved(tmp_path, args)

        @settings(max_examples=250, deadline=None)
        @given(path=st.sampled_from(_leaf_paths(stored)), value=st.sampled_from(TAMPER_VALUES))
        def check(path, value):
            data = copy.deepcopy(stored)
            old = data
            for key in path:
                old = old[key]
            assume(_is_tampering(old, value))
            _tamper(data, path, value)
            assert _verify(tmp_path, capsys, data)[0] in (EXIT_VERIFY, EXIT_DATA)

        check()

    @pytest.mark.parametrize("args", [HENDECAGON_ARGS, README_ARGS], ids=["hendecagon", "readme"])
    def test_solutions_dropped_duplicated_or_reordered_fail(self, tmp_path, capsys, args):
        stored = _solved(tmp_path, args)
        count = len(stored["solutions"])

        @settings(max_examples=60, deadline=None)
        @given(edit=st.sampled_from(["drop", "duplicate", "reorder"]),
               index=st.integers(0, count - 1), order=st.permutations(range(count)))
        def check(edit, index, order):
            data = copy.deepcopy(stored)
            sols = data["solutions"]
            if edit == "drop":
                del sols[index]
            elif edit == "duplicate":
                sols.insert(index, copy.deepcopy(sols[index]))
            else:
                assume(order != list(range(count)))
                data["solutions"] = [sols[i] for i in order]
            assert _verify(tmp_path, capsys, data)[0] == EXIT_VERIFY

        check()

    @pytest.mark.parametrize("args", [HENDECAGON_ARGS, README_ARGS], ids=["hendecagon", "readme"])
    def test_changed_raw_fails(self, tmp_path, capsys, args):
        stored = _solved(tmp_path, args)
        monic = stored["quintic"]["monic"]

        @settings(max_examples=60, deadline=None)
        @given(raw=st.lists(st.integers(-9, 9).map(float), min_size=6, max_size=6))
        def check(raw):
            # a multiple of the stored raw has the same monic: another input, same report
            assume(raw[0] != 0.0)
            assume(any(_is_tampering(m, r / raw[0]) for m, r in zip(monic, raw)))
            data = copy.deepcopy(stored)
            data["quintic"]["raw"] = raw
            assert _verify(tmp_path, capsys, data)[0] in (EXIT_VERIFY, EXIT_DATA)

        check()

    def test_one_solution_removed_names_the_count(self, tmp_path, capsys):
        data = _solved(tmp_path, HENDECAGON_ARGS)
        del data["solutions"][0]
        code, err = _verify(tmp_path, capsys, data)
        assert code == EXIT_VERIFY
        assert err.startswith("verification failed: solutions has 4 entries")

    @pytest.mark.parametrize("args", [
        [*HENDECAGON_ARGS, "--timing"],
        ["--coeffs", "2,2,-8,-6,6,2", "--h", "0.5", "--branch", "minus"],
        ["--coeffs", CLUSTERED_COEFFS],
    ], ids=["timing", "h_branch", "clustered"])
    def test_untampered_report_passes(self, tmp_path, capsys, args):
        # timing_ms is not compared; verify rebuilds at the stored h and branch
        assert _verify(tmp_path, capsys, _solved(tmp_path, args)) == (EXIT_OK, "")

    def test_bool_is_not_int(self, tmp_path, capsys):
        data = _solved(tmp_path, HENDECAGON_ARGS)
        data["solutions"][0]["multiplicity"] = True
        assert _verify(tmp_path, capsys, data) == (
            EXIT_DATA, "unreadable report: solutions.0.multiplicity is bool, not int\n")

    def test_rebuild_failure_is_verification_failure(self, tmp_path, capsys):
        # h = 2 makes the hendecagon's discriminant negative: solve would exit 2
        data = _solved(tmp_path, HENDECAGON_ARGS)
        data["config"]["h"] = 2.0
        code, err = _verify(tmp_path, capsys, data)
        assert code == EXIT_VERIFY
        assert err.startswith("verification failed: no rebuild: NegativeDiscriminant: ")

    def test_infinite_raw_coefficient_is_no_rebuild(self, tmp_path, capsys):
        # JSON reads Infinity, which the coefficient parser of solve refuses
        data = _solved(tmp_path, HENDECAGON_ARGS)
        data["quintic"]["raw"][0] = math.inf
        assert _verify(tmp_path, capsys, data) == (
            EXIT_VERIFY, "verification failed: no rebuild: ValueError: coefficient 0 is inf, "
            "not a finite number\n")


def test_deeply_nested_report_is_unreadable(capsys, tmp_path):
    # json gives up on nesting this deep with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"quintic": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["verify", "--json", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("unreadable report: maximum recursion depth")


def test_abbreviated_help_flag_is_usage_error(capsys, tmp_path):
    # --h once expanded to verify's --help and exited 0 without checking anything
    data = _solved(tmp_path, HENDECAGON_ARGS)
    data["solutions"][0]["s"] = 1e9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--json", str(path)]) == EXIT_VERIFY
    assert main(["verify", "--json", str(path), "--h", "2"]) == EXIT_USAGE
    assert main(["--he"]) == EXIT_USAGE
    assert main(["solve", "--co", "1,1,-4,-3,3,1"]) == EXIT_USAGE
    assert "unrecognized arguments: --h 2" in capsys.readouterr().err


# argparse's exit codes, which the flag table keeps: a value that starts with "-"
# needs "=" unless it is a plain negative number, a bad value is refused before a
# later help, help wins over tokens no flag takes, and no flag is abbreviated;
# line is the one usage-error line, where it is pinned
@pytest.mark.parametrize("argv, code, line", [
    (["solve", "--coeffs", "-1,0,0,0,0,1"], EXIT_USAGE, "argument --coeffs: expected one argument"),
    (["solve", "--coeffs=-1,0,0,0,0,1"], EXIT_OK, None),
    (["solve", *HENDECAGON_ARGS, "--h", "-1"], EXIT_USAGE,
     "h must be from 2^-128 to 2^102, got -1.0"),
    (["solve", *HENDECAGON_ARGS, "--timing=1"], EXIT_USAGE, None),
    (["solve", *HENDECAGON_ARGS, "--h", "x", "--help"], EXIT_USAGE, None),
    (["solve", "--bogus", "--help"], EXIT_OK, None),
    (["-h"], EXIT_OK, None),
    (["x", "-h"], EXIT_USAGE, None),
    ([], EXIT_USAGE, None),
    (["solve", *HENDECAGON_ARGS, "--", "x"], EXIT_USAGE, None),
    (["verify", "--json", "P", "--h", "2"], EXIT_USAGE, "unrecognized arguments: --h 2"),
    (["solve", "--he", "1"], EXIT_USAGE, None),
    (["solve", "--co", "1,1,-4,-3,3,1"], EXIT_USAGE, None),
    (["verify", "--js", "report.json"], EXIT_USAGE, None),
    (["solve", *HENDECAGON_ARGS, "--branch", "both", "--help"], EXIT_USAGE, None),
    (["solve", *HENDECAGON_ARGS, "--h", "1e400"], EXIT_USAGE,
     "h must be from 2^-128 to 2^102, got inf"),
    (["config", "--h", "1"], EXIT_USAGE, None),
    (["verify"], EXIT_USAGE, None),
])
def test_argument_list_exit_code(capsys, argv, code, line):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == EXIT_USAGE:  # every ValueError is one line
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        assert line is None or err == f"usage error: {line}\n"
    else:
        assert err == ""
        assert out.startswith("usage:" if {"-h", "--help"} & set(argv) else "{")


def test_help_lists_each_commands_flags(capsys):
    assert main(["-h"]) == EXIT_OK
    every = capsys.readouterr().out
    assert main(["verify", "--help"]) == EXIT_OK
    verify = capsys.readouterr().out
    assert verify == "usage: origami-quintic verify --json JSON [--tol TOL]\n"
    assert every.splitlines()[-1] == verify.strip()
    assert every.splitlines()[0] == (
        "usage: origami-quintic solve --coeffs COEFFS [--h H_OVERRIDE] [--branch BRANCH] "
        "[--json JSON] [--svg SVG] [--timing] [--tol TOL]")


# well-formed flag values: a value that starts with "-" is written with "=" unless
# it is a plain negative number or has a space
FLAG_VALUES = {
    "--coeffs": ["1,1,-4,-3,3,1", "2/2, 1, -4, -3, 3, 1", "-1,0,0,0,0,1", "-1, 0, 0, 0, 0, 1"],
    "--h": ["1", "0.5", "-1", "-.5", "-2.5", "-1e-3", "1e400", "nan", " 2 ", "-inf"],
    "--branch": ["plus", "minus"],
    "--json": ["report.json", "-", "", "dir/out.json"],
    "--svg": ["folds.svg", "-"],
    "--timing": [None],
    "--tol": ["0", "1e-9", "0.5", "3", "-0.0"],
}
COMMAND_FLAGS = {"solve": ("--coeffs", "--h", "--branch", "--json", "--svg", "--timing", "--tol"),
                 "config": ("--coeffs", "--h", "--branch", "--json"),
                 "compare": ("--coeffs", "--h", "--branch", "--json"),
                 "verify": ("--json", "--tol")}
PLAIN_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


@st.composite
def well_formed_argument_lists(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(flags), max_size=8)) + [flags[0]]  # the required one
    argv = []
    for flag in draw(st.permutations(chosen)):
        value = draw(st.sampled_from(FLAG_VALUES[flag]))
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()) or (value.startswith("-") and " " not in value
                                     and not PLAIN_NEGATIVE.match(value)):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return [command, *argv]


def test_handlers_receive_what_argparse_gave(monkeypatch):
    received = []
    for name, (_, table) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (lambda args: received.append(args) or 0, table))
    reference = reference_cli_parser()

    @settings(max_examples=400, deadline=None)
    @given(argv=well_formed_argument_lists())
    def check(argv):
        received.clear()
        assert main(argv) == EXIT_OK
        (args,) = received
        want = vars(reference.parse_args(argv))
        assert repr(sorted(vars(args).items())) == repr(sorted(want.items()))  # nan is nan

    check()


# argument lists for every subcommand, with values the solver must refuse cleanly
COMMAND_TOKENS = ["solve", "config", "compare", "verify"]
FLAG_TOKENS = ["--coeffs", "--h", "--branch", "--json", "--svg", "--timing", "--tol", "--root-tol",
               "-h", "--help", "--he", "--co", "--js", "--ti", "--"]
HOSTILE_VALUES = ["nan", "1e400", "1/0", "5e-324,1,1,1,1,1", "1,-1e300,0,0,0,1", "1,1,-4,-3,3,1",
                  "1,0,-110,-55,2310,979", "plus", "minus", "x", "", "0", "-1", "2", "1e-300",
                  "missing/report.json", "a_directory", "report.json", "out.json"]


@st.composite
def argument_lists(draw):
    argv = [] if draw(st.integers(0, 9)) == 0 else [draw(st.sampled_from(COMMAND_TOKENS))]
    if draw(st.integers(0, 9)) < 7:
        argv += ["--coeffs", draw(st.sampled_from(HOSTILE_VALUES[:7]))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)) < 4:
            argv += [draw(st.sampled_from(FLAG_TOKENS)), draw(st.sampled_from(HOSTILE_VALUES))]
        else:
            argv.append(draw(st.sampled_from(COMMAND_TOKENS + FLAG_TOKENS + HOSTILE_VALUES)))
    return argv


def test_any_argument_list_exits_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths land here
    (tmp_path / "a_directory").mkdir()
    assert main(["solve", *HENDECAGON_ARGS, "--json", "report.json"]) == EXIT_OK

    @settings(max_examples=400, deadline=None)
    @given(argv=argument_lists())
    def check(argv):
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_USAGE, EXIT_DATA)
        assert "Traceback" not in err
        if code == EXIT_OK and out.startswith("usage:"):  # help, only on an exact help flag
            assert {"-h", "--help"} & set(argv)

    check()


def _child_env():
    # the child must import the package this process imported, installed or not
    paths = [str(Path(origami_quintic.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "origami_quintic.cli", "solve", *HENDECAGON_ARGS],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert len(json.loads(result.stdout)["solutions"]) == 5


def test_cli_import_needs_no_numpy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, origami_quintic.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "False\n"


# modules that verify and compare on decimal input never need
LAZY_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "origami_quintic.render",
                "argparse", "gettext", "locale")


@pytest.mark.parametrize("command, loaded", [
    ("verify", []),
    ("compare", []),
    # the probe's positive control: drawing loads render
    ("solve", ["origami_quintic.render"]),
])
def test_command_loads_only_what_it_runs(tmp_path, command, loaded):
    report, out = str(tmp_path / "report.json"), str(tmp_path / "out.json")
    assert main(["solve", *HENDECAGON_ARGS, "--json", report]) == EXIT_OK
    argv = {
        "verify": ["verify", "--json", report],
        "compare": ["compare", "--coeffs", "1,1.0,-4.,-3e0,3,1", "--json", out],
        "solve": ["solve", *HENDECAGON_ARGS, "--json", out, "--svg", str(tmp_path / "s.svg")],
    }[command]
    probe = ("import sys; from origami_quintic.cli import main; code = main(sys.argv[1:]); "
             f"print(code, sorted(set(sys.modules) & set({LAZY_MODULES!r})))")
    result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            text=True, env=_child_env())
    assert result.stdout == f"0 {loaded}\n", result.stderr


# Fraction would build 10**9999999999 for these; a ten-digit exponent must
# still be read at once
@pytest.mark.parametrize("text", ["\u0661e9999999999", "1_0e9999999999"])
def test_long_exponent_is_a_usage_error_at_once(text):
    result = subprocess.run(
        [sys.executable, "-m", "origami_quintic.cli", "solve", "--coeffs", f"1,0,0,0,0,{text}"],
        capture_output=True,
        env=dict(_child_env(), PYTHONIOENCODING="utf-8"),
        timeout=30,
    )
    assert result.returncode == EXIT_USAGE
    assert result.stderr.decode("utf-8") == (
        f"usage error: coefficient {text!r} is outside the float range\n")
