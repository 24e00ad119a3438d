import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from affsemi import cli

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    buffer = io.StringIO()
    errors = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        code = cli.main(list(argv))
    return code, buffer.getvalue(), errors.getvalue()


GOLDEN = {
    "numerical": (["analyze", "4", "6", "7", "--format", "machine"], 0),
    "axes": (["analyze", "8,0", "0,8", "2,2", "12,8", "--format", "machine"], 0),
    "skew": (["analyze", "4,6", "6,3", "8,10", "3,4", "--format", "machine"], 0),
    "unimodular": (["analyze", "1,3", "3,2", "1,1", "--format", "machine"], 0),
    "degenerate_subset": (
        ["analyze", "4", "6", "7", "9", "--allow-subset", "--format", "machine"],
        0,
    ),
    "no_scaled_membership": (["analyze", "8", "10", "11", "--format", "machine"], 3),
}


class TestGoldenDocuments:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_machine_output_matches_fixture(self, name):
        argv, expected_code = GOLDEN[name]
        code, out, _ = run_cli(argv)
        assert code == expected_code
        assert out == (FIXTURES / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", ["numerical", "axes", "skew", "unimodular"])
    def test_reanalysing_the_echo_is_idempotent(self, name, tmp_path):
        original = (FIXTURES / f"{name}.json").read_text()
        document = json.loads(original)
        echo = tmp_path / "input.json"
        echo.write_text(json.dumps(document["input"]))
        code, out, _ = run_cli(
            ["analyze", "--input", str(echo), "--format", "machine"]
        )
        assert code == 0
        assert out == original


class TestAnalyze:
    def test_numerical_human_output(self):
        code, out, _ = run_cli(["analyze", "4", "6", "7"])
        assert code == 0
        assert "frobenius vector: 9" in out
        assert "conductor: 10" in out
        assert "gaps (5): 1 2 3 5 9" in out

    def test_condition_failure_exit_code_and_message(self):
        code, out, _ = run_cli(["analyze", "8", "10", "11"])
        assert code == 3
        assert "level 2" in out
        assert "22" in out
        assert "33" in out
        assert "3*11" in out

    def test_subset_fallback_reports_both_numbers(self):
        code, out, _ = run_cli(["analyze", "4", "6", "7", "9", "--allow-subset"])
        assert code == 0
        assert "threshold vector: 9" in out
        assert "true frobenius number: 5" in out
        assert "need not be minimal" in out

    def test_degenerate_without_subset_flag_fails(self):
        code, out, _ = run_cli(["analyze", "4", "6", "7", "9"])
        assert code == 3

    def test_subset_flag_cannot_rescue_scaled_failure(self):
        # Filtering drops nothing here, so the fallback fails too.
        code, out, _ = run_cli(["analyze", "8", "10", "11", "--allow-subset"])
        assert code == 3
        assert "subset fallback failed" in out

    def test_invalid_generators_exit_two(self):
        code, _, err = run_cli(["analyze", "0,1", "0,2"])
        assert code == 2
        assert "error" in err

    def test_ragged_vectors_exit_two(self):
        code, _, err = run_cli(["analyze", "1,2", "3"])
        assert code == 2

    def test_quasi_without_multiplicity_exit_two(self):
        code, _, err = run_cli(["quasi", "1,1"])
        assert code == 2

    def test_json_input(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            json.dumps({"e": "2", "generators": [["1", "3"], ["3", "2"], ["1", "1"]]})
        )
        code, out, _ = run_cli(["analyze", "--input", str(path)])
        assert code == 0
        assert "frobenius vector: (2,1)" in out
        assert "conductor: (3,2) (3,3)" in out


class TestMember:
    def test_fast_path_non_member(self):
        code, out, _ = run_cli(
            ["member", "8,0", "0,8", "2,2", "12,8", "--point", "10,14"]
        )
        assert code == 0
        assert "NOT a member" in out
        assert "method: fast" in out

    def test_boundary_cell_warning(self):
        # (10,14) sits above the threshold (10,6) only along the vertical
        # face of the cone, so the guarantee does not apply to it.
        code, out, _ = run_cli(
            ["member", "8,0", "0,8", "2,2", "12,8", "--point", "10,14"]
        )
        assert "boundary cell" in out
        code, out, _ = run_cli(
            ["member", "8,0", "0,8", "2,2", "12,8", "--point", "20,16"]
        )
        assert code == 0
        assert "boundary cell" not in out
        assert "point (20,16): member" in out

    def test_standard_representation_shown(self):
        code, out, _ = run_cli(["member", "4", "6", "7", "--point", "9"])
        assert code == 0
        assert "-1*4 + 1*6 + 1*7" in out

    def test_zero_is_member(self):
        code, out, _ = run_cli(["member", "4", "6", "7", "--point", "0"])
        assert code == 0
        assert out.startswith("point 0: member")

    def test_bruteforce_fallback(self):
        code, out, _ = run_cli(["member", "8", "10", "11", "--point", "33"])
        assert code == 0
        assert "method: bruteforce" in out
        assert "witness: 3*11" in out

    def test_machine_document(self):
        code, out, _ = run_cli(
            ["member", "4", "6", "7", "--point", "9", "--format", "machine"]
        )
        document = json.loads(out)
        assert document["in_group"] is True
        assert document["in_semigroup"] is False
        assert document["representation"] == ["-1", "1", "1"]


class TestDioph:
    def test_cone_certificate(self):
        code, out, _ = run_cli(
            ["dioph", "4", "6", "7", "--target", "100", "--format", "machine"]
        )
        document = json.loads(out)
        assert code == 0
        assert document["status"] == "solvable_by_cone"
        coeffs = [int(c) for c in document["witness"]]
        assert sum(c * g for c, g in zip(coeffs, [4, 6, 7])) == 100

    def test_no_solution(self):
        code, out, _ = run_cli(
            ["dioph", "8", "10", "--target", "22", "--format", "machine"]
        )
        assert code == 0
        assert json.loads(out)["status"] == "no_solution"

    def test_gap_is_no_solution(self):
        code, out, _ = run_cli(
            ["dioph", "4", "6", "7", "--target", "9", "--format", "machine"]
        )
        assert json.loads(out)["status"] == "no_solution"


class TestCurveAndQuasi:
    def test_curve_document(self):
        code, out, _ = run_cli(["curve", "4", "6", "7", "--format", "machine"])
        document = json.loads(out)
        assert code == 0
        assert document["generators"] == ["4", "6", "13"]
        assert document["conductor"] == "16"
        assert document["gap_count"] == "8"
        assert document["gaps"] == ["1", "2", "3", "5", "7", "9", "11", "15"]
        assert document["zariski_valid"] is True

    def test_curve_json_input(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"n": 4, "m": [6, 7]}))
        code, out, _ = run_cli(["curve", "--input", str(path)])
        assert code == 0
        assert "generators: 4 6 13" in out

    def test_curve_huge_multiplicity(self):
        # The conductor is past the gap-list limit, so no table of n entries
        # may be built anywhere on this path.
        code, out, _ = run_cli(
            ["curve", "1000000000", "1000000001", "--format", "machine"]
        )
        document = json.loads(out)
        assert code == 0
        assert document["conductor"] == "999999999000000000"
        assert document["gaps"] is None

    def test_curve_invalid_exponents(self):
        code, _, err = run_cli(["curve", "4", "8"])
        assert code == 2

    def test_quasi_document(self):
        code, out, _ = run_cli(["quasi", "--n", "2", "1,1", "--format", "machine"])
        document = json.loads(out)
        assert code == 0
        assert document["frobenius"] == ["-1", "-1"]
        assert document["minor_gcds"] == ["4", "2"]

    def test_quasi_json_input(self, tmp_path):
        path = tmp_path / "qo.json"
        path.write_text(
            json.dumps({"e": 2, "n": 4, "m": [["2", "2"], ["3", "3"]]})
        )
        code, out, _ = run_cli(["quasi", "--input", str(path), "--format", "machine"])
        document = json.loads(out)
        assert code == 0
        assert document["derived"] == [["2", "2"], ["5", "5"]]
        assert document["indices"] == ["2", "2"]


class TestOracleIndependence:
    def test_curve_and_subset_documents_do_not_use_the_oracle_sieve(
        self, monkeypatch
    ):
        from affsemi import oracle

        curve_argv = ["curve", "4", "6", "7", "--format", "machine"]
        _, curve_out, _ = run_cli(curve_argv)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle sieve must not run here")

        # Rebind every reference, including names imported into other modules.
        for name in ("numerical_gaps_dp", "frobenius_number_dp"):
            original = getattr(oracle, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "affsemi" and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, forbidden)

        assert run_cli(curve_argv) == (0, curve_out, "")
        argv, expected_code = GOLDEN["degenerate_subset"]
        code, out, _ = run_cli(argv)
        assert code == expected_code
        assert out == (FIXTURES / "degenerate_subset.json").read_text()


class TestNegativeArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "4", "6", "7", "--margin", "-2"],
            ["analyze", "4", "6", "7", "--budget", "-1"],
            ["dioph", "4", "6", "7", "--target", "9", "--budget", "-1"],
        ],
    )
    def test_rejected_with_exit_two(self, argv):
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors), pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == 2
        message = errors.getvalue().strip().splitlines()[-1]
        assert "must be a non-negative integer" in message
        assert "Traceback" not in errors.getvalue()


class TestVerify:
    def test_unimodular_verification(self):
        code, out, _ = run_cli(
            ["verify", "1,3", "3,2", "1,1", "--margin", "3", "--format", "machine"]
        )
        document = json.loads(out)
        assert code == 0
        assert document["membership_guarantee_holds"] is True
        assert document["conductor_covered"] is True

    def test_condition_failure_exits_three(self):
        code, _, _ = run_cli(["verify", "8", "10", "11"])
        assert code == 3

    def test_counterexample_exits_four(self, monkeypatch):
        from affsemi import TheoremCheck

        monkeypatch.setattr(
            cli, "verify_theorem1", lambda *a, **k: TheoremCheck(False, (9,))
        )
        code, out, _ = run_cli(["verify", "4", "6", "7"])
        assert code == 4
        assert "counterexample: 9" in out


class TestBigIntegers:
    def test_values_beyond_the_default_digit_limit(self):
        big = "3" + "0" * 4400 + "1"
        code, out, err = run_cli(["analyze", "2", big, "--format", "machine"])
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["input"]["generators"] == [["2"], [big]]
        assert document["frobenius"]["vector"] == [str(int(big) - 2)]

    def test_huge_generators_round_trip(self, tmp_path):
        a = str(10**21)
        b = str(10**21 + 1)
        code, out, _ = run_cli(["analyze", a, b, "--format", "machine"])
        assert code == 0
        document = json.loads(out)
        expected = (10**21 - 1) * (10**21) - 1
        assert document["frobenius"]["vector"] == [str(expected)]
        assert document["conductor"] == [[str(expected + 1)]]
        assert document["gaps"] is None  # sieve skipped, noted in diagnostics
        assert any("skipped" in note for note in document["diagnostics"])
        echo = tmp_path / "huge.json"
        echo.write_text(json.dumps(document["input"]))
        code, again, _ = run_cli(
            ["analyze", "--input", str(echo), "--format", "machine"]
        )
        assert code == 0
        assert again == out


class TestInternalErrors:
    def test_unexpected_exception_exits_one_without_traceback(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("deliberately broken")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code, out, err = run_cli(["analyze", "4", "6", "7"])
        assert code == 1
        assert out == ""
        assert err == "error: internal error: RuntimeError: deliberately broken\n"
        assert "Traceback" not in err
