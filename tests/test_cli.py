import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affsemi
from affsemi import cli
from affsemi.oracle import MAX_GRID_CELLS
from tests.make_corpus import CORPUS, record

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

    @pytest.mark.parametrize("fmt", [[], ["--format", "machine"]])
    def test_subset_threshold_enumerates_no_conductor(self, monkeypatch, fmt):
        # Dropping 2,2,4 leaves a system whose conductor takes seconds to
        # enumerate, and a threshold document prints none.
        argv = [
            "analyze", "40,1,0", "0,40,1", "1,0,40", "1,1,2", "2,2,4",
            "--allow-subset", "--budget", "0", *fmt,
        ]
        entries = map(json.loads, CORPUS.read_text().splitlines())
        recorded = next(entry for entry in entries if entry["argv"] == argv)
        forbid(monkeypatch, "minimal_cone_points", "a conductor was enumerated")
        assert record(argv) == recorded

    def test_skewed_unimodular_cone_gets_a_conductor(self):
        code, out, _ = run_cli(["analyze", "1000,999", "999,998", "--format", "machine"])
        assert code == 0
        document = json.loads(out)
        assert document["frobenius"]["vector"] == ["-1999", "-1997"]
        assert document["conductor"] == [["0", "0"]]

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

    @pytest.mark.parametrize(
        "command, document",
        [
            (["curve"], {"m": [6, 7]}),
            (["curve"], {"n": 4}),
            (["quasi"], {"m": [[1, 1]]}),
            (["quasi"], {"n": 2}),
            (["quasi"], {"n": 2, "m": []}),
            (["analyze"], {"generators": []}),
            (["member", "--point", "1"], {"generators": []}),
            (["dioph", "--target", "1"], {"generators": []}),
            (["verify"], {"generators": []}),
            (["analyze"], {"generators": 5}),
            (["curve"], {"n": 4, "m": 6}),
            (["quasi"], {"n": 4, "m": 6}),
        ],
    )
    def test_malformed_document_exits_two(self, command, document, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(command + ["--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "internal error" not in err

    def test_json_input(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            json.dumps({"e": "2", "generators": [["1", "3"], ["3", "2"], ["1", "1"]]})
        )
        code, out, _ = run_cli(["analyze", "--input", str(path)])
        assert code == 0
        assert "frobenius vector: (2,1)" in out
        assert "conductor: (3,2) (3,3)" in out


_HUGE = "1000000000000000000"
_STRICT_FAILURE_NOTES = (
    "conditions: NOT satisfied\n"
    "note: strict-descent condition fails at level 1: generator 3 does not "
    "enlarge the group of its predecessors\n"
    "note: the closed-form value 1999999999999999997 is not a valid Frobenius "
    "vector here\n"
)


class TestDiagnosticsBudget:
    """--budget bounds the witness searches only, and never changes a
    verdict.  The search behind the "indeed ... lies in the semigroup" note
    visits at most --budget nodes (and at most 500 000)."""

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["analyze", "3", "3", _HUGE, _HUGE, "--budget", "0"],
                f"generators: 3 3 {_HUGE} {_HUGE}\nminor gcds: 3 3 1 1\n"
                "indices:    1 3 1\n" + _STRICT_FAILURE_NOTES,
            ),
            (
                ["verify", "3", "3", "3", _HUGE, "--margin", "0", "--budget", "0"],
                f"generators: 3 3 3 {_HUGE}\nminor gcds: 3 3 3 1\n"
                "indices:    1 1 3\n" + _STRICT_FAILURE_NOTES,
            ),
        ],
        ids=["analyze", "verify"],
    )
    def test_zero_budget_answers_at_once(self, argv, stdout):
        start = time.perf_counter()
        code, out, _ = run_cli(argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == stdout

    def test_small_budget_leaves_out_the_witness_note(self):
        code, out, _ = run_cli(["analyze", "8", "10", "11", "--budget", "3"])
        assert code == 3
        assert (
            "note: scaled-membership condition fails at level 2: 2*11 = 22 is "
            "not a nonnegative combination of 8, 10\n"
        ) in out
        assert "indeed" not in out
        code, out, _ = run_cli(["analyze", "8", "10", "11"])
        assert code == 3
        assert "note: indeed 33 = 3*11 lies in the semigroup" in out

    def test_budget_never_changes_the_verdict(self):
        # A budget too small for the level searches leaves the standard
        # representations as witnesses: here the same ones the search finds.
        system = ["analyze", "4", "6", "7", "9", "--format", "machine"]
        code, out, _ = run_cli(system)
        assert code == 3
        conditions = json.loads(out)["conditions"]
        for budget in ("0", "3", "50"):
            code, out, _ = run_cli(system + ["--budget", budget])
            assert code == 3
            assert json.loads(out)["conditions"] == conditions
            code, out, _ = run_cli(["analyze", "1,3", "3,2", "1,1", "--budget", budget])
            assert code == 0
            assert "frobenius vector: (2,1)\nconductor: (3,2) (3,3)\n" in out

    def test_small_budget_subset_fallback_is_decided(self):
        # The conditions hold whatever the budget, so the fallback is not
        # taken and adds no note.
        argv = ["analyze", "1,3", "3,2", "1,1", "--budget", "3"]
        code, out, _ = run_cli(argv + ["--allow-subset"])
        assert (code, out) == run_cli(argv)[:2]
        assert code == 0
        assert "note:" not in out

    @pytest.mark.parametrize(
        "generators",
        [["8", "10", "11", "13"], [str(v) for v in range(1000, 1200)]],
        ids=["8-10-11-13", "1000-1199"],
    )
    def test_no_search_proves_a_non_member(self, generators, monkeypatch):
        # Levels above the first failure are neither listed nor searched,
        # and no search runs to prove a non-member: those searches are the
        # unbounded ones.
        results = []
        original = affsemi.membership_bruteforce

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        for module in (affsemi.semigroup, cli):
            monkeypatch.setattr(module, "membership_bruteforce", recorded)
        start = time.perf_counter()
        code, out, _ = run_cli(["analyze", *generators, "--format", "machine"])
        assert time.perf_counter() - start < 1
        assert code == 3
        levels = json.loads(out)["conditions"]["scaled_membership"]
        assert [(c["level"], c["holds"]) for c in levels] == [("1", True), ("2", False)]
        assert results and None not in results


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

    def test_quasi_honours_the_search_budget(self):
        # The conditions are decided by the sign criterion, so no search
        # runs and the budget, however small, is never reached.
        code, out, err = run_cli([
            "quasi", "--n", "3", "1000000000000000000,0", "--budget", "1000",
            "--format", "machine",
        ])
        assert (code, err) == (0, "")
        assert json.loads(out)["frobenius"] == ["1999999999999999997", "-3"]

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


def forbid(monkeypatch, name, message):
    """Make ``name`` raise in every affsemi module that holds it, including
    the modules that imported it by name."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    original = getattr(affsemi, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "affsemi" and (
            getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, forbidden)


class TestOracleIndependence:
    def test_curve_and_subset_documents_do_not_use_the_oracle_sieve(
        self, monkeypatch
    ):
        curve_argv = ["curve", "4", "6", "7", "--format", "machine"]
        _, curve_out, _ = run_cli(curve_argv)
        for name in ("numerical_gaps_dp", "frobenius_number_dp"):
            forbid(monkeypatch, name, "the oracle sieve must not run here")

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

    @pytest.mark.parametrize(
        "generators",
        [
            ["5000000000000000000,1", "4999999999999999999,1"],
            ["1,10000000000,0", "0,1,10000000000", "0,0,1"],
        ],
    )
    def test_unimodular_block_past_int64(self, generators):
        # The conductor's offset from g (first) or the cone map (second)
        # passes int64 on a one-point box.
        code, out, err = run_cli(["verify", *generators, "--margin", "0"])
        assert (code, err) == (0, "")
        assert out.endswith("conductor cover on the margin box: holds\n")

    def test_oversized_box_exits_two(self):
        # The box has 10^19 + 1 cells; it is refused before it is built.
        code, out, err = run_cli(["verify", "10000000000000000000", "--margin", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: verification box of 10000000000000000001 cells")
        assert len(err.splitlines()) == 1


class TestConditionsDecidedWithoutSearch:
    """member, dioph and verify decide the chain conditions by the sign
    criterion; the witness search used to take seconds on this system."""

    SYSTEM = ["40,1,0", "0,40,1", "1,0,40", "1,1,2"]

    @pytest.fixture
    def no_search(self, monkeypatch):
        forbid(monkeypatch, "membership_bruteforce", "a witness search ran")

    def test_member(self, no_search):
        code, out, err = run_cli(
            ["member", *self.SYSTEM, "--point", "5,5,5", "--format", "machine"]
        )
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["method"] == "fast"
        assert document["in_semigroup"] is False

    def test_dioph(self, no_search):
        code, out, err = run_cli(["dioph", *self.SYSTEM, "--target", "5,5,5"])
        assert (code, out, err) == (0, "target (5,5,5): no_solution\n", "")

    def test_verify(self, no_search):
        code, out, err = run_cli(
            ["verify", "8,0", "0,8", "2,2", "12,8", "--format", "machine"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["membership_guarantee_holds"] is True

    @pytest.mark.parametrize(
        "generators",
        [SYSTEM, ["4,0,4", "1,3,3", "4,2,4", "1,0,1", "2,2,3"]],
        ids=["one-level", "two-levels"],
    )
    @pytest.mark.parametrize("fmt", [[], ["--format", "machine"]])
    def test_analyze_searches_no_level_1_witness(self, monkeypatch, generators, fmt):
        # The leading generators are a basis, so the level-1 witness is the
        # standard representation; searching for it took seconds here.
        original = affsemi.membership_bruteforce
        e = len(generators[0].split(","))

        def searched(predecessors, *args, **kwargs):
            if len(predecessors) == e:
                raise AssertionError("a level-1 witness search ran")
            return original(predecessors, *args, **kwargs)

        monkeypatch.setattr(affsemi.semigroup, "membership_bruteforce", searched)
        argv = ["analyze", *generators, *fmt]
        entries = map(json.loads, CORPUS.read_text().splitlines())
        recorded = next(entry for entry in entries if entry["argv"] == argv)
        assert record(argv) == recorded

    def test_oversize_verify_box_is_refused_before_the_conductor(self, monkeypatch):
        forbid(monkeypatch, "minimal_cone_points", "the conductor was enumerated")
        code, out, err = run_cli(
            ["verify", "10,0,0,1", "1,10,0,0", "0,1,10,0", "0,0,1,10", "2,1,1,1",
             "--margin", "0"]
        )
        assert (code, out) == (2, "")
        assert "exceeds the safety cap" in err


class TestBigIntegers:
    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit cap"
    )
    @pytest.mark.parametrize(
        "argv", [["analyze", "4", "6", "7"], ["analyze", "4", "x"], ["analyze", "--bad"]]
    )
    def test_main_leaves_the_digit_cap_as_it_found_it(self, argv):
        cap = sys.get_int_max_str_digits()
        with contextlib.suppress(SystemExit):
            run_cli(argv)
        assert sys.get_int_max_str_digits() == cap

    def test_values_beyond_the_default_digit_limit(self):
        big = "3" + "0" * 4400 + "1"
        code, out, err = run_cli(["analyze", "2", big, "--format", "machine"])
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["input"]["generators"] == [["2"], [big]]
        # 3 * 10**4401 + 1 - 2, written out: main restores the cap, so the
        # test cannot convert the 4402-digit string itself.
        assert document["frobenius"]["vector"] == ["2" + "9" * 4401]

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


    def test_large_index_is_rechecked(self, monkeypatch):
        import affsemi.frobenius

        p = 10**12 + 39
        g = p * (p + 2) - p - (p + 2)
        rechecked = []
        original = affsemi.frobenius.membership_fast

        def spy(system, chain, vector, conditions=None):
            result = original(system, chain, vector, conditions)
            rechecked.append((tuple(vector), result.in_group, result.in_semigroup))
            return result

        monkeypatch.setattr(affsemi.frobenius, "membership_fast", spy)
        code, out, err = run_cli(["analyze", str(p), str(p + 2), "--format", "machine"])
        assert (code, err) == (0, "")
        assert rechecked == [((g,), True, False)]
        document = json.loads(out)
        assert document["frobenius"]["vector"] == [str(g)]
        assert document["frobenius"]["vector_in_group"] is True
        assert document["frobenius"]["vector_in_semigroup"] is False


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


class TestSharedParser:
    SEQUENCE = [
        (["analyze", "4", "6", "7", "9", "--allow-subset"], 0),
        (["analyze", "4", "6", "7", "9"], 3),
        (["member", "4", "6", "7", "--point", "9", "--format", "machine"], 0),
        (["member", "4", "6", "7", "--point", "9"], 0),
        (["dioph", "4", "6", "7", "--target", "5", "--budget", "50"], 0),
        (["curve", "4", "6", "7", "--format", "machine"], 0),
        (["quasi", "--n", "4", "2,2", "3,3"], 0),
        (["verify", "1,3", "3,2", "1,1", "--margin", "2"], 0),
        (["analyze", "4", "6", "7"], 0),
    ]

    def test_repeated_invocations_do_not_leak_state(self):
        # main parses with one cached parser; each result must depend only
        # on its own arguments, in whatever order the calls come.
        forward = [run_cli(argv) for argv, _ in self.SEQUENCE]
        assert [code for code, _, _ in forward] == [
            code for _, code in self.SEQUENCE
        ]
        assert "threshold" in forward[0][1]
        assert "NOT satisfied" in forward[1][1]
        assert forward[2][1].startswith("{") and not forward[3][1].startswith("{")
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors), pytest.raises(SystemExit):
            cli.main(["member", "4", "6", "7"])
        backward = [run_cli(argv) for argv, _ in reversed(self.SEQUENCE)]
        assert backward[::-1] == forward


_text = st.one_of(
    st.text(),
    st.integers().map(str),
    st.sampled_from(
        ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001d11e"]
    ),
)

_ints = st.one_of(
    st.integers(), st.sampled_from([0, -1, 10**4999 + 7, -(10**4999)])
)

_documents = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _text, _ints, st.lists(_text), st.lists(_ints)
    ),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_text, children),
    ),
    max_leaves=20,
)


def as_json_input(value):
    """``value`` with every integer that is not a bool turned into its
    decimal string and every tuple into a list: the document whose
    ``json.dumps`` a machine document must equal."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {key: as_json_input(item) for key, item in value.items()}
    return [as_json_input(item) for item in value]


@pytest.fixture(scope="class")
def no_digit_limit():
    """Lift the int -> str digit cap, where the interpreter has one, for a
    whole class: hypothesis prints the 5000-digit examples too."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


@pytest.mark.usefixtures("no_digit_limit")
class TestMachineWriter:
    @settings(max_examples=200, deadline=None)
    @given(_documents)
    def test_matches_json_dumps(self, document):
        expected = json.dumps(as_json_input(document), indent=2)
        assert cli._machine_text(document) == expected

    def test_long_gap_list(self):
        # 101 and 203 are coprime, so there are 100 * 202 / 2 = 10100 gaps.
        system = affsemi.GeneratorSystem(1, ((101,), (203,)))
        chain = affsemi.build_chain(system)
        report = affsemi.validate_conditions(system, chain)
        frob = affsemi.frobenius_vector(system, chain, report)
        document = cli._analysis_document(system, chain, report, frob, [])
        assert document["gap_count"] == 10100
        expected = json.dumps(as_json_input(document), indent=2)
        assert cli._machine_text(document) == expected

    def test_vector_strings(self):
        vector = (-1, 0, -(10**30), 10**4999 + 7, -(10**4999))
        assert len(str(vector[3])) == 5000
        expected = json.dumps({"v": [str(x) for x in vector]}, indent=2)
        assert cli._machine_text({"v": vector}) == expected


class TestImportPath:
    def test_numpy_is_loaded_only_by_the_oracle(self):
        source = str(Path(affsemi.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys; import affsemi.cli; a = 'numpy' in sys.modules; "
            "import affsemi; b = 'numpy' in sys.modules; "
            "f = affsemi.verify_theorem1; "
            "print(a, b, f.__module__, 'numpy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.split() == ["False", "False", "affsemi.oracle", "True"]


_TOKENS = st.one_of(
    st.lists(
        st.one_of(st.integers(-60, 60), st.integers(10**18, 10**30)),
        min_size=1,
        max_size=3,
    ).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "1,,2", "abc", "1.5", "-0", " 3 "]),
)


def _verify_box_cells(tokens, margin):
    """Cells of the sweep box that ``verify`` would scan, or 0 when the
    tokens are refused before any sweep."""
    try:
        vectors = [cli._parse_vector(token) for token in tokens]
    except ValueError:
        return 0
    if not vectors or any(len(v) != len(vectors[0]) for v in vectors):
        return 0
    e = len(vectors[0])
    leading = vectors[:e]
    if len(leading) < e:
        return 0
    return math.prod(margin * sum(abs(v[i]) for v in leading) + 1 for i in range(e))


@st.composite
def _invocations(draw):
    command = draw(
        st.sampled_from(["analyze", "member", "dioph", "curve", "quasi", "verify"])
    )
    tokens = draw(st.lists(_TOKENS, max_size=5))
    argv = [command, *tokens]
    if command == "analyze" and draw(st.booleans()):
        argv.append("--allow-subset")
    if command == "member":
        argv += ["--point", draw(_TOKENS)]
    if command == "dioph":
        argv += ["--target", draw(_TOKENS)]
    if command == "quasi" and draw(st.booleans()):
        argv += ["--n", draw(_TOKENS)]
    if command == "verify":
        margin = draw(st.integers(0, 2))
        # A box past the cap is refused before allocation; below it, only
        # small boxes are swept, so that every example stays cheap.
        cells = _verify_box_cells(tokens, margin)
        assume(cells <= 10**5 or cells > MAX_GRID_CELLS)
        argv += ["--margin", str(margin)]
    argv += ["--budget", str(draw(st.integers(0, 1000)))]
    argv += ["--format", draw(st.sampled_from(["human", "machine"]))]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_invocations())
    def test_no_internal_errors(self, argv):
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            errors
        ):
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # refused by the argument parser
                code = stop.code
        assert code in (0, 2, 3, 4), (argv, errors.getvalue())
        assert "Traceback" not in errors.getvalue()
        assert "internal error" not in errors.getvalue()
