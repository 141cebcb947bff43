import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzytl.checks
import fuzzytl.cli
from fuzzytl.cli import build_arg_parser, main
from fuzzytl.demo import availability, generate_day
from fuzzytl.errors import NotALasso


@pytest.fixture
def table3(tmp_path):
    path = tmp_path / "tableIII.json"
    path.write_text('{"atoms":["p"],"states":[[0.1],[0.2],[1.0],[0.1]]}')
    return str(path)


class TestEval:
    def test_worked_value(self, table3, capsys):
        rc = main(
            [
                "eval",
                "--formula",
                "AG[2] p",
                "--trace",
                table3,
                "--interp",
                "zadeh",
                "--eta",
                "table:1,0.5,0.3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("0.3")
        assert "Exact" in out

    def test_unbounded_on_finite_is_a_bound(self, table3, capsys):
        assert main(["eval", "--formula", "G p", "--trace", table3]) == 0
        assert "UpperBound" in capsys.readouterr().out

    def test_json_output_round_trips_bitwise(self, table3, capsys):
        rc = main(
            [
                "eval",
                "--formula",
                "AG[2] p",
                "--trace",
                table3,
                "--eta",
                "table:1,0.5,0.3",
                "--output",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 0.3
        assert doc["exactness"] == "Exact"
        assert doc["formula"] == "AG[2] p"
        assert doc["position"] == 0

    def test_json_value_reproduces_library_float(self, tmp_path, capsys):
        from fuzzytl.core import AvoidingFunction, Interpretation, Trace
        from fuzzytl.evaluator import EvalContext, evaluate
        from fuzzytl.parser import parse as parse_formula

        path = tmp_path / "pq.json"
        path.write_text('{"atoms":["p","q"],"states":[[0.1,0.3]]}')
        rc = main(
            [
                "eval",
                "--formula",
                "p & q",
                "--trace",
                str(path),
                "--interp",
                "product",
                "--output",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ctx = EvalContext(
            Trace(("p", "q"), ((0.1, 0.3),)),
            Interpretation.PRODUCT,
            AvoidingFunction.gaussian(20),
        )
        expected = evaluate(ctx, parse_formula("p & q")).value
        assert doc["value"] == expected  # bit-for-bit through the JSON text

    @pytest.mark.parametrize("cell", ['"x"', "null"])
    def test_non_numeric_degree_is_a_validation_error(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms":["p"],"states":[[%s]]}' % cell)
        assert main(["eval", "--formula", "p", "--trace", str(bad)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_degree_too_large_for_a_float_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text('{"atoms":["p"],"states":[[%d]]}' % 10**400)
        assert main(["eval", "--formula", "p", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: truth degree 1000") and "outside [0, 1]" in err
        assert "Traceback" not in err

    def test_deep_next_is_an_evaluation_error(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text('{"atoms":["a"],"states":[[0.5],[1.0]]}')
        assert main(["eval", "--formula", "X[100000] a", "--trace", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: position 100000")
        assert "Traceback" not in err

    def test_too_deep_to_evaluate_is_an_evaluation_error(self, table3, capsys):
        # the text parses; the evaluator's stack is the one depth limit
        assert main(["eval", "--formula", "!" * 1500 + "p", "--trace", table3]) == 3
        assert capsys.readouterr().err == "evaluation error: formula nests too deeply to evaluate\n"

    def test_deep_parentheses_evaluate(self, table3, capsys):
        assert main(["eval", "--formula", "p", "--trace", table3]) == 0
        plain = capsys.readouterr()
        assert main(["eval", "--formula", "(" * 1200 + "p" + ")" * 1200, "--trace", table3]) == 0
        assert capsys.readouterr() == plain

    def test_gaussian_width_past_the_ceiling_is_a_validation_error(self, table3, capsys):
        assert main(["eval", "--formula", "p", "--trace", table3, "--eta", "gauss:1000001"]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: gaussian width 1000001 exceeds the ceiling 1000000\n"

    def test_pad_zero_policy(self, table3, capsys):
        rc = main(
            ["eval", "--formula", "X[9] p", "--trace", table3, "--finite-policy", "pad-zero"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("0.0")

    def test_at_position(self, table3, capsys):
        assert main(["eval", "--formula", "X p", "--trace", table3, "--at", "1"]) == 0
        assert capsys.readouterr().out.startswith("1.0")


class TestRewrite:
    def test_single_rule(self, capsys):
        rc = main(
            [
                "rewrite",
                "--formula",
                "W[2] p",
                "--target",
                "rule:within-expand",
                "--eta",
                "table:1,0.5,0.3",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "F[2] p | X[3] O[1] p | X[4] O[2] p"

    def test_fg_dual(self, capsys):
        rc = main(["rewrite", "--formula", "G p", "--interp", "zadeh", "--target", "rule:FG-dual"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "!F!p"

    def test_rule_scope_is_enforced(self):
        rc = main(["rewrite", "--formula", "G p", "--interp", "godel", "--target", "rule:FG-dual"])
        assert rc == 2

    def test_adequate_lowering(self, capsys):
        rc = main(["rewrite", "--formula", "F p", "--interp", "zadeh", "--target", "adequate"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "true U p"

    @pytest.mark.parametrize(
        "interp, code", [("zadeh", 0), ("godel", 4), ("lukasiewicz", 0), ("product", 0)]
    )
    def test_deep_lowering_exit_codes(self, interp, code, capsys):
        # 300 unfoldings nest far past Python's frame limit in the lowered text
        rc = main(["rewrite", "--formula", "F[300] a", "--interp", interp, "--target", "adequate"])
        assert rc == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out.count("X") == 300 and err == ""
        else:
            assert out == "" and err.startswith("budget exceeded; partial form: ")
            assert "Traceback" not in err

    def test_deep_single_rule_rewrite(self, capsys):
        # the leftmost-outermost search walks 3000 nested X without recursing
        rc = main(["rewrite", "--formula", "X[3000] G p", "--target", "rule:FG-dual", "--interp", "zadeh"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out == "X[3000]!F!p\n" and err == ""

    def test_verify_prints_difference(self, table3, capsys):
        rc = main(
            [
                "rewrite",
                "--formula",
                "W[1] p",
                "--target",
                "rule:within-expand",
                "--eta",
                "table:1,0.5,0.3",
                "--verify",
                table3,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "difference: 0.000e+00" in out

    def test_verify_of_a_too_deep_lowering_is_an_evaluation_error(self, tmp_path, capsys):
        # the 300-deep lowered form outnests the evaluator's Python stack
        day = tmp_path / "day.json"
        assert main(["gen-demo", "--minutes", "400", "--out", str(day)]) == 0
        capsys.readouterr()
        args = ["rewrite", "--formula", "F[300] a", "--target", "adequate", "--interp", "product"]
        assert main([*args, "--verify", str(day)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: formula nests too deeply")
        assert "Traceback" not in err


class TestCheck:
    def test_oracle_suite_passes(self, capsys):
        assert main(["check", "--suite", "oracle", "--cases", "40", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_all_suites_small(self, capsys):
        assert main(["check", "--suite", "all", "--cases", "16", "--seed", "3"]) == 0

    def test_law_failure_exits_5(self, capsys, monkeypatch):
        from fuzzytl.checks import SuiteReport

        def broken(seed, cases):
            report = SuiteReport("oracle")
            report.check("some-law", False, lambda: "counterexample here")
            return report

        monkeypatch.setitem(fuzzytl.checks.SUITES, "oracle", broken)
        assert main(["check", "--suite", "oracle"]) == 5
        assert "counterexample here" in capsys.readouterr().out


_EVAL = ["eval", "--trace", "{t3}", "--formula"]
_VERIFY = ["rewrite", "--formula", "G p", "--target", "rule:FG-dual", "--verify"]

#: (argv, exit code, first words of the one stderr line); {t3} is the
#: four-state trace, {bad} one with a degree outside [0, 1], {eta} one that
#: declares the reserved atom __eta_1, {bin} a file that is not UTF-8, {tmp}
#: a scratch dir
_FAILURE_CASES = {
    "eval-syntax": ([*_EVAL, "AG[2"], 1, "syntax error: "),
    "eval-too-deep-to-evaluate": ([*_EVAL, "!" * 1500 + "p"], 3, "evaluation error: "),
    "eval-missing-trace": (["eval", "--trace", "{tmp}/none.json", "--formula", "p"], 2, "validation error: "),
    "eval-invalid-trace": (["eval", "--trace", "{bad}", "--formula", "p"], 2, "validation error: "),
    "eval-non-utf8-trace": (["eval", "--trace", "{bin}", "--formula", "p"], 2, "validation error: "),
    "eval-reserved-eta-atom": (["eval", "--trace", "{eta}", "--formula", "__eta_1"], 2, "validation error: "),
    "eval-bad-eta": ([*_EVAL, "p", "--eta", "table:0.5"], 2, "validation error: "),
    "eval-gauss-past-ceiling": ([*_EVAL, "p", "--eta", "gauss:1000001"], 2, "validation error: "),
    "eval-strict-horizon": ([*_EVAL, "X[9] p"], 3, "evaluation error: "),
    "eval-unknown-atom": ([*_EVAL, "q"], 3, "evaluation error: "),
    "eval-scale-index": ([*_EVAL, "O[5] p", "--eta", "table:1,0.5,0.3"], 3, "evaluation error: "),
    "eval-negative-at": ([*_EVAL, "p", "--at", "-1"], 3, "evaluation error: "),
    "eval-at-past-end": ([*_EVAL, "p", "--at", "10"], 3, "evaluation error: "),
    "rewrite-syntax": (["rewrite", "--formula", "F[", "--target", "adequate"], 1, "syntax error: "),
    "rewrite-bad-eta": (["rewrite", "--formula", "p", "--target", "adequate", "--eta", "x"], 2, "validation error: "),
    "rewrite-budget": (
        ["rewrite", "--formula", "AG[4] p", "--interp", "product", "--target", "adequate", "--budget", "1000"],
        4,
        "budget exceeded; partial form: ",
    ),
    "rewrite-not-lowerable": (
        ["rewrite", "--formula", "G p", "--interp", "godel", "--target", "adequate"],
        4,
        "not lowerable: ",
    ),
    "rewrite-unknown-rule": (
        ["rewrite", "--formula", "p", "--target", "rule:no-such-rule"],
        2,
        "validation error: unknown rule 'no-such-rule'; rules: ",
    ),
    "rewrite-unsound-rule": (
        ["rewrite", "--formula", "G p", "--target", "rule:FG-dual", "--interp", "godel"],
        2,
        "validation error: rule 'FG-dual' is only sound under: ",
    ),
    "rewrite-bad-target": (["rewrite", "--formula", "p", "--target", "lowered"], 2, "validation error: bad --target 'lowered'"),
    "verify-missing-trace": ([*_VERIFY, "{tmp}/none.json"], 2, "validation error: "),
    "verify-invalid-trace": ([*_VERIFY, "{bad}"], 2, "validation error: "),
    "verify-unknown-atom": (
        ["rewrite", "--formula", "G q", "--target", "rule:FG-dual", "--verify", "{t3}"],
        3,
        "evaluation error: ",
    ),
    "check-no-cases": (["check", "--cases", "0"], 2, "validation error: "),
    "check-negative-cases": (["check", "--suite", "oracle", "--cases", "-5"], 2, "validation error: "),
    "gen-demo-no-minutes": (["gen-demo", "--minutes", "0", "--out", "{tmp}/x.json"], 2, "validation error: "),
    "gen-demo-unwritable": (["gen-demo", "--minutes", "5", "--out", "{tmp}/no/dir/x.json"], 2, "validation error: cannot write "),
}


class TestFailures:
    @pytest.mark.parametrize("argv, code, prefix", _FAILURE_CASES.values(), ids=_FAILURE_CASES)
    def test_one_line_and_its_exit_code(self, table3, tmp_path, capsys, argv, code, prefix):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms":["p"],"states":[[7.0]]}')
        eta = tmp_path / "eta.json"
        eta.write_text('{"atoms":["__eta_1","p"],"states":[[0.9,0.5]]}')
        binary = tmp_path / "bin.json"
        binary.write_bytes(bytes.fromhex("fffe00626164"))
        paths = {"t3": table3, "bad": str(bad), "eta": str(eta), "bin": str(binary), "tmp": str(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    def test_error_escaping_a_law_suite_is_an_evaluation_error(self, capsys, monkeypatch):
        def lasso_only(seed, cases):
            raise NotALasso("unbounded limits need a lasso trace")

        monkeypatch.setitem(fuzzytl.checks.SUITES, "oracle", lasso_only)
        assert main(["check", "--suite", "oracle"]) == 3
        assert capsys.readouterr().err == "evaluation error: unbounded limits need a lasso trace\n"

    def test_other_os_errors_propagate(self, capsys, monkeypatch):
        # only an unreadable trace file is a validation error, not (say) a closed stdout
        def closed_stdout(args):
            raise OSError("stdout closed")

        monkeypatch.setitem(fuzzytl.cli._COMMANDS, "eval", closed_stdout)
        with pytest.raises(OSError, match="stdout closed"):
            main(["eval", "--formula", "p", "--trace", "x.json"])
        assert capsys.readouterr().err == ""


class TestImports:
    def test_cli_imports_no_law_suites(self):
        # eval needs none of these; each subcommand imports its own.  -S: no
        # site-packages module imports anything on the package's behalf
        code = "import sys, fuzzytl.cli; print(' '.join(sorted(sys.modules)))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        assert "fuzzytl.cli" in out
        for name in ("checks", "rewrite", "oracle", "demo"):
            assert f"fuzzytl.{name}" not in out
        assert "dataclasses" not in out and "inspect" not in out

    def test_suite_choices_follow_the_law_suite_table(self):
        from fuzzytl.checks import SUITES

        commands = next(a for a in build_arg_parser()._actions if a.dest == "command")
        suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
        assert suite.choices == [*sorted(SUITES), "all"]


class TestGenDemo:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen-demo", "--minutes", "40", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen-demo", "--minutes", "40", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_trace_loads_and_evaluates(self, tmp_path, capsys):
        path = tmp_path / "day.csv"
        assert main(["gen-demo", "--minutes", "60", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--formula", "AG[59] a", "--trace", str(path), "--eta", "gauss:20"])
        assert rc == 0
        value = float(capsys.readouterr().out.split()[0])
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("minutes", ["0", "-3"])
    def test_empty_day_is_a_validation_error(self, tmp_path, capsys, minutes):
        rc = main(["gen-demo", "--minutes", minutes, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestAvailabilityFormula:
    def test_zero_at_lower_branch_edge(self):
        variance = 4.0
        assert availability(-1.5 * variance, variance) == 0.0
        assert availability(-1.5 * variance - 0.01, variance) == 0.0

    def test_one_from_half_variance_below(self):
        variance = 4.0
        assert availability(-0.5 * variance, variance) == 1.0
        assert availability(0.0, variance) == 1.0

    def test_linear_in_between(self):
        variance = 4.0
        assert availability(-variance, variance) == pytest.approx(0.5)

    def test_day_trace_shape(self):
        trace = generate_day(30, seed=4)
        assert trace.atoms == ("a", "d", "c", "s", "p")
        assert len(trace) == 30
        for row in trace.states:
            assert all(0.0 <= v <= 1.0 for v in row)
            assert row[1] in (0.0, 1.0) and row[2] in (0.0, 1.0) and row[3] in (0.0, 1.0)
