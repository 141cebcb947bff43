import hashlib
import random

from fuzzytl import checks
from fuzzytl.checks import (
    SUITES,
    LOWERING_CORPUS,
    SuiteReport,
    random_eta,
    random_formula,
    random_trace,
    run_chain_suite,
)
from fuzzytl.parser import format_formula, parse


def test_random_trace_respects_flags():
    rng = random.Random(1)
    for _ in range(50):
        finite = random_trace(rng, max_len=6, lasso=False)
        assert finite.loop_start is None and 1 <= len(finite) <= 6
        lasso = random_trace(rng, max_len=6, lasso=True)
        assert lasso.loop_start is not None
        crisp = random_trace(rng, max_len=6, crisp=True)
        assert all(v in (0.0, 1.0) for row in crisp.states for v in row)


def test_random_eta_bounds():
    rng = random.Random(2)
    for _ in range(50):
        eta = random_eta(rng, max_n=5, min_n=2)
        assert 2 <= eta.n_eta <= 5


def test_random_formula_flags():
    rng = random.Random(3)
    for _ in range(100):
        f = random_formula(rng, depth=4, n_eta=1, allow_unbounded=False)
        text = format_formula(f)
        assert "O[" not in text
        assert parse(text) == f


def test_suite_report_captures_first_counterexample():
    report = SuiteReport("demo")
    report.check("law", True)
    report.check("law", False, lambda: "first")
    report.check("law", False, lambda: "second")
    line = report.lines()[0]
    assert line.startswith("FAIL") and "first" in line and "2/3" in line
    assert report.failures == 2


def test_registry_and_corpus():
    assert set(SUITES) == {"chains", "oracle", "crisp", "rewrites", "lasso"}
    assert len(LOWERING_CORPUS) == 20
    for text in LOWERING_CORPUS:
        parse(text)


def test_small_runs_of_every_suite_pass():
    for name, runner in SUITES.items():
        report = runner(11, 8)
        assert report.failures == 0, (name, report.lines())


def test_chain_report_is_pinned():
    report = run_chain_suite(7, 200)
    assert (report.checks, len(report.laws)) == (72446, 28)
    digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert digest == "af99ecf79922c9361168fdea6136201bcad73bd62937b676ee9e4dd829fab253"


def test_a_failing_chain_law_reports_its_first_counterexample(monkeypatch):
    laws = [
        (name, guard, shown, lambda t, ltp, lt: lt <= ltp)
        if name == "lasts-non-increasing"
        else (name, guard, shown, holds)
        for name, guard, shown, holds in checks._CHAIN_LAWS
    ]
    monkeypatch.setattr(checks, "_CHAIN_LAWS", tuple(laws))
    failed = [line for line in run_chain_suite(7, 200).lines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL  lasts-non-increasing  (1148/3512 checks): O[2] W[3] p ltp=0.03125 lt=0.0390625"
        " | interp=zadeh pos=0 t=0 t'=2 eta=[1.0, 0.6875, 0.125, 0.0625] loop=1"
        " states=[[0.3125, 0.625], [0.25, 0.75]]"
    ]
