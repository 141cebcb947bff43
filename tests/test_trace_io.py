import pytest

from fuzzytl.core import AvoidingFunction, Interpretation, Trace
from fuzzytl.errors import ValidationError
from fuzzytl.evaluator import EvalContext, evaluate
from fuzzytl.parser import parse
from fuzzytl.trace_io import (
    load_trace,
    parse_eta_spec,
    save_trace,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)

SAMPLE = Trace(("p", "q"), ((0.1, 1.0), (0.2, 0.0)), loop_start=1)


def test_json_round_trip():
    assert trace_from_json(trace_to_json(SAMPLE)) == SAMPLE


def test_csv_round_trip():
    assert trace_from_csv(trace_to_csv(SAMPLE)) == SAMPLE


def test_documented_json_shape():
    trace = trace_from_json('{"atoms":["p","q"],"states":[[0.1,1.0],[0.2,0.0]],"loop":1}')
    assert trace == SAMPLE


def test_documented_csv_shape():
    trace = trace_from_csv("# loop=1\np,q\n0.1,1.0\n0.2,0.0\n")
    assert trace == SAMPLE


def test_csv_without_loop_is_finite():
    trace = trace_from_csv("p\n0.5\n0.25\n")
    assert trace.loop_start is None
    assert len(trace) == 2


def test_encodings_evaluate_identically(tmp_path):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    save_trace(SAMPLE, json_path)
    save_trace(SAMPLE, csv_path)
    a = load_trace(json_path)
    b = load_trace(csv_path)
    eta = AvoidingFunction((1.0, 0.5))
    for text in ("G p", "S q", "p U q", "AG[1] p"):
        for interp in Interpretation:
            va = evaluate(EvalContext(a, interp, eta), parse(text)).value
            vb = evaluate(EvalContext(b, interp, eta), parse(text)).value
            assert va == vb


@pytest.mark.parametrize(
    "bad",
    [
        "{}",
        '{"atoms": ["p"]}',
        '{"atoms": ["p"], "states": [[0.5]], "loop": "x"}',
        '{"atoms": ["U"], "states": [[0.5]]}',
        '{"atoms": ["p"], "states": [[1.5]]}',
        '{"atoms": ["p"], "states": [[0.5], [0.1, 0.2]]}',
        '{"atoms": ["p"], "states": [["x"]]}',
        '{"atoms": ["p"], "states": [[null]]}',
        '{"atoms": ["p"], "states": [[0.5]], "loop": true}',
    ],
)
def test_bad_json_rejected(bad):
    with pytest.raises(ValidationError):
        trace_from_json(bad)


@pytest.mark.parametrize(
    "bad",
    ["", "# loop=x\np\n0.5\n", "p\nabc\n", "p,q\n0.5\n", "9bad\n0.5\n"],
)
def test_bad_csv_rejected(bad):
    with pytest.raises(ValidationError):
        trace_from_csv(bad)


class TestEtaSpecs:
    def test_table(self):
        eta = parse_eta_spec("table:1,0.5,0.3")
        assert eta.table == (1.0, 0.5, 0.3)

    def test_crisp(self):
        assert parse_eta_spec("crisp").n_eta == 1

    def test_gauss_20(self):
        eta = parse_eta_spec("gauss:20")
        assert eta.n_eta == 21
        assert eta.table[0] == 1.0
        assert all(eta.table[i] < eta.table[i - 1] for i in range(1, 21))
        assert eta.lookup(21) == 0.0

    @pytest.mark.parametrize("bad", ["", "tabel:1", "table:", "table:1,x", "gauss:", "gauss:x", "table:0.9,0.5"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValidationError):
            parse_eta_spec(bad)
