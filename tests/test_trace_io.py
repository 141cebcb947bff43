import gc
import hashlib
import json
import math

import pytest

from fuzzytl.core import _CHUNK, AvoidingFunction, Interpretation, Trace, degree
from fuzzytl.errors import ValidationError
from fuzzytl.evaluator import EvalContext, evaluate
from fuzzytl.parser import BOUND_CEILING, parse
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
        '{"atoms": "pq", "states": [[0.1, 0.2]]}',
        '{"atoms": {"p": 1}, "states": [[0.5]]}',
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


def test_file_that_is_not_utf8_is_a_validation_error(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(bytes.fromhex("fffe00626164"))
    with pytest.raises(ValidationError, match="is not UTF-8 text"):
        load_trace(path)


@pytest.mark.parametrize("name", ["t.json", "t.csv"])
def test_byte_order_mark_is_dropped(tmp_path, name):
    path = tmp_path / name
    save_trace(SAMPLE, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_trace(path) == SAMPLE


def load_outcome(load, text) -> str:
    """What loading a trace gives: its stored values as ``float.hex``, or
    the exception's type and message."""
    try:
        trace = load(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    rows = [" ".join(map(float.hex, row)) for row in trace.states]
    return f"{trace.atoms} loop={trace.loop_start} " + " | ".join(rows)


#: JSON literals for one cell, accepted or not.
JSON_VALUES = (
    "0", "1", "2", "0.5", "-0.0", "5e-324", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "-1e-300", "1.0000000000000002", "null", '"x"', '"0.5"', '" 0.25 "', '"-0"', '"nan"',
    "true", "false", "[0.5]", "[]", "{}",
)

#: CSV cells, accepted or not.
CSV_VALUES = (
    "0", "1", "2", "0.5", "-0.0", "5e-324", "1e400", "nan", "NaN", "inf", "-inf", "-1e-300",
    "1.0000000000000002", "x", "", " ", " 0.5 ", "\t0.25", "\u00a00.5", "\uff10.\uff15",
    "True", "0x1", "1_0", "0.5.0",
)


def json_ingest_cases():
    cases = []
    for v in JSON_VALUES:
        cases.append(f'{{"atoms": ["p", "q"], "states": [[{v}, 0.5], [0.5, 0.5]]}}')
        cases.append(f'{{"atoms": ["p", "q"], "states": [[0.5, 0.5], [0.5, {v}]], "loop": 1}}')
        cases.append(f'{{"atoms": ["p", "q"], "states": [[0.5, 2], [0.5, {v}]]}}')
        cases.append(f'{{"atoms": ["p", "q"], "states": [[0.5, {v}], [0.5]]}}')
    cases += [
        '{"atoms": ["p", "q"], "states": [[0.5, 0.5], [0.5, 1.5], [0.5]]}',
        '{"atoms": ["p", "q"], "states": [[0.5], [0.5, NaN]]}',
        '{"atoms": ["p"], "states": []}',
        '{"atoms": [], "states": [[], []]}',
        '{"atoms": ["p", "p"], "states": [[0.5, 0.5]]}',
        '{"atoms": ["p"], "states": [[0.5]], "loop": 1}',
        '{"atoms": ["p"], "states": [[0.5]], "loop": 0.0}',
        '{"atoms": ["p"], "states": [0.5]}',
        '{"atoms": ["p"], "states": {"0": [0.5]}}',
        '{"atoms": ["p"], "states": [[7]], "loop": 3}',
        '{"atoms": [1], "states": [[0.5]]}',
        '{"atoms": ["p"], "states": [[0.5]], "extra": 1}',
        '  {"atoms": ["p"], "states": [[0.5]]}',
        '[1]',
        '{"atoms": ["p"], "states": [[0.5]',
    ]
    return cases


def csv_ingest_cases():
    cases = []
    for v in CSV_VALUES:
        cases.append(f"p,q\n{v},0.5\n0.5,0.5\n")
        cases.append(f"# loop=1\np,q\n0.5,0.5\n0.5,{v}\n")
        cases.append(f"p,q\n0.5,2\n0.5,{v}\n")
        cases.append(f"p,q\n0.5,{v}\n0.5\n")
        cases.append(f"p\n{v}\n")
    cases += [
        "p,q\n0.5,0.5\n0.5,1.5\n0.5\n",
        "p,q\n0.5\n0.5,nan\n",
        "\n  \np , q\n\n 0.5 , 0.25 \n\t\n1,0\n\n",
        "#loop = 0\np\n0.5\n",
        "# loop=2\np\n0.5\n",
        "# loop=x\np\n0.5\n",
        "# loop=0\n",
        "p\n",
        "p,p\n0.5,0.5\n",
        "p\r\n0.5\r\n0.25\r\n",
        "p,q\n0.5,0.5,\n",
        "",
        "  \n",
    ]
    return cases


#: sha256 of the outcomes of ``json_ingest_cases`` and ``csv_ingest_cases``,
#: taken before ``Trace`` validated values in bulk and before the loaders
#: stopped copying rows; the JSON one re-taken when JSON string and boolean
#: cells began to be refused.
JSON_INGEST_DIGEST = "5f34067f1ac11e5244a5def56e6c0529c7e601b9dce0cacf668b87bfb06a0f7e"
CSV_INGEST_DIGEST = "b55d0878602d66aa95cee9f887baaa3ccf7f592d56223af340290244a7e317fe"


class TestIngestGolden:
    def test_json_outcomes(self):
        lines = [f"{text}: {load_outcome(trace_from_json, text)}" for text in json_ingest_cases()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == JSON_INGEST_DIGEST

    def test_csv_outcomes(self):
        lines = [f"{text!r}: {load_outcome(trace_from_csv, text)}" for text in csv_ingest_cases()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CSV_INGEST_DIGEST

    @pytest.mark.parametrize(
        "states, message",
        [
            ('[[true, "0.5"], [false, -0.0]]', "truth degree True is not a number"),
            ('[[0.5, "0.5"]]', "truth degree '0.5' is not a number"),
            ('[[0.5, false], [0.5]]', "truth degree False is not a number"),
            ('[[2, "0.5"]]', "truth degree 2.0 outside [0, 1]"),  # the first bad cell
            ('[[null, true]]', "truth degree None is not a number"),
        ],
    )
    def test_json_booleans_and_numeric_strings_are_refused(self, states, message):
        with pytest.raises(ValidationError) as exc:
            trace_from_json(f'{{"atoms": ["p", "q"], "states": {states}}}')
        assert str(exc.value) == message

    def test_json_negative_zero_loads(self):
        trace = trace_from_json('{"atoms": ["p", "q"], "states": [[1, 0.5], [0, -0.0]]}')
        assert trace.states == ((1.0, 0.5), (0.0, 0.0))
        assert str(trace.states[1][1]) == "-0.0"

    def test_csv_cells_parse_like_float(self):
        trace = trace_from_csv("p,q\n 0.5 ,\t1\n-0.0, 1e-3\n")
        assert trace.states == ((0.5, 1.0), (0.0, 0.001))
        assert str(trace.states[1][0]) == "-0.0"

    def test_bad_csv_value_names_its_row(self):
        with pytest.raises(ValidationError) as exc:
            trace_from_csv("p,q\n0.5,2\n 0.5 , x \n")
        assert str(exc.value) == "bad CSV value in row '0.5 , x'"


#: Rows of the chunk-boundary traces: two whole chunks, and three rows more.
N_ROWS = 2 * _CHUNK + 3
#: A row in each chunk, the last of the trace's last.
SECOND_CHUNK_ROW, LAST_CHUNK_ROW = _CHUNK + 5, N_ROWS - 1


def boundary_cells(changes) -> list[list[str]]:
    """N_ROWS rows of two cells as text, with ``changes`` ({(row, column): text,
    or None to drop the cell}) applied."""
    rows = [[repr((i % 9) / 8), repr((i * 5 % 7) / 6)] for i in range(N_ROWS)]
    for (i, k), cell in sorted(changes.items(), reverse=True):
        if cell is None:
            del rows[i][k]
        else:
            rows[i][k] = cell
    return rows


def boundary_json(rows) -> str:
    return json.dumps({"atoms": ["p", "q"], "states": "@"}).replace(
        '"@"', "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    )


def boundary_csv(rows) -> str:
    return "p,q\n" + "".join(",".join(row) + "\n" for row in rows)


def walk_outcome(rows, cell=degree):
    """What a per-value walk in row-major order gives: the states, built
    by ``cell`` (``degree()`` by default) one cell at a time, or the message
    of the first bad cell, and past every cell, of the first short row."""
    try:
        states = tuple(tuple(map(cell, row)) for row in rows)
    except ValidationError as exc:
        return str(exc)
    for i, row in enumerate(states):
        if len(row) != 2:
            return f"state {i} has {len(row)} entries for 2 atoms"
    return states


def json_walk(rows):
    def cell(v):
        if type(v) in (str, bool):
            raise ValidationError(f"truth degree {v!r} is not a number")
        return degree(v)

    return walk_outcome([json.loads("[" + ", ".join(row) + "]") for row in rows], cell)


def csv_walk(rows):
    values = []
    for row in rows:
        try:
            values.append(tuple(map(float, row)))
        except ValueError:
            return f"bad CSV value in row {','.join(row)!r}"
    return walk_outcome(values)


BOUNDARY_FORMATS = [
    pytest.param(trace_from_json, boundary_json, json_walk, id="json"),
    pytest.param(trace_from_csv, boundary_csv, csv_walk, id="csv"),
]


def boundary_outcome(load, text):
    try:
        return load(text).states
    except ValidationError as exc:
        return str(exc)


class TestChunkBoundaries:
    """Loads that span three chunks, the last of three rows: each names the
    bad cell, or builds the states, that a per-value walk does."""

    @pytest.mark.parametrize("load, encode, walk", BOUNDARY_FORMATS)
    @pytest.mark.parametrize(
        "json_cell, csv_cell",
        [('"x"', "x"), ("true", "True"), ("NaN", "nan"), ("1.5", "1.5"),
         ("-1e-300", "-1e-300"), (None, None)],
        ids=["string", "bool", "nan", "1.5", "-1e-300", "short-row"],
    )
    def test_only_bad_cell_in_the_last_chunk(self, load, encode, walk, json_cell, csv_cell):
        cell = json_cell if encode is boundary_json else csv_cell
        rows = boundary_cells({(LAST_CHUNK_ROW, 1): cell})
        message = walk(rows)
        assert isinstance(message, str)  # the walk finds the bad cell
        assert boundary_outcome(load, encode(rows)) == message

    @pytest.mark.parametrize("load, encode, walk", BOUNDARY_FORMATS)
    @pytest.mark.parametrize(
        "first, second",
        [("1.5", "-1e-300"), ("-1e-300", "1.5"), ("1.5", "x"), ("x", "1.5"),
         (None, "1.5"), ("1.5", None)],
        ids=["1.5-tiny", "tiny-1.5", "1.5-string", "string-1.5", "short-row-1.5", "1.5-short-row"],
    )
    def test_the_first_of_two_bad_cells_is_named(self, load, encode, walk, first, second):
        # a short row is named only once every cell has passed
        spell = (lambda c: c if c != "x" else '"x"') if encode is boundary_json else str
        changes = {(SECOND_CHUNK_ROW, 0): first, (LAST_CHUNK_ROW, 1): second}
        rows = boundary_cells({at: c if c is None else spell(c) for at, c in changes.items()})
        message = walk(rows)
        assert isinstance(message, str)
        assert boundary_outcome(load, encode(rows)) == message

    @pytest.mark.parametrize("load, encode, walk", BOUNDARY_FORMATS)
    def test_negative_zero_and_integers_in_later_chunks(self, load, encode, walk):
        rows = boundary_cells({(SECOND_CHUNK_ROW, 1): "-0.0", (LAST_CHUNK_ROW, 0): "1",
                               (LAST_CHUNK_ROW, 1): "0"})
        states = boundary_outcome(load, encode(rows))
        assert states == walk(rows)
        assert math.copysign(1.0, states[SECOND_CHUNK_ROW][1]) == -1.0
        assert states[LAST_CHUNK_ROW] == (1.0, 0.0)
        assert {type(v) for row in states for v in row} == {float}

    @pytest.mark.parametrize("load, encode, walk", BOUNDARY_FORMATS)
    def test_a_clean_load_is_the_walk(self, load, encode, walk):
        rows = boundary_cells({})
        assert boundary_outcome(load, encode(rows)) == walk(rows)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "load, text",
    [
        (trace_from_json, '{"atoms": ["p"], "states": [[0.5]]}'),
        (trace_from_json, '{"atoms": ["p"], "states": [[1.5]]}'),
        (trace_from_csv, "p\n0.5\n"),
        (trace_from_csv, "p\nx\n"),
    ],
)
def test_loading_leaves_the_collector_as_it_was(load, text, enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        try:
            load(text)
        except ValidationError:
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("load, text", [
    (trace_from_json, '{"atoms": ["p", "q"], "states": [' + ", ".join(["[0.5, 0.25]"] * 5000) + "]}"),
    (trace_from_csv, "p,q\n" + "0.5,0.25\n" * 5000),
], ids=["json", "csv"])
def test_a_load_leaves_no_young_collection_due(load, text):
    # the first collection after the load would visit every row to free nothing
    was = gc.isenabled()
    gc.enable()
    try:
        trace = load(text)
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert len(trace) == 5000
    finally:
        gc.enable() if was else gc.disable()


def test_a_load_keeps_the_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        trace_from_csv("p\n0.5\n")
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


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

    @pytest.mark.parametrize(
        "bad",
        ["", "tabel:1", "table:", "table:1,x", "gauss:", "gauss:x", "table:0.9,0.5"]
        + ["gauss:\u00b2"],  # a digit int() refuses
    )
    def test_bad_specs(self, bad):
        with pytest.raises(ValidationError):
            parse_eta_spec(bad)

    @pytest.mark.parametrize(
        "width", [str(BOUND_CEILING + 1), "9" * 5000], ids=["ceiling+1", "5000-digits"]
    )
    def test_gauss_width_past_the_ceiling_fails_before_any_table(self, monkeypatch, width):
        built = []
        record = classmethod(lambda cls, w: built.append(w))
        monkeypatch.setattr(AvoidingFunction, "gaussian", record)
        with pytest.raises(ValidationError, match="exceeds the ceiling"):
            parse_eta_spec("gauss:" + width)
        assert built == []
        parse_eta_spec(f"gauss:00{BOUND_CEILING}")
        assert built == [BOUND_CEILING]
