"""A seeded fuzzer over the command line, run in process through ``cli.main``.

Its inputs are mutated and deeply nested formula texts, trace files that
are malformed in one way each, and flag values that argparse accepts but the
program must refuse or handle.  Every case ends in a value or in exactly one
typed stderr line with its exit code; ``eval`` prints the library's value,
and ``rewrite`` prints a formula that parses back.
"""

import contextlib
import io
import json
import random

from fuzzytl import cli
from fuzzytl.checks import random_formula
from fuzzytl.core import Interpretation
from fuzzytl.evaluator import EvalContext, FinitePolicy, evaluate
from fuzzytl.parser import format_formula, parse
from fuzzytl.rewrite import rule_set
from fuzzytl.trace_io import load_trace, parse_eta_spec
from test_parser import _mutants

_CODES = {0, cli._EXIT_BUDGET, cli._EXIT_LAWS} | {code for _, _, code in cli._FAILURES}
_INTERPS = [i.value for i in Interpretation]
#: Avoiding tables of at most 3 entries (a rewrite expands one term per
#: entry), and specs that must be refused.
_ETAS = ("crisp", "gauss:2", "table:1,0.5", "table:1,0.6,0.2")
_BAD_ETAS = (
    "table:", "table:1,x", "table:0.5", "table:1,1.5", "table:1,nan",
    "gauss:x", "gauss:-1", "gauss:1000001", "cubic:3",
)
_TARGETS = (*(f"rule:{name}" for name in rule_set(parse_eta_spec("crisp"))), "rule:no-such", "lowered")
#: One defect per file.
_BAD_TRACES = {
    "bin.json": b"\xff\xfe\x00bad",
    "nan.json": b'{"atoms": ["p", "q"], "states": [[NaN, 0.5]]}',
    "ragged.json": b'{"atoms": ["p", "q"], "states": [[0.1, 0.5], [0.2]]}',
    "huge-int.json": b'{"atoms": ["p", "q"], "states": [[%d, 0.5]]}' % 10**399,
    "str-degree.json": b'{"atoms": ["p", "q"], "states": [["0.5", 0.5]]}',
    "bool-degree.json": b'{"atoms": ["p", "q"], "states": [[true, false]]}',
    "loop-past.json": b'{"atoms": ["p", "q"], "states": [[0.1, 0.5], [0.2, 0.3]], "loop": 2}',
    "loop-negative.json": b'{"atoms": ["p", "q"], "states": [[0.1, 0.5]], "loop": -1}',
    "loop-bool.json": b'{"atoms": ["p", "q"], "states": [[0.1, 0.5]], "loop": true}',
    "empty.json": b"",
    "nan.csv": b"p,q\nnan,0.5\n",
    "ragged.csv": b"p,q\n0.1,0.5\n0.2\n",
    "loop-past.csv": b"# loop=5\np,q\n0.1,0.5\n",
}
_DEEP = ("!" * 1500 + "p", "(" * 1200 + "q" + ")" * 1200, "X[3] " * 400 + "p")


def _either(rng, good, bad):
    return rng.choice(good if rng.random() < 0.75 else bad)


def _traces(rng, tmp_path):
    """Path -> length for seeded finite and lasso traces over p and q, as
    JSON and CSV; then path -> None for each malformed file."""
    good, bad = {}, {}
    for i in range(6):
        n = rng.randint(1, 5)
        rows = [[round(rng.random(), 3) for _ in "pq"] for _ in range(n)]
        loop = rng.randrange(n) if i % 2 else None
        path = tmp_path / f"good{i}.{'csv' if i >= 4 else 'json'}"
        if i >= 4:
            head = "" if loop is None else f"# loop={loop}\n"
            path.write_text(head + "p,q\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        else:
            path.write_text(json.dumps({"atoms": ["p", "q"], "states": rows, "loop": loop}))
        good[str(path)] = n
    for name, data in _BAD_TRACES.items():
        (tmp_path / name).write_bytes(data)
        bad[str(tmp_path / name)] = None
    return good, bad


def _formula(rng):
    if rng.random() < 0.03:
        return rng.choice(_DEEP)
    f = random_formula(rng, atoms=("p", "q", "r"), depth=rng.randint(0, 4), max_bound=3, n_eta=3)
    texts = list(_mutants(rng, format_formula(f)))
    return _either(rng, texts[:1], texts[1:])


def _at(rng, length):
    """A position inside the trace, or one before or past it."""
    n = length or 1
    return str(_either(rng, range(n), (-1, -7, n, n + 3, 10**6 + 1)))


def _argv(rng, traces, tmp_path):
    good, bad = traces
    trace = _either(rng, list(good), list(bad))
    length = good.get(trace)
    kind = rng.random()
    if kind < 0.6:
        argv = ["eval", "--formula", _formula(rng), "--trace", trace, "--interp", rng.choice(_INTERPS),
                "--eta", _either(rng, _ETAS, _BAD_ETAS), "--at", _at(rng, length),
                "--finite-policy", rng.choice(("strict", "pad-zero")), "--output", rng.choice(("text", "json"))]
    elif kind < 0.9:
        argv = ["rewrite", "--formula", _formula(rng), "--interp", rng.choice(_INTERPS),
                "--target", _either(rng, ["adequate"], _TARGETS), "--eta", _either(rng, _ETAS, _BAD_ETAS),
                "--budget", str(_either(rng, (8, 100_000), (0, -3, 1)))]
        if rng.random() < 0.3:
            argv += ["--verify", trace, "--at", _at(rng, length)]
    elif kind < 0.95:
        argv = ["check", "--suite", rng.choice([*cli._SUITE_NAMES, "all"]),
                "--cases", str(rng.choice((0, -1, -50, 1))), "--seed", str(rng.randint(0, 99))]
    else:
        out = rng.choice(("day.json", "day.csv", "no/such/dir/day.json"))
        argv = ["gen-demo", "--minutes", str(rng.choice((0, -2, 1, 3))), "--out", str(tmp_path / out)]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{argv!r:.300} raised {exc!r}") from exc
    return code, out.getvalue(), err.getvalue()


def _library_value(argv):
    """What ``eval`` must print for ``argv``, from the library in process."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    policy = FinitePolicy.STRICT if opts["--finite-policy"] == "strict" else FinitePolicy.PAD_ZERO
    ctx = EvalContext(load_trace(opts["--trace"]), Interpretation(opts["--interp"]),
                      parse_eta_spec(opts["--eta"]), policy)
    return evaluate(ctx, parse(opts["--formula"]), int(opts["--at"])), opts["--output"]


def test_cli_cases_end_in_a_value_or_one_typed_line(tmp_path):
    rng = random.Random(2024)
    traces = _traces(rng, tmp_path)
    codes = set()
    for _ in range(1000):
        argv = _argv(rng, traces, tmp_path)
        code, out, err = _run(argv)
        where = f"{argv!r:.300}: exit {code}, stderr {err!r:.300}"
        assert code in _CODES, where
        codes.add(code)
        if argv[0] == "rewrite" and int(argv[argv.index("--budget") + 1]) <= 0:
            assert code == cli._EXIT_VALIDATION and err.startswith("validation error: --budget"), where
        loaded = {value for flag, value in zip(argv, argv[1:]) if flag in ("--trace", "--verify")}
        if not loaded.isdisjoint(traces[1]):  # a malformed file never loads
            assert code, where
        if code:
            assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, where
            continue
        assert err == "", where
        if argv[0] == "eval":
            result, output = _library_value(argv)
            if output == "json":
                doc = json.loads(out)
                assert (doc["value"], doc["exactness"]) == (result.value, result.exactness.value), where
            else:
                assert out == f"{result.value!r}  {result.exactness.value}\n", where
        elif argv[0] == "rewrite":
            parse(out.splitlines()[0])
    # the seed reaches a value and every failure kind but a law failure
    assert codes == _CODES - {cli._EXIT_LAWS}
