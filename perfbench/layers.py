"""Per-layer measurements for the traced run, each taken from outside the
program and named after the end-to-end metric it should move:

cli.python_start_s     interpreter floor, not program code
cli.import_s           cli_day_p50_s on cli-ingest
trace_io.load_*_s, core.trace_build_s
                       cli_100k_*_p50_s on cli-ingest; not grid-day or lasso-limits
demo.generate_100k_s   setup_s on cli-ingest
parser.*_nodes_per_s   sweep_s on formula-corpus
rewrite.lower_s.*, rewrite.lowered_nodes.* (exact)
                       sweep_s on formula-corpus
evaluator.op.*         sweep_s on grid-day (microseconds per position, one
                       `evaluate` call per position on the day trace)
evaluator.lasso.*      sweep_s on lasso-limits
evaluator.selection_cmp.* (exact)
                       the AG rows of grid-day under zadeh and godel only
checks.*_s             the developer loop; no end-to-end metric
"""

from __future__ import annotations

import random
from statistics import median

from fuzzytl import (
    ComparisonCounter,
    EvalContext,
    FinitePolicy,
    Interpretation,
    Trace,
    almost_always_fast,
    evaluate,
    format_formula,
    parse,
)
from fuzzytl.checks import SUITES
from fuzzytl.core import node_count
from fuzzytl.demo import generate_day
from fuzzytl.errors import BudgetExceeded, NotLowerable
from fuzzytl.rewrite import lower_to_adequate
from fuzzytl.trace_io import load_trace, parse_eta_spec, save_trace

import corpus
from common import INTERPS, perf, run_python
from workloads import (
    BIG_MINUTES,
    CORPUS_SIZE,
    DAY_MINUTES,
    ETA_SPEC,
    LASSO_LENGTH,
    LASSO_LOOP,
    LASSO_POSITIONS,
    LOWER_BUDGET,
)

#: Operator rows on the day trace at t = 60, eta = gauss:20.
OPS = {
    "F": "F[{t}] a",
    "G": "G[{t}] a",
    "AG": "AG[{t}] a",
    "L": "L[{t}] a",
    "W": "W[{t}] a",
    "S": "S a",
    "U": "a U[{t}] !s",
    "AU": "a AU[{t}] !s",
}
#: Scaling rows for AG and AU: (suffix, t, eta spec); etaN has n_eta = N.
SCALING = (("t15", 15, ETA_SPEC), ("t240", 240, ETA_SPEC), ("eta2", 60, "gauss:1"), ("eta101", 60, "gauss:100"))
CONNECTIVES = "(a & p) | (a && !p) -> (s || d)"
LASSO_OPS = {"F": "F p", "G": "G a", "AG": "AG a", "U": "s U p", "AU": "s AU a"}
SELECTION = ((1000, "gauss:4"), (1000, "gauss:19"), (100_000, "gauss:4"), (100_000, "gauss:19"))
#: Law-suite case counts, fixed with seed 0 so each suite takes about a second.
CHECK_SEED = 0
CHECK_CASES = {"chains": 40, "oracle": 1000, "crisp": 200, "rewrites": 40, "lasso": 200}
#: Corpus formulas lowered for the rewrite rows.
LOWER_SAMPLE = 300
#: An operator row samples positions until this many seconds, at least 3 and at most 20.
OP_BUDGET_S = 0.2


def _per_position_us(tr, ctx, f, positions) -> float:
    """Median microseconds of one `evaluate` call, over a budgeted sample."""
    times = []
    spent = 0.0
    for pos in positions:
        with tr.span("evaluate", "evaluator"):
            t0 = perf()
            evaluate(ctx, f, pos)
            dt = perf() - t0
        times.append(dt)
        spent += dt
        if len(times) >= 3 and spent >= OP_BUDGET_S:
            break
    return median(times) * 1e6


def _repeat(tr, name, module, fn, reps=3):
    times = []
    for _ in range(reps):
        with tr.span(name, module):
            t0 = perf()
            result = fn()
            times.append(perf() - t0)
    return median(times), result


def measure(seed: int, workdir, tr) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """(metric -> (value, unit), law-suite failures)."""
    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    rng = random.Random(f"layers/{seed}")

    # -- cli ---------------------------------------------------------------
    starts, imports = [], []
    for _ in range(5):
        with tr.span("python -c pass", "cli"):
            starts.append(run_python("pass")[0])
        with tr.span("import fuzzytl.cli", "cli"):
            code = "import time; t = time.perf_counter(); import fuzzytl.cli; print(time.perf_counter() - t)"
            imports.append(float(run_python(code)[1].stdout))
    m["cli.python_start_s"] = (median(starts), "s")
    m["cli.import_s"] = (median(imports), "s")

    # -- demo, trace_io, core ----------------------------------------------
    gen_s, big = _repeat(tr, "generate_day", "demo", lambda: generate_day(BIG_MINUTES, seed))
    m["demo.generate_100k_s"] = (gen_s, "s")
    paths = {kind: workdir / f"layers-big.{kind}" for kind in ("json", "csv")}
    for path in paths.values():
        with tr.span("save_trace", "trace_io"):
            save_trace(big, path)
    for kind, path in paths.items():
        m[f"trace_io.load_{kind}_s"] = (_repeat(tr, "load_trace", "trace_io", lambda: load_trace(path))[0], "s")
    rows = big.states
    m["core.trace_build_s"] = (_repeat(tr, "Trace", "core", lambda: Trace(big.atoms, rows))[0], "s")

    # -- parser and rewrite on the corpus ------------------------------------
    crng = random.Random(seed)
    cases = [corpus.make_case(crng, i) for i in range(CORPUS_SIZE)]
    nodes = sum(node_count(case[0]) for case in cases)
    with tr.span("parse", "parser"):
        t0 = perf()
        parsed = [parse(case[1]) for case in cases]
        parse_s = perf() - t0
    with tr.span("format_formula", "parser"):
        t0 = perf()
        for f in parsed:
            format_formula(f)
        format_s = perf() - t0
    m["parser.parse_nodes_per_s"] = (nodes / parse_s, "nodes/s")
    m["parser.format_nodes_per_s"] = (nodes / format_s, "nodes/s")
    etas = {spec: parse_eta_spec(spec) for spec in corpus.ETA_SPECS}
    for interp in INTERPS:
        total_s, lowered_nodes = 0.0, 0
        for f, case in zip(parsed[:LOWER_SAMPLE], cases):
            with tr.span("lower_to_adequate", "rewrite"):
                t0 = perf()
                try:
                    lowered_nodes += node_count(
                        lower_to_adequate(f, Interpretation(interp), LOWER_BUDGET, etas[case[4]])
                    )
                except (BudgetExceeded, NotLowerable):
                    pass
                total_s += perf() - t0
        m[f"rewrite.lower_s.{interp}"] = (total_s, "s")
        m[f"rewrite.lowered_nodes.{interp}"] = (lowered_nodes, "count")

    # -- evaluator: operators on the day -----------------------------------
    day = generate_day(DAY_MINUTES, seed)
    positions = [rng.randrange(DAY_MINUTES - 300) for _ in range(200)]

    def ctx_for(interp, spec=ETA_SPEC):
        return EvalContext(day, Interpretation(interp), parse_eta_spec(spec), FinitePolicy.PAD_ZERO)

    for interp in INTERPS:
        ctx = ctx_for(interp)
        for op, text in OPS.items():
            f = parse(text.format(t=60))
            m[f"evaluator.op.{op}.{interp}_us"] = (_per_position_us(tr, ctx, f, positions[:20]), "us")
        for op in ("AG", "AU"):
            for suffix, t, spec in SCALING:
                f = parse(OPS[op].format(t=t))
                us = _per_position_us(tr, ctx_for(interp, spec), f, positions[:20])
                m[f"evaluator.op.{op}.{interp}.{suffix}_us"] = (us, "us")
        m[f"evaluator.op.conn.{interp}_us"] = (_per_position_us(tr, ctx, parse(CONNECTIVES), positions), "us")

    # -- evaluator: lasso limits -------------------------------------------
    lasso = Trace(day.atoms, day.states[:LASSO_LENGTH], LASSO_LOOP)
    for interp in INTERPS:
        ctx = EvalContext(lasso, Interpretation(interp), parse_eta_spec(ETA_SPEC))
        for op, text in LASSO_OPS.items():
            us = _per_position_us(tr, ctx, parse(text), LASSO_POSITIONS)
            m[f"evaluator.lasso.{op}.{interp}_us"] = (us, "us")

    # -- evaluator: selection comparisons (exact) ----------------------------
    for t, spec in SELECTION:
        ctx = EvalContext(big, Interpretation.ZADEH, parse_eta_spec(spec), FinitePolicy.PAD_ZERO)
        counter = ComparisonCounter()
        with tr.span("almost_always_fast", "evaluator"):
            almost_always_fast(ctx, parse("a"), 0, t, counter)
        n_eta = ctx.eta.n_eta
        m[f"evaluator.selection_cmp.t{t}.eta{n_eta}"] = (counter.count, "count")

    # -- checks --------------------------------------------------------------
    for name, cases_n in CHECK_CASES.items():
        with tr.span(f"check {name}", "checks"):
            t0 = perf()
            report = SUITES[name](CHECK_SEED, cases_n)
            m[f"checks.{name}_s"] = (perf() - t0, "s")
        if report.failures:
            problems.append(f"law suite {name}: {report.failures} failed check(s)")
    return m, problems
