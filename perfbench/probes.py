"""Robustness probes: inputs the grammar accepts that must end in a value or
a documented `FtlError`, never in a RecursionError or another traceback.

Each probe makes the public calls the matching `fuzzytl` command makes.
"""

from __future__ import annotations

from fuzzytl import EvalContext, FtlError, Interpretation, evaluate, format_formula, parse
from fuzzytl.rewrite import lower_to_adequate
from fuzzytl.trace_io import parse_eta_spec

from common import INTERPS


def _eval_probe(text: str):
    """`fuzzytl eval --formula TEXT --output json` on the day trace."""

    def run(trace):
        f = parse(text)
        ctx = EvalContext(trace, Interpretation.ZADEH, parse_eta_spec("gauss:20"))
        evaluate(ctx, f, 0)
        format_formula(f)

    return run


def _lower_probe(text: str, interp: str):
    """`fuzzytl rewrite --formula TEXT --target adequate --interp I`, up to
    the lowered form."""

    def run(trace):
        lower_to_adequate(parse(text), Interpretation(interp), 100_000, parse_eta_spec("gauss:20"))

    return run


PROBES = {
    "eval X[100000] a": _eval_probe("X[100000] a"),
    "eval 1500 nested !": _eval_probe("!" * 1500 + "a"),
    "eval 1200 nested parentheses": _eval_probe("(" * 1200 + "a" + ")" * 1200),
    **{f"lower F[300] a [{i}]": _lower_probe("F[300] a", i) for i in INTERPS},
}


def run_probes(trace) -> dict[str, str]:
    """Probe name -> "ok", or the name of the exception that escaped."""
    out = {}
    for name, probe in PROBES.items():
        try:
            probe(trace)
            out[name] = "ok"
        except FtlError:
            out[name] = "ok"
        except Exception as exc:  # a crash is the measured outcome
            out[name] = type(exc).__name__
    return out
