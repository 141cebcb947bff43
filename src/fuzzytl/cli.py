"""Command line front end.

Subcommands raise their errors; ``main`` alone prints one stderr line
``<kind>: <message>`` and exits with the kind's code, read from ``_FAILURES``:
1 syntax error, 2 validation error (a trace, eta spec, demo length, case
count or rewrite budget, a bad, unknown or unsound rewrite ``--target``, an
unwritable gen-demo ``--out``), 4 not lowerable, 3 evaluation error (any
other FtlError, a formula nested too deep to evaluate included).  ``budget
exceeded; partial form: ...`` exits 4 and a law-suite failure 5.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import Interpretation, Trace
from .errors import BudgetExceeded, FtlError, NotLowerable, ParseError, ValidationError
from .evaluator import EvalContext, FinitePolicy, evaluate
from .parser import format_formula, parse
from .trace_io import load_trace, parse_eta_spec, save_trace

_EXIT_OK = 0
_EXIT_PARSE = 1
_EXIT_VALIDATION = 2
_EXIT_EVAL = 3
_EXIT_BUDGET = 4
_EXIT_LAWS = 5

_INTERPS = {i.value: i for i in Interpretation}

#: The canonical avoiding table when none is given: exp(-(n/20)^2) up to 20.
DEFAULT_ETA_SPEC = "gauss:20"

#: ``sorted(checks.SUITES)``, spelled out so that building the argument
#: parser does not import the law suites; a test keeps the two equal.
_SUITE_NAMES = ("chains", "crisp", "lasso", "oracle", "rewrites")


def _add_interp_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--interp",
        choices=sorted(_INTERPS),
        default="zadeh",
        help="interpretation of the connectives (default zadeh)",
    )


def _add_eta_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--eta",
        default=DEFAULT_ETA_SPEC,
        metavar="SPEC",
        help="avoiding table: 'table:v0,v1,...', 'gauss:K', or 'crisp' "
        f"(default {DEFAULT_ETA_SPEC})",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fuzzytl",
        description="Evaluate, rewrite, and law-check fuzzy-time temporal logic formulas.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a formula over a trace")
    ev.add_argument("--formula", required=True)
    ev.add_argument("--trace", required=True, metavar="PATH")
    _add_interp_flag(ev)
    _add_eta_flag(ev)
    ev.add_argument("--at", type=int, default=0, metavar="POS")
    ev.add_argument("--finite-policy", choices=["strict", "pad-zero"], default="strict")
    ev.add_argument("--output", choices=["text", "json"], default="text")

    rw = sub.add_parser("rewrite", help="apply a rewrite rule or lower to an adequate set")
    rw.add_argument("--formula", required=True)
    _add_interp_flag(rw)
    rw.add_argument(
        "--target",
        required=True,
        metavar="TARGET",
        help="'adequate' or 'rule:<name>'",
    )
    rw.add_argument("--budget", type=int, default=100_000)
    _add_eta_flag(rw)
    rw.add_argument("--verify", metavar="TRACE", help="also evaluate both forms on this trace")
    rw.add_argument("--at", type=int, default=0, metavar="POS")

    ck = sub.add_parser("check", help="run the randomized law suites")
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--cases", type=int, default=1000)
    ck.add_argument(
        "--suite",
        choices=[*_SUITE_NAMES, "all"],
        default="all",
    )

    gd = sub.add_parser("gen-demo", help="generate a synthetic smart-grid day trace")
    gd.add_argument("--minutes", type=int, default=1440)
    gd.add_argument("--seed", type=int, default=0)
    gd.add_argument("--out", required=True, metavar="PATH")
    return top


def _load_trace(path: str) -> Trace:
    """The trace at ``path``; an unreadable file is a ValidationError."""
    try:
        return load_trace(path)
    except OSError as exc:
        raise ValidationError(str(exc)) from exc


def cmd_eval(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    trace = _load_trace(args.trace)
    eta = parse_eta_spec(args.eta)
    policy = FinitePolicy.STRICT if args.finite_policy == "strict" else FinitePolicy.PAD_ZERO
    ctx = EvalContext(trace, _INTERPS[args.interp], eta, policy)
    result = evaluate(ctx, formula, args.at)
    if args.output == "json":
        print(
            '{"value": %.17g, "exactness": %s, "formula": %s, "position": %d}'
            % (
                result.value,
                json.dumps(result.exactness.value),
                json.dumps(format_formula(formula)),
                args.at,
            )
        )
    else:
        print(f"{result.value!r}  {result.exactness.value}")
    return _EXIT_OK


def cmd_rewrite(args: argparse.Namespace) -> int:
    if args.budget <= 0:
        raise ValidationError(f"--budget must be at least 1, got {args.budget}")
    from .rewrite import lower_to_adequate, rewrite_once, rule_set

    formula = parse(args.formula)
    interp = _INTERPS[args.interp]
    eta = parse_eta_spec(args.eta)

    if args.target == "adequate":
        rewritten = lower_to_adequate(formula, interp, args.budget, eta)
    elif args.target.startswith("rule:"):
        name = args.target[len("rule:"):]
        rules = rule_set(eta)
        if name not in rules:
            raise ValidationError(f"unknown rule {name!r}; rules: {', '.join(sorted(rules))}")
        rule = rules[name]
        if interp not in rule.applicable_interps:
            allowed = ", ".join(sorted(i.value for i in rule.applicable_interps))
            raise ValidationError(f"rule {name!r} is only sound under: {allowed}")
        rewritten = rewrite_once(formula, rule)
    else:
        raise ValidationError(f"bad --target {args.target!r}; use 'adequate' or 'rule:<name>'")

    print(format_formula(rewritten))
    if args.verify:
        ctx = EvalContext(_load_trace(args.verify), interp, eta, FinitePolicy.PAD_ZERO)
        before = evaluate(ctx, formula, args.at).value
        after = evaluate(ctx, rewritten, args.at).value
        print(f"before: {before!r}")
        print(f"after:  {after!r}")
        print(f"difference: {abs(before - after):.3e}")
    return _EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.cases <= 0:
        raise ValidationError(f"--cases must be at least 1, got {args.cases}")
    from .checks import SUITES

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    total_failures = 0
    for name in names:
        report = SUITES[name](args.seed, args.cases)
        print(f"[{name}]")
        for line in report.lines():
            print(" ", line)
        total_failures += report.failures
    if total_failures:
        print(f"{total_failures} law check(s) failed", file=sys.stderr)
        return _EXIT_LAWS
    return _EXIT_OK


def cmd_gen_demo(args: argparse.Namespace) -> int:
    from .demo import generate_day

    trace = generate_day(args.minutes, args.seed)
    try:
        save_trace(trace, args.out)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out!r}: {exc}") from exc
    print(f"wrote {args.minutes}-state trace to {args.out}")
    return _EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "rewrite": cmd_rewrite,
    "check": cmd_check,
    "gen-demo": cmd_gen_demo,
}


#: Error class -> (stderr prefix, exit code); the first class the error is an
#: instance of wins, so a subclass row comes before FtlError's.
_FAILURES = (
    (ParseError, "syntax error", _EXIT_PARSE),
    (ValidationError, "validation error", _EXIT_VALIDATION),
    (NotLowerable, "not lowerable", _EXIT_BUDGET),
    (FtlError, "evaluation error", _EXIT_EVAL),
)


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded; partial form: {format_formula(exc.partial)}", file=sys.stderr)
        return _EXIT_BUDGET
    except FtlError as exc:
        prefix, code = next((p, c) for cls, p, c in _FAILURES if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
