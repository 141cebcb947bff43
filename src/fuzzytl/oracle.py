"""Slow reference implementations used by tests and the check command.

Nothing here is clever on purpose: subset enumeration, literal max formulas,
bracketed limits, and a direct boolean evaluator for crisp traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import scale
from .core import (
    OPERATORS,
    AlmostAlways,
    AlmostAlwaysB,
    AlmostUntil,
    AlmostUntilB,
    Always,
    AlwaysB,
    And,
    Atom,
    Bot,
    Eventually,
    EventuallyB,
    Formula,
    Implies,
    Lasts,
    Next,
    Not,
    Or,
    Soon,
    Top,
    Trace,
    TruthDegree,
    Until,
    UntilB,
    WeakAnd,
    WeakOr,
    Within,
    children,
)
from .errors import NoConvergence, NotALasso, NotCrisp, WindowTooLarge
from .evaluator import EvalContext, evaluate

_ENUMERATION_GUARD = 20


@dataclass(frozen=True)
class CrispVerdict:
    value: bool


def oracle_almost_always(ctx: EvalContext, phi: Formula, pos: int, t: int) -> TruthDegree:
    """Bounded almost-always by literal enumeration of every avoidance subset."""
    if t > _ENUMERATION_GUARD:
        raise WindowTooLarge(f"enumeration oracle capped at t <= {_ENUMERATION_GUARD}")
    eta = ctx.eta
    tnorm = ctx.ops.tnorm
    values = [evaluate(ctx, phi, pos + d).value for d in range(t + 1)]
    best = None
    for j in range(min(t, eta.n_eta - 1) + 1):
        weight = eta.lookup(j)
        for dropped in itertools.combinations(range(t + 1), j):
            skip = set(dropped)
            acc = None
            for p, v in enumerate(values):
                if p in skip:
                    continue
                acc = v if acc is None else tnorm(acc, v)
            cand = scale(acc, weight)
            if best is None or cand > best:
                best = cand
    return best


def oracle_almost_until(
    ctx: EvalContext, left: Formula, right: Formula, pos: int, t: int
) -> TruthDegree:
    """Bounded almost-until straight from its defining max formula."""
    if t > _ENUMERATION_GUARD:
        raise WindowTooLarge(f"enumeration oracle capped at t <= {_ENUMERATION_GUARD}")
    tnorm = ctx.ops.tnorm
    best = evaluate(ctx, right, pos).value
    for k in range(1, t + 1):
        relaxed = oracle_almost_always(ctx, left, pos, k - 1)
        rv = evaluate(ctx, right, pos + k).value
        cand = tnorm(relaxed, rv)
        if cand > best:
            best = cand
    return best


_PINNED_AT = {
    Eventually: 1.0,  # non-decreasing, capped at 1
    Until: 1.0,
    AlmostUntil: 1.0,
    Always: 0.0,  # non-increasing, floored at 0
}

_BRACKET_BUDGET = 64


def oracle_limit(ctx: EvalContext, f: Formula, pos: int, epsilon: float) -> TruthDegree:
    """Limit of an unbounded operator by evaluating growing bounded windows.

    Horizons grow by one full loop per bracket; returns once two successive
    brackets differ by less than ``epsilon`` or a monotone head hits its
    extreme value.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not ctx.trace.is_lasso:
        raise NotALasso("limit brackets need a lasso trace")
    spec = OPERATORS.get(type(f))
    if spec is None or not spec.unbounded:
        raise TypeError(f"{type(f).__name__} is not an unbounded operator")
    kids = children(f)
    start = ctx.trace.resolve(pos)
    rel_prefix = max(0, ctx.trace.loop_start - start)
    span = ctx.trace.loop_length
    pinned = _PINNED_AT.get(type(f))
    previous = None
    for k in range(1, _BRACKET_BUDGET + 1):
        t = rel_prefix + k * span
        current = evaluate(ctx, spec.twin(t, *kids), start).value
        if pinned is not None and current == pinned:
            return current
        if previous is not None and abs(current - previous) < epsilon:
            return current
        previous = current
    raise NoConvergence(
        f"no convergence after {_BRACKET_BUDGET} brackets (last {previous!r})",
        last_value=previous,
    )


# ---------------------------------------------------------------------------
# Crisp boolean evaluation
# ---------------------------------------------------------------------------


def _require_crisp(trace: Trace) -> None:
    for i, row in enumerate(trace.states):
        for name, v in zip(trace.atoms, row):
            if v != 0.0 and v != 1.0:
                raise NotCrisp(f"atom {name!r} has degree {v!r} at state {i}")


def _unbounded_scan(trace: Trace, pos: int) -> range:
    if trace.loop_start is None:
        raise NotALasso("unbounded operators need a lasso trace")
    start = trace.resolve(pos)
    rel_prefix = max(0, trace.loop_start - start)
    return range(rel_prefix + trace.loop_length)


def _ltl(trace: Trace, f: Formula, pos: int) -> bool:
    if isinstance(f, Atom):
        return trace.at(pos, f.name) == 1.0
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _ltl(trace, f.arg, pos)
    if isinstance(f, (And, WeakAnd)):
        return _ltl(trace, f.left, pos) and _ltl(trace, f.right, pos)
    if isinstance(f, (Or, WeakOr)):
        return _ltl(trace, f.left, pos) or _ltl(trace, f.right, pos)
    if isinstance(f, Implies):
        return (not _ltl(trace, f.left, pos)) or _ltl(trace, f.right, pos)
    if isinstance(f, (Next, Soon)):  # soon collapses to next once eta(1) = 0
        return _ltl(trace, f.arg, pos + 1)
    if isinstance(f, (EventuallyB, Within)):
        return any(_ltl(trace, f.arg, pos + d) for d in range(f.bound + 1))
    if isinstance(f, (AlwaysB, AlmostAlwaysB, Lasts)):
        return all(_ltl(trace, f.arg, pos + d) for d in range(f.bound + 1))
    if isinstance(f, (UntilB, AlmostUntilB)):
        return any(
            _ltl(trace, f.right, pos + k)
            and all(_ltl(trace, f.left, pos + h) for h in range(k))
            for k in range(f.bound + 1)
        )
    if isinstance(f, Eventually):
        return any(_ltl(trace, f.arg, pos + d) for d in _unbounded_scan(trace, pos))
    if isinstance(f, (Always, AlmostAlways)):
        return all(_ltl(trace, f.arg, pos + d) for d in _unbounded_scan(trace, pos))
    if isinstance(f, (Until, AlmostUntil)):
        return any(
            _ltl(trace, f.right, pos + k)
            and all(_ltl(trace, f.left, pos + h) for h in range(k))
            for k in _unbounded_scan(trace, pos)
        )
    raise ValueError(f"{type(f).__name__} has no crisp counterpart")


def ltl_evaluate(trace: Trace, f: Formula, pos: int = 0) -> CrispVerdict:
    """Classical boolean semantics on a crisp trace; no fuzzy machinery."""
    _require_crisp(trace)
    return CrispVerdict(_ltl(trace, f, pos))
