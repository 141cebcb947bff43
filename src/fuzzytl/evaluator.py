"""Recursive truth-degree evaluation over finite and lasso traces.

Bounded operators evaluate their window directly; unbounded operators reach
their exact limit on lasso traces and fall back to the largest window that
fits on finite traces, tagging the result with a bound direction.

One ``evaluate`` call keeps a value column per subformula it touches, so a
window reads its child's values as one list slice once they are computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress, islice
from typing import Optional

from . import algebra
from .algebra import ConnectiveOps, scale
from .core import (
    ETA_ATOM_PREFIX,
    OPERATORS,
    AlmostAlways,
    AlmostUntil,
    Always,
    And,
    Atom,
    AvoidingFunction,
    Bot,
    Eventually,
    Formula,
    Implies,
    Interpretation,
    Lasts,
    Next,
    Not,
    Or,
    Scale,
    Soon,
    Top,
    TruthDegree,
    Trace,
    Until,
    WeakAnd,
    WeakOr,
    Within,
)
from .errors import (
    HorizonExceedsTrace,
    NotALasso,
    PositionOutOfRange,
    ScaleIndexOutOfRange,
)

_IDEMPOTENT = frozenset({Interpretation.ZADEH, Interpretation.GODEL})


class FinitePolicy(Enum):
    """What to do when evaluation walks past the end of a finite trace."""

    STRICT = "strict"
    PAD_ZERO = "pad-zero"


class Exactness(Enum):
    EXACT = "Exact"
    LOWER_BOUND = "LowerBound"
    UPPER_BOUND = "UpperBound"
    APPROXIMATE = "Approximate"


_EXACT = Exactness.EXACT
_LOWER = Exactness.LOWER_BOUND
_UPPER = Exactness.UPPER_BOUND
_APPROX = Exactness.APPROXIMATE


def _combine(a: Exactness, b: Exactness) -> Exactness:
    """Join two bound directions under a monotone-increasing combination."""
    if a is _EXACT:
        return b
    if b is _EXACT:
        return a
    if a is b:
        return a
    return _APPROX


def _flip(e: Exactness) -> Exactness:
    if e is _LOWER:
        return _UPPER
    if e is _UPPER:
        return _LOWER
    return e


#: Interpretation -> binary connective class -> its operation.  && and || are
#: the exact lattice min and max; algebra.weak_and and weak_or reach them
#: through the residuum, which rounds.
_BINARY = {
    interp: {And: ops.tnorm, Or: ops.tconorm, Implies: ops.implies, WeakAnd: min, WeakOr: max}
    for interp, ops in ((i, algebra.ops_for(i)) for i in Interpretation)
}


@dataclass(frozen=True)
class EvalContext:
    """Everything one evaluation needs; immutable, shareable."""

    trace: Trace
    interp: Interpretation
    eta: AvoidingFunction
    finite_policy: FinitePolicy = FinitePolicy.STRICT
    _ops: ConnectiveOps = field(init=False, compare=False, repr=False)
    _binary: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ops", algebra.ops_for(self.interp))
        object.__setattr__(self, "_binary", _BINARY[self.interp])

    @property
    def ops(self) -> ConnectiveOps:
        return self._ops


@dataclass(frozen=True)
class EvalResult:
    value: TruthDegree
    exactness: Exactness


class ComparisonCounter:
    """Counts value comparisons made by the almost-always selection."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


# ---------------------------------------------------------------------------
# Selection of the smallest window values
# ---------------------------------------------------------------------------


def _insert_sorted(kept: list, entry) -> int:
    """Binary-search ``entry`` into the ascending list ``kept``, after any
    equal entries; returns the number of comparisons made."""
    lo, hi = 0, len(kept)
    n_cmp = 0
    while lo < hi:
        mid = (lo + hi) // 2
        n_cmp += 1
        if entry < kept[mid]:
            hi = mid
        else:
            lo = mid + 1
    kept.insert(lo, entry)
    return n_cmp


def _select_smallest(values, keep: int, counter: Optional[ComparisonCounter]):
    """The ``keep`` smallest (value, position) pairs, ascending.

    Ties resolve to the earliest position.  Maintains a bounded sorted list,
    so each element costs one comparison against the current cutoff plus
    O(log keep) on insertion.
    """
    kept: list[tuple[float, int]] = []
    n_cmp = 0
    for pos, v in enumerate(values):
        entry = (v, pos)
        if len(kept) >= keep:
            n_cmp += 1
            if entry >= kept[-1]:
                continue
        n_cmp += _insert_sorted(kept, entry)
        if len(kept) > keep:
            kept.pop()
    if counter is not None:
        counter.count += n_cmp
    return kept


#: Connective -> a C-level left fold giving the same bits as folding it in
#: position order: min and max keep the first of equal values, as _minimum
#: and _maximum do, and math.prod multiplies left to right from 1.
_C_FOLDS = {algebra._minimum: min, algebra._maximum: max, algebra._prod_tnorm: math.prod}


def _fold(op, values) -> float:
    """Left fold of ``op`` over non-empty ``values`` in position order."""
    c_fold = _C_FOLDS.get(op)
    if c_fold is not None:
        return c_fold(values)
    return functools.reduce(op, values)


def _almost_always_value(
    interp: Interpretation,
    ops: ConnectiveOps,
    eta: AvoidingFunction,
    values: list[float],
    counter: Optional[ComparisonCounter] = None,
) -> float:
    """max over j <= min(t, n_eta - 1) of eta(j) * (t-norm of the window
    minus its j smallest values); the retained set is never empty."""
    m = len(values)
    j_max = min(m - 1, eta.n_eta - 1)
    kept = _select_smallest(values, j_max + 1, counter)
    best = None
    if interp in _IDEMPOTENT:
        # the window product minus j smallest is just the (j+1)-th smallest
        for j in range(j_max + 1):
            cand = scale(kept[j][0], eta.lookup(j))
            if best is None or cand > best:
                best = cand
            if counter is not None:
                counter.count += 1
    else:
        tnorm = ops.tnorm
        retain = [True] * m
        for j in range(j_max + 1):
            if j:
                retain[kept[j - 1][1]] = False  # drop the j-th smallest too
            cand = scale(_fold(tnorm, compress(values, retain)), eta.lookup(j))
            if best is None or cand > best:
                best = cand
            if counter is not None:
                counter.count += 1
    return best


class _DropBuffer:
    """Almost-always of a window that grows by one value at a time.

    Holds the n_eta smallest values seen so far, ascending (values arrive in
    position order and an equal value goes after those already kept, so ties
    keep the earliest position, as in _select_smallest), and the t-norm fold
    of every value that left them or never entered.  Dropping the j smallest
    retains that fold and kept[j:], so one backward fold over the kept values
    prices every j in O(n_eta).  Unlike _almost_always_value this does not
    fold in window order: the same value under min, equal up to rounding
    under the Archimedean t-norms.
    """

    __slots__ = ("_tnorm", "_weights", "_kept", "_rest")

    def __init__(self, tnorm, eta: AvoidingFunction) -> None:
        self._tnorm = tnorm
        self._weights = eta.table  # eta(j) for every j < n_eta
        self._kept: list[float] = []
        self._rest: Optional[float] = None  # None while no value is outside kept

    def push(self, v: float) -> float:
        """Append ``v`` to the window; returns the window's almost-always value."""
        kept = self._kept
        tnorm = self._tnorm
        weights = self._weights
        if len(kept) == len(weights):
            if v < kept[-1]:
                _insert_sorted(kept, v)
                v = kept.pop()
            self._rest = v if self._rest is None else tnorm(self._rest, v)
        else:
            _insert_sorted(kept, v)
        j = len(kept) - 1
        acc = kept[j] if self._rest is None else tnorm(kept[j], self._rest)
        best = acc * weights[j]
        for j in range(j - 1, -1, -1):
            acc = tnorm(kept[j], acc)
            cand = acc * weights[j]
            if cand > best:
                best = cand
        return best


# ---------------------------------------------------------------------------
# The recursive evaluator
# ---------------------------------------------------------------------------


def _canonical_tail(ctx: EvalContext, pos: int) -> int:
    trace = ctx.trace
    if trace.loop_start is not None:
        return trace.resolve(pos)
    if ctx.finite_policy is FinitePolicy.STRICT:
        raise HorizonExceedsTrace(
            f"position {pos} leaves the {trace._length}-state finite trace "
            "under the strict policy"
        )
    return trace._length  # every padded position is the same all-zero state


class _Columns(dict):
    """The memo of one evaluation: ``id(node)`` -> the node's column.

    A column holds the node's values at positions base, base+1, ... (None
    while not computed), and a sparse dict of the positions whose exactness
    is not Exact.  It starts with at most 64 slots, which covers a short
    trace whole, and grows only as far as the evaluation reads, so a wide
    formula evaluated at one position of a long trace stays small.
    ``base`` is the lowest position the evaluation can read: the evaluated
    position (past a finite trace, its padded tail at len(trace)), or the
    loop start of a lasso if that is lower.

    Keying by ``id`` means a lookup never hashes a subtree.  That is sound
    because the evaluator never builds formula nodes: every key is a node of
    the formula being evaluated, which the caller keeps alive for the whole
    call, so no id is reused while the memo lives.
    """

    __slots__ = ("base", "_first")

    def __init__(self, trace: Trace, pos: int) -> None:
        self.base = min(pos, len(trace) if trace.loop_start is None else trace.loop_start)
        self._first = min(len(trace) + 1 - self.base, 64)

    def __missing__(self, key: int):
        col = self[key] = ([None] * self._first, {})
        return col


def _eval(ctx, f, pos, memo):
    if pos >= ctx.trace._length:
        pos = _canonical_tail(ctx, pos)
    values, inexact = memo[id(f)]
    i = pos - memo.base
    if i < len(values):
        v = values[i]
        if v is not None:
            return v, inexact.get(pos, _EXACT)
    else:
        values.extend([None] * (i + 1 - len(values)))
    v, ex = _HANDLERS[type(f)](ctx, f, pos, memo)
    values[i] = v
    if ex is not _EXACT:
        inexact[pos] = ex
    return v, ex


def _first_missing(arg, start, stop, memo) -> int:
    """The first position in start .. stop-1 where ``arg`` is not yet
    computed, or ``stop``."""
    i = start - memo.base
    known = memo[id(arg)][0][i : i + stop - start]
    return start + (known.index(None) if None in known else len(known))


def _span(ctx, arg, pos, n, memo):
    """The values of ``arg`` at positions pos .. pos+n-1 and their joined
    exactness.

    Missing values are computed in position order, and a span that leaves
    the trace canonicalises each position, so a strict-policy
    HorizonExceedsTrace names the same first position as a position-by-
    position read.  A span inside the trace is one slice of the column.
    """
    stop = pos + n
    if stop > ctx.trace._length:
        out = []
        ex = _EXACT
        for p in range(pos, stop):
            v, cex = _eval(ctx, arg, p, memo)
            out.append(v)
            ex = _combine(ex, cex)
        return out, ex
    for p in range(_first_missing(arg, pos, stop, memo), stop):
        _eval(ctx, arg, p, memo)
    values, inexact = memo[id(arg)]
    i = pos - memo.base
    out = values[i : i + n]
    if not inexact:
        return out, _EXACT
    tags = set(map(inexact.get, range(pos, stop)))
    tags.discard(None)
    return out, functools.reduce(_combine, tags, _EXACT)


def _h_atom(ctx, f, pos, memo):
    name = f.name
    if name.startswith(ETA_ATOM_PREFIX):
        suffix = name[len(ETA_ATOM_PREFIX):]
        if suffix.isdigit():
            return ctx.eta.lookup(int(suffix)), _EXACT
    trace = ctx.trace
    if pos >= trace._length:  # padded region of a finite trace
        return 0.0, _EXACT
    k = trace._index.get(name)
    if k is None:
        return trace.at(pos, name), _EXACT  # delegates the unknown-atom error
    return trace.states[pos][k], _EXACT


def _h_top(ctx, f, pos, memo):
    return 1.0, _EXACT


def _h_bot(ctx, f, pos, memo):
    return 0.0, _EXACT


def _h_not(ctx, f, pos, memo):
    v, ex = _eval(ctx, f.arg, pos, memo)
    return ctx.ops.neg(v), _flip(ex)


def _h_binary(ctx, f, pos, memo):
    lv, lex = _eval(ctx, f.left, pos, memo)
    rv, rex = _eval(ctx, f.right, pos, memo)
    cls = type(f)
    if cls is Implies:  # antitone in its premise
        lex = _flip(lex)
    return ctx._binary[cls](lv, rv), _combine(lex, rex)


def _h_next(ctx, f, pos, memo):
    # unwrap next-chains iteratively so X[k] sugar cannot blow the stack
    steps = 0
    inner = f
    while isinstance(inner, Next):
        steps += 1
        inner = inner.arg
    return _eval(ctx, inner, pos + steps, memo)


def _h_soon(ctx, f, pos, memo):
    eta = ctx.eta
    values, ex = _span(ctx, f.arg, pos + 1, eta.n_eta, memo)
    terms = [scale(v, eta.lookup(d)) for d, v in enumerate(values)]
    return _fold(ctx.ops.tconorm, terms), ex


def _fold_window(ctx, arg, pos, t, memo, op):
    values, ex = _span(ctx, arg, pos, t + 1, memo)
    return _fold(op, values), ex


def _f_window(ctx, f, pos, t, memo):
    return _fold_window(ctx, f.arg, pos, t, memo, ctx.ops.tconorm)


def _g_window(ctx, f, pos, t, memo):
    return _fold_window(ctx, f.arg, pos, t, memo, ctx.ops.tnorm)


def _h_within(ctx, f, pos, memo):
    # within t: satisfied inside the next t instants at full weight, or in the
    # following n_eta - 1 instants at a decreasing penalty
    t = f.bound
    eta = ctx.eta
    values, ex = _span(ctx, f.arg, pos, t + eta.n_eta, memo)
    terms = [scale(v, eta.lookup(d - t)) for d, v in enumerate(values)]
    return _fold(ctx.ops.tconorm, terms), ex


def _h_lasts(ctx, f, pos, memo):
    t = f.bound
    eta = ctx.eta
    # prefix folds give every G over a shorter window in one pass
    values, ex = _span(ctx, f.arg, pos, t + 1, memo)
    prefix = list(accumulate(values, ctx.ops.tnorm))
    best = None
    for j in range(min(t, eta.n_eta - 1) + 1):
        cand = scale(prefix[t - j], eta.lookup(j))
        if best is None or cand > best:
            best = cand
    return best, ex


def _ag_window(ctx, f, pos, t, memo):
    values, ex = _span(ctx, f.arg, pos, t + 1, memo)
    return _almost_always_value(ctx.interp, ctx.ops, ctx.eta, values), ex


def _until_spans(ctx, f, pos, t, memo):
    """The right child's values at pos..pos+t, the left child's at
    pos..pos+t-1, and their joined exactness.

    Missing values inside the trace are computed in the order right(pos),
    left(pos), right(pos+1), ..., so a window whose children fail at
    different positions raises the error a step-by-step scan meets first.
    """
    right, left = f.right, f.left
    stop = min(pos + t, ctx.trace._length)
    first = min(_first_missing(right, pos, stop, memo), _first_missing(left, pos, stop, memo))
    for p in range(first, stop):
        _eval(ctx, right, p, memo)
        _eval(ctx, left, p, memo)
    right_values, rex = _span(ctx, right, pos, t + 1, memo)
    left_values, lex = _span(ctx, left, pos, t, memo)
    return left_values, right_values, _combine(rex, lex)


def _u_window(ctx, f, pos, t, memo):
    tnorm = ctx.ops.tnorm
    left, right, ex = _until_spans(ctx, f, pos, t, memo)
    best = right[0]
    for prefix, rv in zip(accumulate(left, tnorm), islice(right, 1, None)):
        cand = tnorm(prefix, rv)
        if cand > best:
            best = cand
    return best, ex


def _au_window(ctx, f, pos, t, memo):
    tnorm = ctx.ops.tnorm
    left, right, ex = _until_spans(ctx, f, pos, t, memo)
    best = right[0]
    drops = _DropBuffer(tnorm, ctx.eta)
    for relaxed, rv in zip(map(drops.push, left), islice(right, 1, None)):
        cand = tnorm(relaxed, rv)
        if cand > best:
            best = cand
    return best, ex


def _h_scale(ctx, f, pos, memo):
    if not 1 <= f.index < ctx.eta.n_eta:
        raise ScaleIndexOutOfRange(
            f"scaling index {f.index} outside 1..{ctx.eta.n_eta - 1}"
        )
    v, ex = _eval(ctx, f.arg, pos, memo)
    return scale(v, ctx.eta.lookup(f.index)), ex


# -- unbounded operators -----------------------------------------------------


def _largest_window(ctx, pos: int) -> int:
    return max(0, len(ctx.trace) - 1 - pos)


def _suffix_values(ctx, arg, pos, memo):
    """Child values along the suffix: the pre-loop stretch and one period."""
    trace = ctx.trace
    start = trace.resolve(pos)
    ls = trace.loop_start
    prefix = _span(ctx, arg, start, max(0, ls - start), memo)[0]
    loop = _span(ctx, arg, max(start, ls), trace.loop_length, memo)[0]
    return prefix, loop


def _unb_always(ctx, f, pos, memo):
    prefix, loop = _suffix_values(ctx, f.arg, pos, memo)
    if ctx.interp in _IDEMPOTENT:
        return min(prefix + loop)
    if all(v == 1.0 for v in loop):
        return _fold(ctx.ops.tnorm, prefix) if prefix else 1.0
    return 0.0  # any loop value below 1 recurs forever and drives the product to 0


def _unb_eventually(ctx, f, pos, memo):
    prefix, loop = _suffix_values(ctx, f.arg, pos, memo)
    if ctx.interp in _IDEMPOTENT:
        return max(prefix + loop)
    if all(v == 0.0 for v in loop):
        return _fold(ctx.ops.tconorm, prefix) if prefix else 0.0
    return 1.0  # a positive loop value recurs forever and saturates the sum


def _unb_almost_always(ctx, f, pos, memo):
    prefix, loop = _suffix_values(ctx, f.arg, pos, memo)
    eta = ctx.eta
    best = None
    if ctx.interp in _IDEMPOTENT:
        loop_min = min(loop)
        sp = sorted(prefix)
        for j in range(eta.n_eta):
            if j < len(sp):
                gj = sp[j] if sp[j] < loop_min else loop_min
            else:
                gj = loop_min  # loop values recur forever; dropping them is futile
            cand = scale(gj, eta.lookup(j))
            if best is None or cand > best:
                best = cand
        return best
    if all(v == 1.0 for v in loop):
        # dropping the j smallest prefix values retains sp[j:]; folding from
        # the back prices every j with one t-norm
        tnorm = ctx.ops.tnorm
        sp = sorted(prefix)
        best = eta.lookup(len(sp))  # every prefix value dropped; only 1s remain
        gj = None
        for j in range(len(sp) - 1, -1, -1):
            gj = sp[j] if gj is None else tnorm(sp[j], gj)
            cand = scale(gj, eta.lookup(j))
            if cand > best:
                best = cand
        return best
    return 0.0


def _loop_shape(ctx, pos):
    trace = ctx.trace
    start = trace.resolve(pos)
    rel_prefix = max(0, trace.loop_start - start)
    return start, rel_prefix, trace.loop_length


def _unb_until(ctx, f, pos, memo):
    # the running prefix product never increases, so every candidate one full
    # loop later is dominated; scanning the pre-loop stretch plus one period
    # reaches the exact limit
    left, right = f.left, f.right
    tnorm = ctx.ops.tnorm
    start, rel_prefix, span = _loop_shape(ctx, pos)
    best = _eval(ctx, right, start, memo)[0]
    prefix_prod = None
    for k in range(1, rel_prefix + span + 1):
        pv = _eval(ctx, left, start + k - 1, memo)[0]
        prefix_prod = pv if prefix_prod is None else tnorm(prefix_prod, pv)
        if prefix_prod <= best:
            break  # no later candidate can beat the product that caps it
        rv = _eval(ctx, right, start + k, memo)[0]
        cand = tnorm(prefix_prod, rv)
        if cand > best:
            best = cand
    return best


def _unb_almost_until(ctx, f, pos, memo):
    # the same dominance argument: once the window holds n_eta values the j
    # range is fixed and a further value can only lower every retained fold,
    # so the relaxed product never increases and one extra period suffices
    left, right = f.left, f.right
    tnorm = ctx.ops.tnorm
    n_eta = ctx.eta.n_eta
    start, rel_prefix, span = _loop_shape(ctx, pos)
    best = _eval(ctx, right, start, memo)[0]
    drops = _DropBuffer(tnorm, ctx.eta)
    for k in range(1, max(rel_prefix, n_eta) + span + 1):
        relaxed = drops.push(_eval(ctx, left, start + k - 1, memo)[0])
        if k >= n_eta and relaxed <= best:
            break  # no later candidate can beat the relaxed product that caps it
        rv = _eval(ctx, right, start + k, memo)[0]
        cand = tnorm(relaxed, rv)
        if cand > best:
            best = cand
    return best


#: Unbounded class -> (window, exact lasso limit, the tag of a finite trace's
#: largest window).  Almost-always is not monotone in the horizon, so its
#: finite result has no bound direction.
_UNBOUNDED = {
    Eventually: (_f_window, _unb_eventually, _LOWER),
    Always: (_g_window, _unb_always, _UPPER),
    AlmostAlways: (_ag_window, _unb_almost_always, _APPROX),
    Until: (_u_window, _unb_until, _LOWER),
    AlmostUntil: (_au_window, _unb_almost_until, _LOWER),
}
#: Every F/G/AG/U/AU class -> its row above; a bounded class has no limit.
_TEMPORAL = {
    **_UNBOUNDED,
    **{OPERATORS[cls].twin: (window, None, None) for cls, (window, _, _) in _UNBOUNDED.items()},
}


def _h_temporal(ctx, f, pos, memo):
    window, limit, tag = _TEMPORAL[type(f)]
    if limit is None:
        return window(ctx, f, pos, f.bound, memo)
    if ctx.trace.is_lasso:
        return limit(ctx, f, pos, memo), _EXACT
    v, ex = window(ctx, f, pos, _largest_window(ctx, pos), memo)
    return v, _combine(ex, tag)


_HANDLERS = {
    Atom: _h_atom,
    Top: _h_top,
    Bot: _h_bot,
    Not: _h_not,
    Next: _h_next,
    Soon: _h_soon,
    Lasts: _h_lasts,
    Within: _h_within,
    Scale: _h_scale,
    **dict.fromkeys((And, Or, Implies, WeakAnd, WeakOr), _h_binary),
    **dict.fromkeys(_TEMPORAL, _h_temporal),
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def evaluate(ctx: EvalContext, f: Formula, pos: int = 0) -> EvalResult:
    """The truth degree of ``f`` along the trace from position ``pos``."""
    if pos < 0:
        raise PositionOutOfRange(f"negative position {pos}")
    trace = ctx.trace
    if (
        not trace.is_lasso
        and pos >= len(trace)
        and ctx.finite_policy is FinitePolicy.STRICT
    ):
        raise PositionOutOfRange(
            f"position {pos} past the end of a {len(trace)}-state finite trace"
        )
    value, exactness = _eval(ctx, f, pos, _Columns(trace, pos))
    return EvalResult(value, exactness)


def almost_always_fast(
    ctx: EvalContext,
    phi: Formula,
    pos: int,
    t: int,
    counter: Optional[ComparisonCounter] = None,
) -> TruthDegree:
    """Bounded almost-always over the window pos..pos+t.

    One pass collects the child evaluations, a bounded selection finds the
    candidate drop sets, and each avoidance count contributes one weighted
    product; the idempotent interpretations read the product straight off the
    selection.
    """
    if pos < 0:
        raise PositionOutOfRange(f"negative position {pos}")
    values, _ = _span(ctx, phi, pos, t + 1, _Columns(ctx.trace, pos))
    return _almost_always_value(ctx.interp, ctx.ops, ctx.eta, values, counter)


def eval_unbounded_lasso(ctx: EvalContext, f: Formula, pos: int = 0) -> TruthDegree:
    """Exact limit of an unbounded-headed formula on a lasso trace."""
    if not ctx.trace.is_lasso:
        raise NotALasso("unbounded limits need a lasso trace")
    unbounded = _UNBOUNDED.get(type(f))
    if unbounded is None:
        raise TypeError(f"{type(f).__name__} is not an unbounded operator")
    return unbounded[1](ctx, f, pos, _Columns(ctx.trace, pos))
