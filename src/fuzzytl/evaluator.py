"""Truth-degree evaluation over finite and lasso traces.

Bounded operators evaluate their window directly; unbounded operators reach
their exact limit on lasso traces and fall back to the largest window that
fits on finite traces, tagging the result with a bound direction.

One ``evaluate`` call keeps a value column per subformula it touches.  A
window reads its child as one span of that column, and every missing run of
the span is filled by one call of the child's handler, which computes the
whole run ``[lo, hi)`` at once; a point evaluation is a run of length 1.
A point F or G, and a lasso F, G or AG limit, reads growing spans and stops
once its value is decided; a lasso U or AU limit is the bounded window over
its horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, gt, index, is_not, itemgetter, lt, mul, ne
from typing import Optional

from . import algebra
from .algebra import ConnectiveOps, scale
from .core import (
    OPERATORS,
    AvoidingFunction,
    Formula,
    Interpretation,
    Level,
    TruthDegree,
    Trace,
    eta_atom_index,
)
from .errors import (
    FormulaTooDeep,
    FtlError,
    HorizonExceedsTrace,
    NotALasso,
    ScaleIndexOutOfRange,
    ValidationError,
)

class FinitePolicy(Enum):
    """What to do when evaluation walks past the end of a finite trace."""

    STRICT = "strict"
    PAD_ZERO = "pad-zero"


class Exactness(Enum):
    EXACT = "Exact"
    LOWER_BOUND = "LowerBound"
    UPPER_BOUND = "UpperBound"
    APPROXIMATE = "Approximate"


#: An exactness tag is an int: bit 1 marks a lower bound and bit 2 an upper
#: bound, so a monotone-increasing combination joins two tags by ``|``, and
#: an antitone one swaps the bits first.
_EXACT, _LOWER, _UPPER, _APPROX = range(4)
_FLIPPED = (_EXACT, _UPPER, _LOWER, _APPROX)
_EXACTNESS = tuple(Exactness)  # tag -> its Exactness member


#: Connective -> (C fold, saturated, drops, unit):
#:
#: - C fold: a C-level left fold with the bits of folding in position order,
#:   or None: min and max keep the first of equal values, as _minimum and
#:   _maximum do, and math.prod multiplies left to right from 1.
#: - saturated: the value a fold keeps bit for bit once reached, or None.
#:   min and max never replace a value by an equal one.  The other values are
#:   absorbing elements, which a step gives exactly (0.0 from the Lukasiewicz
#:   t-norm's clamp, 1.0 from the t-conorms') and every later step over
#:   [0, 1] gives again, so a fold of two values or more that holds one is
#:   that literal.  The Product t-norm, operator.mul, has none:
#:   0.0 * -0.0 is -0.0.
#: - drops: when a monotone deque drops its back value for a new one, or
#:   None: only when the new one is strictly better, so the first of equal
#:   values stays in front.
#: - unit: (1.0, k) when a step with 1.0 leaves the fold bit for bit once
#:   its first k values are folded, and a leading 1.0 leaves the next value
#:   when k is 0; else None.  x * 1.0 is x and min(x, 1.0) is x for every x
#:   in [0, 1].  A Lukasiewicz fold's first step gives 0.0 or
#:   fl(fl(a + b) - 1.0), a multiple of 2^-52, as is every later step, and
#:   fl(x + 1.0) - 1.0 is x for such an x; a first step with 1.0 rounds.
#:   The t-conorms' unit 0.0 does not keep a leading -0.0.
_CONNECTIVES = {
    algebra._minimum: (min, 0.0, gt, (1.0, 0)),
    algebra._maximum: (max, 1.0, lt, None),
    algebra._luk_tnorm: (None, 0.0, None, (1.0, 2)),
    algebra._luk_tconorm: (None, 1.0, None, None),
    algebra._prod_tnorm: (math.prod, None, None, (1.0, 0)),
    algebra._prod_tconorm: (None, 1.0, None, None),
}


#: Interpretation -> binary connective class -> its operation, by keyword.
#: && and || are the exact lattice min and max; algebra.weak_and and weak_or
#: reach them through the residuum, which rounds.
_BINARY = {
    interp: {
        spec.cls: {
            "&": ops.tnorm,
            "|": ops.tconorm,
            "->": ops.implies,
            "&&": algebra._minimum,
            "||": algebra._maximum,
        }[spec.keyword]
        for spec in OPERATORS.values()
        if spec.level < Level.UNARY and spec.twin is None
    }
    for interp, ops in ((i, algebra.ops_for(i)) for i in Interpretation)
}


@dataclass(frozen=True)
class EvalContext:
    """Everything one evaluation needs; immutable, shareable.

    A ``trace`` or ``eta`` of another class raises TypeError, and an
    ``interp`` or ``finite_policy`` that is not a member of its enum raises
    ValidationError; a subclass is refused too, so each field costs one test.

    ``_end`` and ``_wrap`` are where reads end and where a read past the end
    wraps to, or None where it raises: a lasso wraps to its loop start, and
    a finite trace under the pad-zero policy ends one position later, at the
    zero state at len(trace), which loops on itself.  The states are not
    copied: _h_atom reads the zero state as 0.0.
    """

    trace: Trace
    interp: Interpretation
    eta: AvoidingFunction
    finite_policy: FinitePolicy = FinitePolicy.STRICT
    ops: ConnectiveOps = field(init=False, compare=False, repr=False)
    _binary: dict = field(init=False, compare=False, repr=False)
    _end: int = field(init=False, compare=False, repr=False)
    _wrap: Optional[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.trace) is not Trace:
            raise TypeError(f"trace must be a Trace, not {type(self.trace).__name__}")
        if type(self.eta) is not AvoidingFunction:
            raise TypeError(f"eta must be an AvoidingFunction, not {type(self.eta).__name__}")
        if type(self.interp) is not Interpretation:
            raise ValidationError(f"interpretation {self.interp!r} is not an Interpretation")
        if type(self.finite_policy) is not FinitePolicy:
            raise ValidationError(f"finite policy {self.finite_policy!r} is not a FinitePolicy")
        end, wrap = self.trace._length, self.trace.loop_start
        if wrap is None and self.finite_policy is FinitePolicy.PAD_ZERO:
            end, wrap = end + 1, end
        object.__setattr__(self, "ops", algebra.ops_for(self.interp))
        object.__setattr__(self, "_binary", _BINARY[self.interp])
        object.__setattr__(self, "_end", end)
        object.__setattr__(self, "_wrap", wrap)


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
# Folds and the smallest window values
# ---------------------------------------------------------------------------


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
        lo, hi = 0, len(kept)  # bisect right: after any equal entries
        while lo < hi:
            mid = (lo + hi) // 2
            n_cmp += 1
            if entry < kept[mid]:
                hi = mid
            else:
                lo = mid + 1
        kept.insert(lo, entry)
        if len(kept) > keep:
            kept.pop()
    if counter is not None:
        counter.count += n_cmp
    return kept


def _fold(op, values) -> float:
    """Left fold of ``op`` over non-empty ``values`` in position order; a
    fold with no C fold stops at its saturated value, an absorbing element."""
    c_fold, absorbing, _, _ = _CONNECTIVES[op]
    if c_fold is not None:
        return c_fold(values)
    it = iter(values)
    acc = next(it)
    for v in it:
        acc = op(acc, v)
        if acc == absorbing:  # a result of op, never a leading -0.0 input
            break
    return acc


def _slide(op, values, n: int, width: int) -> list:
    """The left fold of ``op`` over values[i : i + width] for every i < n.

    min and max slide one monotone deque of positions over the values
    (Lemire, *Streaming Maximum-Minimum Filter*, 2006).  The other folds
    take a window of two values or more that holds their saturated value as
    that literal, and fold each other window, stopping at an absorbing
    element: a Product window whose leaving value is 1.0 is the previous
    window times the entering value, and a Lukasiewicz window folds its
    first two values and then only its values below 1.0 (see _CONNECTIVES).
    """
    if width == 1:
        return values[:n]
    _, saturated, drops, unit = _CONNECTIVES[op]
    if n == 1:
        return [_fold(op, values[:width])]
    out = []
    if drops is not None:
        window: deque = deque()
        for j, v in enumerate(values):
            while window and drops(values[window[-1]], v):
                window.pop()
            window.append(j)
            i = j - width + 1
            if i >= 0:
                if window[0] < i:
                    window.popleft()
                out.append(values[window[0]])
        return out
    if unit == (1.0, 0):  # the Product t-norm
        for i in range(n):
            if i and values[i - 1] == 1.0:
                out.append(op(out[-1], values[i + width - 1]))
            else:
                out.append(_fold(op, values[i : i + width]))
        return out
    hits = list(compress(count(), map(eq, values, repeat(saturated)))) + [len(values)]
    below = list(compress(count(), map(ne, values, repeat(1.0)))) if unit else None
    for i in range(n):
        if hits[bisect_left(hits, i)] < i + width:
            out.append(saturated)
        elif below is None:
            out.append(_fold(op, values[i : i + width]))
        else:
            lead = i + unit[1]
            skip = below[bisect_left(below, lead) : bisect_left(below, i + width)]
            out.append(_fold(op, chain(values[i:lead], map(values.__getitem__, skip))))
    return out


def _drop_estimates(tnorm, weights, values, kept):
    """Bounds on the candidates of _best_drop under the Archimedean t-norms:
    (estimates, top, zeros), or None when no bound applies.

    Candidate j, weights[j] times the positional fold of the r = m - j
    values (of the window's m) that dropping the j smallest retains, lies
    near estimates[j].  A j with estimates[j] < top is strictly below the
    best candidate, which is positive; each j < zeros folds to exactly +0.0.

    Lukasiewicz: the exact fold is max(0, d[j]), where d[j] is 1 less the
    retained deficits 1 - v, that is, the retained values' sum less r - 1.
    A rounded step fl(fl(a + b) - 1.0) is within 2^-53 of a + b - 1, as
    fl(a + b) <= 2 rounds by at most 2^-53 and the subtraction is exact by
    Sterbenz or the step clamps; the clamp is 1-Lipschitz, so the fold is
    within (r - 1) * 2^-53 of max(0, d[j]).  d[j] from math.fsum of the
    window and a running sum of dropped deficits is off by at most
    (2m + j(m + 1)) * 2^-53, and the product with weights[j] and its
    estimate round by 2^-53 each.  So a candidate is within
    ((m + 1)(keep + 2) + 3) * 2^-53 of its estimate; ``slack`` is 8 times
    that.  A j that retains two values or more with d[j] + slack < 0 folds
    to +0.0: had no step clamped, the fold would be within (r - 1) * 2^-53
    of d[j], below zero, so a step clamped to the literal 0.0, which each
    later step keeps.  d[j] rises with j, so these j come first.

    Product: when the window holds z < keep zeros (0.0 or -0.0), they are
    the first z kept values, each j < z retains one and is a zero, and each
    j >= z retains only positive values.  If the product of the positive
    values times the smallest weight is a normal float, so is every partial
    product and candidate, and each multiplication or division rounds by a
    factor within 1 +- 2^-53.  The estimate, math.prod of the positive values
    over the running product of the dropped ones, times weights[j], takes at
    most m + j + 1 such factors or their inverses, and the candidate r <= m;
    so a candidate is within a relative (2m + keep + 1) * 2^-53 of its
    estimate, to first order, and ``rho`` is over 16 times that.  The best
    candidate is then positive, so every j < z falls below ``top``.
    """
    m, keep = len(values), len(kept)
    smallest = [v for v, _ in kept[:-1]]
    if tnorm is algebra._luk_tnorm:
        slack = (m + 1) * (keep + 3) * 2.0**-50
        d = list(accumulate([1.0 - v for v in smallest], initial=math.fsum(values) - (m - 1)))
        estimates = [x * w if x > 0.0 else 0.0 for x, w in zip(d, weights)]
        return estimates, max(estimates) - 2 * slack, min(bisect_left(d, -slack), m - 1)
    # Product
    total, z = math.prod(values), 0
    if not total:  # a zero, or a product that underflows
        positive = list(filter(None, values))  # without 0.0 and -0.0
        total, z = math.prod(positive), m - len(positive)
    if z < keep and total * weights[keep - 1] > 2.0**-1000:
        rho = (m + keep + 2) * 2.0**-48
        dropped = accumulate(smallest[z:], mul, initial=1.0)
        estimates = [0.0] * z + [total / q * w for q, w in zip(dropped, islice(weights, z, None))]
        return estimates, max(estimates) * (1 - 2 * rho), 0
    return None


def _best_drop(tnorm, weights, values, kept, offset: int = 0) -> float:
    """max over j < len(kept) of weights[j] * the t-norm fold of ``values``
    without the positions of kept[:j] (offset by ``offset``), folded in
    position order; the first best j wins.

    Under Lukasiewicz and Product, with three j or more, only the j that
    _drop_estimates cannot rule out are folded, and a j it knows to be +0.0
    is not folded, so the value and its bits are those of folding every j.
    """
    if tnorm is algebra._minimum:
        # the window product minus j smallest is just the (j+1)-th smallest
        return max(map(mul, [v for v, _ in kept], weights))
    # with two candidates the bounds cost about the one fold they can save
    bounds = _drop_estimates(tnorm, weights, values, kept) if len(kept) > 2 else None
    estimates, top, zeros = bounds or (repeat(0.0), 0.0, 0)
    retain = [True] * len(values)
    best = None
    for j, (_, p), w, e in zip(count(), kept, weights, estimates):
        if e >= top:  # j may be the best
            cand = 0.0 if j < zeros else scale(_fold(tnorm, compress(values, retain)), w)
            if best is None or cand > best:
                best = cand
        retain[p - offset] = False  # the next j drops this value too
    return best


def _relaxed_holds(values, tnorm, weights):
    """The almost-always value of each prefix of ``values``, with the
    avoidance weights eta(j), j < n_eta.

    Keeps the n_eta smallest values seen so far, ascending (values arrive in
    position order and an equal value goes after those already kept, so ties
    keep the earliest position, as in _select_smallest), and the t-norm fold
    of every value that left them or never entered.  Dropping the j smallest
    retains that fold and kept[j:], so one backward fold over the kept values
    prices every j in O(n_eta).  Unlike _best_drop this does not fold in
    window order: the same value under min, equal up to rounding under the
    Archimedean t-norms.
    """
    kept = []
    rest = None  # None while no value is outside kept
    for v in values:
        if len(kept) == len(weights):
            if v < kept[-1]:
                insort(kept, v)
                v = kept.pop()
            rest = v if rest is None else tnorm(rest, v)
        else:
            insort(kept, v)
        j = len(kept) - 1
        acc = kept[j] if rest is None else tnorm(kept[j], rest)
        best = acc * weights[j]
        for j in range(j - 1, -1, -1):
            acc = tnorm(kept[j], acc)
            cand = acc * weights[j]
            if cand > best:
                best = cand
        yield best


# ---------------------------------------------------------------------------
# Columns and spans
# ---------------------------------------------------------------------------


class _Columns(dict):
    """The memo of one evaluation: ``id(node)`` -> the node's column.

    A column is a list of the node's values at positions base, base+1, ...
    (None while not computed).  It starts with at most 64 slots, which
    covers a short trace whole, and grows only as far as the evaluation
    reads, so a wide formula evaluated at one position of a long trace stays
    small.  ``base`` is the lowest position the evaluation can read: the
    evaluated position (past a finite trace, the zero state at len(trace)),
    or the loop start of a lasso if that is lower.

    ``runs`` is False while an evaluation is redone one position at a time
    (see _run).  ``cut`` turns True once an unbounded operator is read on a
    finite trace, the one place a value can be inexact (see _exactness).

    Keying by ``id`` means a lookup never hashes a subtree.  That is sound
    because the evaluator never builds formula nodes: every key is a node of
    the formula being evaluated, which the caller keeps alive for the whole
    call, so no id is reused while the memo lives.
    """

    __slots__ = ("base", "_first", "runs", "cut")

    def __init__(self, trace: Trace, pos: int) -> None:
        self.base = min(pos, len(trace) if trace.loop_start is None else trace.loop_start)
        self._first = min(len(trace) + 1 - self.base, 64)
        self.runs = True
        self.cut = False

    def __missing__(self, key: int):
        col = self[key] = [None] * self._first
        return col


def _span(ctx, arg, pos, n, memo):
    """The values of ``arg`` at positions pos .. pos+n-1.

    Each missing run of the column is filled by one handler call, in
    position order.  A span that reaches ``ctx._end`` reads on from
    ``ctx._wrap``, or raises HorizonExceedsTrace naming the first position
    past the end once the positions before it are filled; one that starts
    past the end starts at the position it wraps to, the same suffix.  So
    the values filled, and the error met first, are those of a
    position-by-position read.
    """
    end, wrap = ctx._end, ctx._wrap
    stop = pos + n
    values = memo[id(arg)]
    base = memo.base
    if n == 1 and pos < end:  # a point read
        i = pos - base
        if i >= len(values):
            values.extend([None] * (i + 1 - len(values)))
        if values[i] is None:
            values[i : i + 1] = _HANDLERS[type(arg)](ctx, arg, pos, stop, memo)
        return values[i : i + 1]
    if wrap is not None and pos >= end:
        pos = wrap + (pos - wrap) % (end - wrap)
        stop = pos + n
    fills = ((pos, min(stop, end)),)
    if wrap is not None and pos > wrap:  # the loop before pos, as far as read
        fills += ((wrap, min(pos, wrap + stop - end)),)
    for lo, hi in fills:
        if lo >= hi:
            continue
        j = hi - base
        if len(values) < j:
            values.extend([None] * (j - len(values)))
        missing = values[lo - base : j]
        if None not in missing:
            continue
        handler = _HANDLERS[type(arg)]
        size = len(missing)
        missing.append(None)  # a sentinel, so index(None) always finds one
        i = missing.index(None)
        while i < size:
            if not memo.runs:
                k = i + 1
            elif missing.count(None) == size + 1 - i:
                k = size  # the rest of the range is missing
            else:
                k = next(compress(count(i), map(is_not, missing[i:], repeat(None))))
            out = handler(ctx, arg, lo + i, lo + k, memo)
            values[lo + i - base : lo + k - base] = out
            missing[i:k] = out
            i = missing.index(None, k)
    if stop <= end:
        return values[pos - base : stop - base]
    if wrap is None:
        raise HorizonExceedsTrace(
            f"position {max(pos, end)} leaves the {end}-state finite trace "
            "under the strict policy"
        )
    cycle = values[wrap - base : end - base]
    m = stop - end  # positions read around the loop, from its start on
    return values[pos - base : end - base] + cycle * (m // len(cycle)) + cycle[: m % len(cycle)]


# ---------------------------------------------------------------------------
# Handlers: each fills the run lo .. hi-1 of its node's column
# ---------------------------------------------------------------------------
#
# A handler returns the run's values.  A run lies inside the positions
# reads reach, lo < hi <= ctx._end, which under the pad-zero policy hold
# the zero state at len(trace).


def _h_atom(ctx, f, lo, hi, memo):
    name = f.name
    j = eta_atom_index(name)
    if j is not None:
        return [ctx.eta.lookup(j)] * (hi - lo)
    trace = ctx.trace
    k = trace._index.get(name)
    if k is None:
        trace.at(lo, name)  # raises the unknown-atom error
    length = trace._length
    if lo >= length:  # the zero state
        return [0.0]
    if hi == lo + 1:
        return [trace.states[lo][k]]
    out = list(map(itemgetter(k), trace.states[lo:hi]))
    if hi > length:
        out.append(0.0)
    return out


def _h_top(ctx, f, lo, hi, memo):
    return [1.0] * (hi - lo)


def _h_bot(ctx, f, lo, hi, memo):
    return [0.0] * (hi - lo)


def _h_not(ctx, f, lo, hi, memo):
    return list(map(ctx.ops.neg, _span(ctx, f.arg, lo, hi - lo, memo)))


def _h_binary(ctx, f, lo, hi, memo):
    left = _span(ctx, f.left, lo, hi - lo, memo)
    right = _span(ctx, f.right, lo, hi - lo, memo)
    return list(map(ctx._binary[type(f)], left, right))


def _h_next(ctx, f, lo, hi, memo):
    # unwrap next-chains iteratively so X[k] sugar cannot blow the stack
    steps = 0
    inner = f
    while type(inner) is type(f):
        steps += 1
        inner = inner.arg
    return _span(ctx, inner, lo + steps, hi - lo, memo)


def _next_better(values, drops):
    """Each position's next position holding a strictly better value, or
    len(values): the back values a monotone deque (see _slide) drops for a
    new one, popped from one stack in one pass.  Following it from a
    window's first position walks the window's records, the values strictly
    better than every earlier one."""
    nxt = [len(values)] * len(values)
    stack = []
    for j, v in enumerate(values):
        while stack and drops(values[stack[-1]], v):
            nxt[stack.pop()] = j
        stack.append(j)
    return nxt


def _weighted_windows(ctx, arg, start, n, weights, head, memo):
    """The t-conorm fold of values[i + d] * weights[d] over d, for the n
    windows starting at start, start+1, ...; weights[:head] are 1.0, and
    the weights never grow with d.

    Under max, a value no better than an earlier one of its window weighs
    no more and comes later, and a rounded product is monotone, so its term
    never beats the earlier one's: a range fill takes the max over the
    first largest value of the head and the records after it.  Under the
    Archimedean t-conorms a +-0.0 term leaves a nonzero fold bit for bit,
    so only the nonzero terms are folded, until the fold reaches 1.0; a
    window of zero terms alone is folded whole, which gives its sign.
    """
    width = len(weights)
    values = _span(ctx, arg, start, n + width - 1, memo)
    tconorm = ctx.ops.tconorm
    out = []
    if tconorm is not algebra._maximum:
        for i in range(n):
            window = values[i : i + width]
            terms = filter(None, map(mul, window, weights))
            acc = next(terms, None)
            if acc is None:  # zero terms alone: the full fold gives the sign
                acc = _fold(tconorm, list(map(mul, window, weights)))
            for v in terms:
                acc = tconorm(acc, v)
                if acc == 1.0:
                    break
            out.append(acc)
    elif n == 1:  # a point read: one C-level fold
        out.append(max(map(mul, values, weights)))
    else:
        nxt = _next_better(values, lt)
        for i in range(n):
            k, stop, end = i, i + head, i + width
            while (s := nxt[k]) < stop:
                k = s  # the head's first largest, at weight 1.0
            best = values[k]
            while s < end:
                term = values[s] * weights[s - i]
                if term > best:
                    best = term
                s = nxt[s]
            out.append(best)
    return out


def _h_soon(ctx, f, lo, hi, memo):
    # eta(d) weighs a delay of d + 1 instants
    return _weighted_windows(ctx, f.arg, lo + 1, hi - lo, ctx.eta.table, 1, memo)


def _h_within(ctx, f, lo, hi, memo):
    # within t: satisfied inside the next t instants at full weight, or in the
    # following n_eta - 1 instants at a decreasing penalty
    weights = (1.0,) * (f.bound + 1) + ctx.eta.table[1:]
    return _weighted_windows(ctx, f.arg, lo, hi - lo, weights, f.bound + 1, memo)


def _h_lasts(ctx, f, lo, hi, memo):
    """L[t]: the largest eta(j) times the t-norm fold of the window's first
    t + 1 - j values, j <= min(t, n_eta - 1).

    Under min a range fill walks each window's records (see _next_better)
    from the first smallest value of its head, the first t + 1 - j_top
    values, which every j keeps.  A prefix's min is its last record, so a
    record r followed by record s is the min of each prefix that ends
    before s; the longest of these cuts the fewest instants, so it weighs
    the most, and a rounded product is monotone.  The candidates are r at
    the eta(j) of that longest prefix, and the last record at eta(0) = 1.

    Otherwise one _slide gives every window's head fold.  Under Product,
    whose unit 1.0 is exact from the first value (see _CONNECTIVES), a
    prefix followed by a 1.0 folds to the bits of the prefix one longer,
    which weighs more and comes first in the max; so a window prices only
    itself and the prefixes that end just before a value below 1.0.
    """
    t = f.bound
    n = hi - lo
    values = _span(ctx, f.arg, lo, n + t, memo)
    tnorm = ctx.ops.tnorm
    j_top = min(t, ctx.eta.n_eta - 1)
    weights = ctx.eta.table[: j_top + 1]
    head = t + 1 - j_top  # every j keeps at least the window's first head values
    out = []
    if tnorm is algebra._minimum and n > 1:
        nxt = _next_better(values, gt)
        for i in range(n):
            k, stop, end = i, i + head, i + t + 1
            while (s := nxt[k]) < stop:
                k = s  # the head's first smallest
            best = -1.0  # below every candidate
            while s < end:  # j descends, so a tie goes to the later one
                cand = weights[end - s] * values[k]
                if cand >= best:
                    best = cand
                k, s = s, nxt[s]
            out.append(values[k] if values[k] >= best else best)  # j = 0, at eta(0) = 1.0
        return out
    heads = _slide(tnorm, values, n, head)
    if _CONNECTIVES[tnorm][3] != (1.0, 0):
        for i, first in enumerate(heads):
            # the prefix folds of the window that cut j = j_top .. 0 instants
            prefix = list(accumulate(values[i + head : i + t + 1], tnorm, initial=first))
            out.append(max(map(mul, reversed(prefix), weights)))
        return out
    below = list(compress(count(), map(ne, values, repeat(1.0))))
    for i, acc in enumerate(heads):
        # the whole window, then each prefix that ends just before a value
        # below 1.0, longest first
        cands = []
        for q in below[bisect_left(below, i + head) : bisect_left(below, i + t + 1)]:
            cands.append(acc * weights[i + t + 1 - q])
            acc = tnorm(acc, values[q])
        cands.append(acc)
        out.append(max(reversed(cands)))
    return out


#: A chunked read's first chunk (a read this wide or narrower is one chunk),
#: and the factor each later chunk grows what is read by: a read refills the
#: overlap of the child's own windows, so fewer reads cost less.
_FIRST_CHUNK = 16
_GROWTH = 4


def _chunks(ctx, arg, pos, width, memo):
    """``arg``'s spans covering pos .. pos+width-1 in growing chunks, for a
    reader that may stop once its value is decided.  With no wrap a window
    is one chunk: how far it reaches decides HorizonExceedsTrace.  Any other
    error is met at the first position, which is always read."""
    read, n = 0, width if ctx._wrap is None else _FIRST_CHUNK
    while read < width:
        n = min(n, width - read)
        yield _span(ctx, arg, pos + read, n, memo)
        read += n
        n = read * (_GROWTH - 1)


def _point_fold(ctx, arg, pos, width, op, memo):
    """The left fold of ``op`` over ``arg`` at pos .. pos+width-1, read in
    chunks until the fold is saturated.  A fold with no saturated value
    reads its window at once."""
    final = _CONNECTIVES[op][1]
    if final is None:
        return _fold(op, _span(ctx, arg, pos, width, memo))
    acc = None
    for values in _chunks(ctx, arg, pos, width, memo):
        acc = _fold(op, values if acc is None else chain((acc,), values))
        if acc == final:
            break
    return acc


def _fold_window(ctx, f, lo, hi, t, memo, unit):
    """F[t] (unit 0.0, the t-conorm) or G[t] (unit 1.0, the t-norm)."""
    n = hi - lo
    op = ctx.ops.tnorm if unit else ctx.ops.tconorm
    if n == 1:
        return [_point_fold(ctx, f.arg, lo, t + 1, op, memo)]
    return _slide(op, _span(ctx, f.arg, lo, n + t, memo), n, t + 1)


def _ag_window(ctx, f, lo, hi, t, memo, _):
    """AG[t]: the largest eta(j) times the t-norm fold of the window without
    its j smallest values, j <= min(t, n_eta - 1).

    Under min and Product, whose unit 1.0 is exact from the first value
    (see _CONNECTIVES), a window whose leaving and entering values are both
    1.0 holds the previous window's values below 1.0, in the same order, and
    takes its value.  A Product window folds only its m values below 1.0:
    1.0 leaves a product bit for bit, so each j < m folds as it would with
    the 1.0s, and each j >= m folds to 1.0, of which eta(m) is the largest
    weight and the first.
    """
    n = hi - lo
    values = _span(ctx, f.arg, lo, n + t, memo)
    weights = ctx.eta.table
    tnorm = ctx.ops.tnorm
    if tnorm is algebra._minimum:
        # the window's values, ascending, equal ones in position order (sorted
        # is stable, insort goes after its equals, and the value leaving is
        # the earliest of its equals): candidate j is weights[j] times the
        # (j+1)-th, as in _best_drop; map stops at the shorter of the two
        window = sorted(values[: t + 1])
        out = [max(map(mul, window, weights))]
        for old, new in zip(values, values[t + 1 :]):
            if old == new == 1.0:
                out.append(out[-1])
                continue
            del window[bisect_left(window, old)]
            insort(window, new)
            out.append(max(map(mul, window, weights)))
        return out
    keep = min(t, len(weights) - 1) + 1
    # the positions a window folds, and their values: under Product those
    # below 1.0, else all
    exact = _CONNECTIVES[tnorm][3] == (1.0, 0)
    held = list(compress(count(), map(ne, values, repeat(1.0)))) if exact else range(len(values))
    folded = [values[q] for q in held] if exact else values
    a, b = 0, bisect_left(held, t + 1)  # the window's held[a:b]
    # the window's (value, index in held) pairs, ascending: ties go to the
    # earliest position, so its first `keep` entries are what
    # _select_smallest keeps
    window = sorted(zip(folded[:b], count()))
    out = []
    for i in range(n):
        if exact and i and values[i - 1] == values[i + t] == 1.0:
            out.append(out[-1])
        else:
            m = b - a
            best = _best_drop(tnorm, weights, folded[a:b], window[:keep], a) if m else None
            if m < keep and (best is None or weights[m] > best):
                best = weights[m]  # every value below 1.0 dropped
            out.append(best)
        if a < b and held[a] == i:
            del window[bisect_left(window, (folded[a], a))]
            a += 1
        if b < len(held) and held[b] == i + t + 1:
            insort(window, (folded[b], b))
            b += 1
    return out


def _until_window(ctx, f, lo, hi, t, memo, almost):
    """U[t] or AU[t]: the first largest of right[i] and, for k = 1 .. t, the
    t-norm step of the held fold of left[i : i + k] with right[i + k].
    Until holds the running t-norm fold of each prefix; almost-until
    (``almost``) holds each prefix's almost-always value (_relaxed_holds).
    A held fold never increases from the min_k-th prefix on: from the first
    for until, and from the n_eta-th for almost-until, once the j range is
    fixed and a further value can only lower every retained fold.

    A held fold is at most 1.0 and each rounded t-norm is monotone in both
    arguments, so no candidate at q beats cap(q) = step(1.0, right[q]); under
    Lukasiewicz that can round above right[q].  A window whose right[i] is
    at least every cap of the window takes right[i] with no fold.  A window
    of left 1.0s takes its largest cap: every hold is 1.0 (for almost-until
    too, as eta(0) = 1), so candidate k is cap(i + k), and that cap exceeds
    right[i] >= 0, so it is positive and a tie has its bits.  A window whose
    left values are one value, bit for bit, takes the hold list of that
    value, folded once per fill.  An almost-until window folds its prefixes
    lazily and stops once its best so far is at least every cap still ahead,
    or, under Zadeh and Godel, once a hold that can only fall is at most its
    best.  Each skipped candidate is at most the value kept, which a full
    max keeps too, as it keeps the first of equal values.

    Redone one position at a time, the missing values inside the trace are
    computed in the order right(lo), left(lo), right(lo+1), ..., so a window
    whose children fail at different positions raises the error a
    step-by-step scan meets first.
    """
    right, left = f.right, f.left
    n = hi - lo
    if not memo.runs:
        for p in range(lo, min(lo + t, ctx.trace._length)):
            _span(ctx, right, p, 1, memo)
            _span(ctx, left, p, 1, memo)
    right = _span(ctx, right, lo, n + t, memo)
    left = _span(ctx, left, lo, n + t - 1, memo)
    if t == 0:
        return right[:n]
    step = ctx.ops.tnorm
    weights = ctx.eta.table
    min_k = ctx.eta.n_eta if almost else 0
    # each window's largest right value after right[i]: step(1.0, .) is
    # monotone, so its cap is the window's largest cap
    tops = _slide(algebra._maximum, right[1:], n, t)
    holds = {}  # (value, sign) -> the held folds of t copies of the value
    out = []
    for i, top in enumerate(tops):
        best = right[i]
        cap = step(1.0, top)
        if best >= cap:
            out.append(best)
            continue
        window, ahead = left[i : i + t], right[i + 1 : i + t + 1]
        v = window[0]
        if v == 1.0 and window.count(v) == t:
            best = cap  # every hold is 1.0
        # one value, bit for bit: 0.0 and -0.0 differ
        elif window.count(v) == t and (v or len(set(map(math.copysign, repeat(1.0), window))) == 1):
            key = (v, math.copysign(1.0, v))
            held = holds.get(key)
            if held is None:
                held = _relaxed_holds(window, step, weights) if almost else accumulate(window, step)
                held = holds[key] = list(held)
            best = max(chain((best,), map(step, held, ahead)))
        elif not almost:  # until's prefix folds run in C
            best = max(chain((best,), map(step, accumulate(window, step), ahead)))
        else:
            best = _scan(best, ahead, _relaxed_holds(window, step, weights), step, min_k)
        out.append(best)
    return out


def _caps(right, step):
    """step(1.0, the largest value of right after q) for each q: no candidate
    after q beats it; after the last, step(1.0, -1.0)."""
    later = reversed(list(accumulate(reversed(right[1:]), max, initial=-1.0)))
    return map(step, repeat(1.0), later)


def _scan(best, ahead, held, step, min_k):
    """The first largest of ``best`` and step(h, r) for k = 1, 2, ..., where
    ``held`` yields the held folds h and ``ahead`` the right values r.  It
    stops once the best reaches the cap after r (see _caps), or, under the
    minimum t-norm, once a hold that can only fall (k >= min_k) is at most
    the best: min(h, r) <= h, where a rounded Lukasiewicz step(h, 1.0) can
    exceed h."""
    exit_on_hold = step is algebra._minimum
    for k, r, cap, h in zip(count(1), ahead, _caps(ahead, step), held):
        if exit_on_hold and k >= min_k and h <= best:
            break  # every later hold, so every later candidate, is at most h
        cand = step(h, r)
        if cand > best:
            best = cand
        if best >= cap:
            break
    return best


def _h_scale(ctx, f, lo, hi, memo):
    if not 1 <= f.index < ctx.eta.n_eta:
        raise ScaleIndexOutOfRange(
            f"scaling index {f.index} outside 1..{ctx.eta.n_eta - 1}"
        )
    w = ctx.eta.lookup(f.index)
    return [scale(v, w) for v in _span(ctx, f.arg, lo, hi - lo, memo)]


# -- unbounded operators -----------------------------------------------------
#
# A lasso limit is read at a stored position ``start``: a pre-loop stretch of
# ``head`` values, then one period of the loop.


def _unb_fold(ctx, f, start, memo, unit):
    """Lasso F (unit 0.0) or G (unit 1.0)."""
    head = max(0, ctx.trace.loop_start - start)
    period = ctx.trace.loop_length
    op = ctx.ops.tnorm if unit else ctx.ops.tconorm
    if ctx.ops.tnorm is algebra._minimum:
        return _point_fold(ctx, f.arg, start, head + period, op, memo)
    # a loop value other than the unit recurs forever and drives the fold to
    # the absorbing element: 0 for the t-norm, 1 for the t-conorm
    if any(loop.count(unit) < len(loop) for loop in _chunks(ctx, f.arg, start + head, period, memo)):
        return 1.0 - unit
    return _point_fold(ctx, f.arg, start, head, op, memo) if head else unit


def _unb_almost_always(ctx, f, start, memo, _):
    head = max(0, ctx.trace.loop_start - start)
    eta = ctx.eta
    period = ctx.trace.loop_length
    if ctx.ops.tnorm is algebra._minimum:
        values = _span(ctx, f.arg, start, head + period, memo)
        # loop values recur forever, so dropping them is futile: the j-th
        # smallest kept is a prefix value only below the loop's minimum (the
        # loop copies sort first, so they win a tie of 0.0 and -0.0)
        kept = sorted([min(values[head:])] * eta.n_eta + values[:head])[: eta.n_eta]
        return max(map(mul, kept, eta.table))
    if any(loop.count(1.0) < len(loop) for loop in _chunks(ctx, f.arg, start + head, period, memo)):
        return 0.0
    # dropping the j smallest prefix values retains sp[j:]; folding from the
    # back prices every j with one t-norm
    tnorm = ctx.ops.tnorm
    sp = sorted(_span(ctx, f.arg, start, head, memo))
    best = eta.lookup(len(sp))  # every prefix value dropped; only 1s remain
    gj = None
    for j in range(len(sp) - 1, -1, -1):
        gj = sp[j] if gj is None else tnorm(sp[j], gj)
        cand = scale(gj, eta.lookup(j))
        if cand > best:
            best = cand
    return best


def _unb_until(ctx, f, start, memo, almost):
    """Lasso U or AU: the U[t] or AU[t] window at ``start``.  From the
    min_k-th prefix on (see _until_window) the held fold never increases, so
    every candidate one full loop later is dominated: the pre-loop stretch
    (at least min_k values) plus one period holds the limit."""
    head = max(0, ctx.trace.loop_start - start)
    min_k = ctx.eta.n_eta if almost else 0
    t = max(head, min_k) + ctx.trace.loop_length
    return _until_window(ctx, f, start, start + 1, t, memo, almost)[0]


#: Unbounded keyword -> (window kernel, exact lasso limit, the tag of a
#: finite trace's largest window, the argument both kernels take).  A twin
#: family shares its kernels and differs in the argument: F and G in the unit
#: of their fold, U and AU in ``almost``, whether the hold of a prefix is its
#: almost-always value rather than its t-norm fold.  Almost-always
#: is not monotone in the horizon, so its finite result has no bound direction.
_UNBOUNDED = {
    "F": (_fold_window, _unb_fold, _LOWER, 0.0),
    "G": (_fold_window, _unb_fold, _UPPER, 1.0),
    "AG": (_ag_window, _unb_almost_always, _APPROX, None),
    "U": (_until_window, _unb_until, _LOWER, False),
    "AU": (_until_window, _unb_until, _LOWER, True),
}
#: Every class with a twin -> its keyword's row; a bounded class has no limit.
_TEMPORAL = {
    spec.cls: row if spec.unbounded else (row[0], None, None, row[3])
    for spec in OPERATORS.values()
    if spec.twin is not None
    for row in (_UNBOUNDED[spec.keyword],)
}


def _h_temporal(ctx, f, lo, hi, memo):
    window, limit, _, arg = _TEMPORAL[type(f)]
    if limit is None:
        return window(ctx, f, lo, hi, f.bound, memo, arg)
    if ctx.trace.is_lasso:
        return [limit(ctx, f, p, memo, arg) for p in range(lo, hi)]
    memo.cut = True  # each position's largest window on a finite trace
    last = len(ctx.trace) - 1
    return [window(ctx, f, p, p + 1, max(0, last - p), memo, arg)[0] for p in range(lo, hi)]


class _Handlers(dict):
    """Node class -> its handler: the temporal and binary kinds by level, the
    others by keyword (an atom has none).  A child of another class, which
    the node constructors let through when it has an int ``size``, is met
    here and raises the TypeError evaluate raises for such a root."""

    __slots__ = ()

    def __missing__(self, cls):
        raise TypeError(f"unknown formula node of class {cls.__name__}")


_BY_KEYWORD = {
    None: _h_atom, "true": _h_top, "false": _h_bot, "!": _h_not, "X": _h_next,
    "S": _h_soon, "L": _h_lasts, "W": _h_within, "O": _h_scale,
}
_HANDLERS = _Handlers({
    spec.cls: _h_temporal if spec.twin is not None
    else _h_binary if spec.level < Level.UNARY
    else _BY_KEYWORD[spec.keyword]
    for spec in OPERATORS.values()
})


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------


def _exactness(ctx: EvalContext, f: Formula, a: int, b: int) -> int:
    """The exactness tag of ``f``'s values at positions a .. b.

    Only an unbounded operator cut at the last state of a finite trace is
    inexact, so the tag is the | of what the unbounded operators read from
    ``f`` add: LowerBound for F, U and AU, UpperBound for G, Approximate for
    AG, each swapped under an odd number of antitone places (the argument
    of ! and the premise of ->).  A top-down walk over (node, read interval)
    pairs follows the handlers: X shifts by one step; F[t], G[t], AG[t] and
    L[t] read [a, b+t]; S reads [a+1, b+n_eta]; W[t] reads
    [a, b+t+n_eta-1]; U[t] and AU[t] read their right child on [a, b+t] and
    their left on [a, b+t-1], nothing when t is 0; an unbounded operator
    reads its argument or right child on [a, max(b, len-1)] and its left on
    [a, len-2]; the others read their children on [a, b].  A position past
    the end is the zero state at len.  The walk reads no value and raises
    no error: evaluate runs it after the evaluation, and only when that read
    an unbounded operator on a finite trace.
    """
    trace = ctx.trace
    if trace.is_lasso:
        return _EXACT
    end, n_eta = trace._length, ctx.eta.n_eta
    tag, seen, stack = _EXACT, set(), [(f, a, b, False)]
    while stack and tag != _APPROX:
        f, a, b, flip = stack.pop()
        spec = OPERATORS[type(f)]
        while spec.keyword == "X":  # one step per X, as _h_next unwraps them
            f, a, b = f.arg, a + 1, b + 1
            spec = OPERATORS[type(f)]
        a, b = min(a, end), min(b, end)
        if (id(f), a, b, flip) in seen:
            continue
        seen.add((id(f), a, b, flip))
        keyword = spec.keyword
        hi = left_hi = b  # the argument or right child reads [a, hi], the left [a, left_hi]
        if spec.unbounded:
            added = _TEMPORAL[type(f)][2]
            tag |= _FLIPPED[added] if flip else added
            hi, left_hi = max(b, end - 1), end - 2
        elif spec.param == "bound":  # F[t], G[t], AG[t], L[t], W[t], U[t] or AU[t]
            hi += f.bound + (n_eta - 1 if keyword == "W" else 0)
            left_hi = hi - 1 if f.bound else -1
        elif keyword == "S":
            a, hi = a + 1, b + n_eta
        if spec.level < Level.UNARY:  # a binary connective, U or AU
            stack.append((f.right, a, hi, flip))
            if a <= left_hi:
                stack.append((f.left, a, left_hi, flip != (keyword == "->")))
        elif spec.children:
            stack.append((f.arg, a, hi, flip != (keyword == "!")))
    return tag


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _run(ctx: EvalContext, pos: int, read):
    """``read(memo)`` over a fresh memo, filling columns a run at a time.

    If that raises an FtlError, it is redone one position at a time on the
    values already computed, so the error raised is the one a position-by-
    position evaluation meets first.  Redoing the whole read costs at most
    one more pass; a window that redid only its own failed run would redo
    its children's failed runs too, doubling the work at every level of
    nesting.  A RecursionError becomes FormulaTooDeep.
    """
    memo = _Columns(ctx.trace, pos)
    try:
        try:
            return read(memo)
        except FtlError:
            memo.runs = False
            return read(memo)
    except RecursionError:
        raise FormulaTooDeep("formula nests too deeply to evaluate") from None


def _integer(x, what: str) -> int:
    """``x`` as an int, as a slice index reads it, but not a bool, which
    ``Trace`` refuses as a loop start and the node constructors as a bound."""
    if type(x) is not bool:
        try:
            return index(x)
        except TypeError:
            pass
    raise ValidationError(f"{what} {x!r} is not an integer")


def _position(ctx: EvalContext, pos) -> int:
    """``pos`` as an int, checked as where an evaluation starts: not
    negative, and not past the end of a trace whose reads do not wrap, as
    ``Trace.resolve`` checks it."""
    pos = _integer(pos, "position")
    if pos < 0 or ctx._wrap is None:
        ctx.trace.resolve(pos)  # raises PositionOutOfRange
    return pos


def evaluate(ctx: EvalContext, f: Formula, pos: int = 0) -> EvalResult:
    """The truth degree of ``f`` along the trace from position ``pos``."""
    pos = _position(ctx, pos)
    if type(f) not in _HANDLERS:
        raise TypeError(f"unknown formula node {f!r}")
    (value,), cut = _run(ctx, pos, lambda memo: (_span(ctx, f, pos, 1, memo), memo.cut))
    return EvalResult(value, _EXACTNESS[_exactness(ctx, f, pos, pos) if cut else _EXACT])


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
    pos = _position(ctx, pos)
    t = _integer(t, "window")
    if t < 0:
        raise ValidationError(f"negative window {t}")
    if type(phi) not in _HANDLERS:
        raise TypeError(f"unknown formula node {phi!r}")
    values = _run(ctx, pos, lambda memo: _span(ctx, phi, pos, t + 1, memo))
    keep = min(t, ctx.eta.n_eta - 1) + 1
    kept = _select_smallest(values, keep, counter)
    if counter is not None:
        counter.count += keep  # one candidate per avoidance count
    return _best_drop(ctx.ops.tnorm, ctx.eta.table, values, kept)


def eval_unbounded_lasso(ctx: EvalContext, f: Formula, pos: int = 0) -> TruthDegree:
    """Exact limit of an unbounded-headed formula on a lasso trace: its
    ``evaluate`` value, once the trace and the head are checked."""
    if not ctx.trace.is_lasso:
        raise NotALasso("unbounded limits need a lasso trace")
    spec = OPERATORS.get(type(f))
    if spec is None or not spec.unbounded:
        raise TypeError(f"{type(f).__name__} is not an unbounded operator")
    return evaluate(ctx, f, pos).value
