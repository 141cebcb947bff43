"""Value-preserving formula transformations and adequate-set lowering.

Rules come in two kinds: interpretation-generic identities (dualities,
De Morgan, unfoldings) and expansions of the relaxed operators, which are
built against a concrete avoiding table because their shape depends on n_eta.
Where a rule realizes a plain maximum it uses the strong disjunction under
Zadeh and Godel (where the t-conorm is the maximum) and the lattice
disjunction under Lukasiewicz and Product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import is_
from typing import Callable, Optional

from .core import (
    ETA_ATOM_PREFIX,
    AlmostAlwaysB,
    AlmostUntil,
    AlmostUntilB,
    Always,
    AlwaysB,
    And,
    Atom,
    AvoidingFunction,
    Bot,
    Eventually,
    EventuallyB,
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
    Until,
    UntilB,
    WeakAnd,
    WeakOr,
    Within,
    children,
    with_children,
)
from .errors import BudgetExceeded, NotLowerable

_Z = Interpretation.ZADEH
_G = Interpretation.GODEL
_L = Interpretation.LUKASIEWICZ
_P = Interpretation.PRODUCT

Transform = Callable[[Formula], Formula]


@dataclass(frozen=True)
class RewriteRule:
    """A named rewrite of one node class, sound under the listed interpretations.

    ``transform`` is only called on nodes whose type is exactly ``pattern``.
    """

    name: str
    pattern: type
    applicable_interps: frozenset
    transform: Transform


def _nexts(k: int, f: Formula) -> Formula:
    for _ in range(k):
        f = Next(f)
    return f


def eta_atom(j: int) -> Atom:
    """The reserved companion atom whose degree is eta(j) at every instant."""
    return Atom(f"{ETA_ATOM_PREFIX}{j}")


# -- interpretation-generic identities ---------------------------------------


def _t_fg_dual(f):
    return Not(Eventually(Not(f.arg)))


def _t_gf_dual(f):
    return Not(Always(Not(f.arg)))


def _t_f_from_until(f):
    return Until(Top(), f.arg)


def _t_demorgan_or(f):
    return Not(And(Not(f.left), Not(f.right)))


def _t_demorgan_and(f):
    return Not(Or(Not(f.left), Not(f.right)))


def _t_implies_material(f):
    return Or(Not(f.left), f.right)


def _t_not_via_implies(f):
    return Implies(f.arg, Bot())


def _t_or_as_lattice(f):
    return WeakOr(f.left, f.right)


def _t_weak_and_collapse(f):
    return And(f.left, f.right)


def _t_weak_or_collapse(f):
    return Or(f.left, f.right)


def _t_weak_and_define(f):
    return And(f.left, Implies(f.left, f.right))


def _t_weak_or_define(f):
    l, r = f.left, f.right
    return WeakAnd(Implies(Implies(l, r), r), Implies(Implies(r, l), l))


def _t_f_unfold(f):
    if f.bound == 0:
        return f.arg
    return Or(f.arg, Next(EventuallyB(f.bound - 1, f.arg)))


def _t_g_unfold(f):
    if f.bound == 0:
        return f.arg
    return And(f.arg, Next(AlwaysB(f.bound - 1, f.arg)))


def _make_u_unfold(disj):
    def transform(f):
        if f.bound == 0:
            return f.right
        return disj(f.right, And(f.left, Next(UntilB(f.bound - 1, f.left, f.right))))

    return transform


def _make_au_unfold(disj):
    def transform(f):
        if f.bound == 0:
            return f.right
        t = f.bound
        step = And(AlmostAlwaysB(t - 1, f.left), _nexts(t, f.right))
        return disj(AlmostUntilB(t - 1, f.left, f.right), step)

    return transform


def _t_scale_to_and(f):
    # under the product t-norm, multiplying by eta(j) is conjunction with the
    # constant companion atom
    return And(f.arg, eta_atom(f.index))


# -- expansions built against a concrete avoiding table ----------------------


def _make_soon_expand(eta: AvoidingFunction):
    def transform(f):
        terms = [Next(f.arg)]
        for d in range(2, eta.n_eta + 1):
            terms.append(_nexts(d, Scale(d - 1, f.arg)))
        return reduce(Or, terms)

    return transform


def _make_within_expand(eta: AvoidingFunction):
    def transform(f):
        t = f.bound
        terms: list[Formula] = [EventuallyB(t, f.arg)]
        for d in range(t + 1, t + eta.n_eta):
            terms.append(_nexts(d, Scale(d - t, f.arg)))
        return reduce(Or, terms)

    return transform


def _make_lasts_expand(eta: AvoidingFunction, disj):
    def transform(f):
        t = f.bound
        terms: list[Formula] = []
        for j in range(min(t, eta.n_eta - 1) + 1):
            body = AlwaysB(t - j, f.arg)
            terms.append(body if j == 0 else Scale(j, body))
        return reduce(disj, terms)

    return transform


def _make_ag_expand(eta: AvoidingFunction, disj):
    def transform(f):
        t = f.bound
        shifted = [f.arg]  # shifted[h] is X^h arg, built on shifted[h - 1]
        for _ in range(t):
            shifted.append(Next(shifted[-1]))
        # (id of a conjunction, h) -> that conjunction & X^h arg: the terms
        # share every common prefix of their left-nested conjunctions
        prefixes: dict[tuple[int, int], Formula] = {}
        terms: list[Formula] = []
        for j in range(min(t, eta.n_eta - 1) + 1):
            for kept in itertools.combinations(range(t + 1), t + 1 - j):
                body = shifted[kept[0]]
                for h in kept[1:]:
                    key = (id(body), h)
                    conj = prefixes.get(key)
                    if conj is None:
                        conj = prefixes[key] = And(body, shifted[h])
                    body = conj
                terms.append(body if j == 0 else Scale(j, body))
        return reduce(disj, terms)

    return transform


_ALL_FOUR = frozenset({_Z, _G, _L, _P})
_ZL, _ZG, _LP = frozenset({_Z, _L}), frozenset({_Z, _G}), frozenset({_L, _P})
_GLP = frozenset({_G, _L, _P})

#: The rules that do not depend on eta, built once.
_FIXED_RULES = (
    RewriteRule("FG-dual", Always, _ZL, _t_fg_dual),
    RewriteRule("F-from-until", Eventually, _ZG, _t_f_from_until),
    RewriteRule("GF-dual", Eventually, _ZL, _t_gf_dual),
    RewriteRule("demorgan-or", Or, _ZL, _t_demorgan_or),
    RewriteRule("demorgan-and", And, _ZL, _t_demorgan_and),
    RewriteRule("implies-material", Implies, _ZL, _t_implies_material),
    RewriteRule("not-via-implies", Not, _ALL_FOUR, _t_not_via_implies),
    RewriteRule("or-as-lattice", Or, _ZG, _t_or_as_lattice),
    RewriteRule("weak-and-define", WeakAnd, _GLP, _t_weak_and_define),
    RewriteRule("weak-and-collapse", WeakAnd, _ZG, _t_weak_and_collapse),
    RewriteRule("weak-or-define", WeakOr, _GLP, _t_weak_or_define),
    RewriteRule("weak-or-collapse", WeakOr, _ZG, _t_weak_or_collapse),
    RewriteRule("F-unfold", EventuallyB, _ALL_FOUR, _t_f_unfold),
    RewriteRule("G-unfold", AlwaysB, _ALL_FOUR, _t_g_unfold),
    RewriteRule("U-unfold", UntilB, _ZG, _make_u_unfold(Or)),
    RewriteRule("U-unfold-w", UntilB, _LP, _make_u_unfold(WeakOr)),
    RewriteRule("AU-unfold", AlmostUntilB, _ZG, _make_au_unfold(Or)),
    RewriteRule("AU-unfold-w", AlmostUntilB, _LP, _make_au_unfold(WeakOr)),
    RewriteRule("scale-to-and", Scale, frozenset({_P}), _t_scale_to_and),
)


def rule_set(eta: AvoidingFunction) -> dict[str, RewriteRule]:
    """Every shipped rule, with the relaxed-operator expansions bound to eta.

    List order is preference: lowering removes a node kind with the first
    rule for its class that is sound under the interpretation.  The dict is
    fresh on every call; only the eta-bound rules are built per call.
    """
    rules = [
        *_FIXED_RULES,
        RewriteRule("soon-expand", Soon, _ALL_FOUR, _make_soon_expand(eta)),
        RewriteRule("within-expand", Within, _ALL_FOUR, _make_within_expand(eta)),
        RewriteRule("lasts-expand", Lasts, _ZG, _make_lasts_expand(eta, Or)),
        RewriteRule("lasts-expand-w", Lasts, _LP, _make_lasts_expand(eta, WeakOr)),
        RewriteRule("ag-expand", AlmostAlwaysB, _ZG, _make_ag_expand(eta, Or)),
        RewriteRule("ag-expand-w", AlmostAlwaysB, _LP, _make_ag_expand(eta, WeakOr)),
    ]
    return {rule.name: rule for rule in rules}


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def rewrite_once(f: Formula, rule: RewriteRule) -> Formula:
    """One leftmost-outermost application; the formula itself if no match.

    A pre-order walk with an explicit stack of ``[node, children, index]``
    frames, the path from the root to the node visited; only that path is
    rebuilt around the rewritten node.
    """
    path: list[list] = []
    node = f
    while True:
        if type(node) is rule.pattern:
            out = rule.transform(node)
            for parent, kids, i in reversed(path):
                out = with_children(parent, kids[:i] + (out,) + kids[i + 1:])
            return out
        kids = children(node)
        if kids:
            path.append([node, kids, 0])
            node = kids[0]
            continue
        while path:  # on to the next sibling of the nearest unfinished node
            frame = path[-1]
            frame[2] += 1
            if frame[2] < len(frame[1]):
                node = frame[1][frame[2]]
                break
            path.pop()
        else:
            return f


#: Connectives each logic keeps after lowering (atoms and constants always pass).
_TARGETS = {
    _Z: frozenset({And, Not, Next, Until, AlmostUntil, Scale}),
    _G: frozenset({And, Implies, Next, Until, AlmostUntil, Scale}),
    _L: frozenset({And, Implies, Next, Eventually, Until, AlmostUntil, Scale}),
    _P: frozenset({And, Implies, Or, Next, Eventually, Always, Until, AlmostUntil}),
}

_ALWAYS_OK = frozenset({Atom, Top, Bot})

def adequate_connectives(interp: Interpretation) -> frozenset:
    """The node kinds a fully lowered formula may contain."""
    return _TARGETS[interp] | _ALWAYS_OK


def in_adequate_set(f: Formula, interp: Interpretation) -> bool:
    """Whether every node kind in f is adequate.  Lowered forms share
    subtrees, so each distinct node object is visited once."""
    allowed = adequate_connectives(interp)
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) not in allowed:
            return False
        stack.extend(children(node))
    return True


@lru_cache(maxsize=64)
def _strategy(rules, interp: Interpretation, eta: AvoidingFunction) -> dict[type, RewriteRule]:
    """The first rule of ``rules(eta)`` sound under ``interp`` for each node
    class, in preference order.  Keyed by the rule table's source too, so a
    ``rule_set`` replaced at run time is read afresh; callers only read the
    dict."""
    strategy: dict[type, RewriteRule] = {}
    for rule in rules(eta).values():
        if interp in rule.applicable_interps:
            strategy.setdefault(rule.pattern, rule)
    return strategy


class _Frame:
    """A node of the walk whose own rewrites are done and whose children are
    being lowered, left to right."""

    __slots__ = ("node", "form", "kids", "lowered", "start", "peak")

    def __init__(self, node: Formula, form: Formula, kids: tuple, start: int, peak: int):
        self.node = node  # the node as visited, the memo key
        self.form = form  # node after its own rewrites
        self.kids = kids  # form's children
        self.lowered: list[Formula] = []
        self.start = start  # the running total when node was visited
        self.peak = peak  # highest total - start at any budget check so far


def lower_to_adequate(
    f: Formula,
    interp: Interpretation,
    budget: int = 100_000,
    eta: Optional[AvoidingFunction] = None,
) -> Formula:
    """Rewrite until only the interpretation's adequate connectives remain.

    One post-order walk with an explicit stack, so depth costs no Python
    frames.  Each node object is lowered once per call and its lowered form
    shared at every later use, so the result is a DAG; the budget still counts
    the expanded tree, a shared subtree at every use.

    ``eta`` shapes the relaxed-operator expansions; it defaults to the crisp
    table (n_eta = 1).  Raises BudgetExceeded once the tree outgrows
    ``budget`` nodes or one node takes more than ``budget`` rewrite steps, and
    NotLowerable when an operator has no sound removal rule under this
    interpretation (unbounded almost-always everywhere; unbounded always
    under Godel).
    """
    if eta is None:
        eta = AvoidingFunction.crisp()
    allowed = adequate_connectives(interp)
    strategy = _strategy(rule_set, interp, eta)
    total = f.size
    if total > budget:
        raise BudgetExceeded(f"input already has {total} nodes (budget {budget})", partial=f)
    # id(node) -> (node, lowered form, total change, peak change).  A repeat
    # visit replays the entry only when the peak fits: lowering it step by
    # step would then pass every budget check it passed the first time, so
    # the outcome is the same.  Otherwise the walk lowers it again and raises
    # where the node-by-node walk would.  The entry holds the node, so its
    # id stays unique for the call.
    memo: dict[int, tuple[Formula, Formula, int, int]] = {}
    stack: list[_Frame] = []
    node = f
    try:
        while True:
            # visit node: replay it, or rewrite it until its kind is allowed
            hit = memo.get(id(node))
            if hit is not None and total + hit[3] <= budget:
                start, peak = total, hit[3]
                total += hit[2]
                done = hit[1]
            else:
                start, peak, form, steps = total, 0, node, 0
                while type(form) not in allowed:
                    rule = strategy.get(type(form))
                    if rule is None:
                        raise NotLowerable(
                            f"no sound rule removes {type(form).__name__} under this interpretation",
                            partial=form,
                        )
                    new = rule.transform(form)
                    total += new.size - form.size
                    form = new
                    if total > budget:
                        raise BudgetExceeded(
                            f"lowered form reached {total} nodes (budget {budget})", partial=form
                        )
                    if total - start > peak:
                        peak = total - start
                    # a rule cycle that never grows the tree would pass the
                    # size check forever, so the budget also caps the steps
                    steps += 1
                    if steps > budget:
                        raise BudgetExceeded(
                            f"lowering one node took {steps} rewrite steps without finishing "
                            f"(budget {budget})",
                            partial=form,
                        )
                kids = children(form)
                if kids:
                    stack.append(_Frame(node, form, kids, start, peak))
                    node = kids[0]
                    continue
                done = form
                memo[id(node)] = (node, done, total - start, peak)
            # done is node's lowered form: hand it up, finishing every parent
            # whose last child it completes
            while stack:
                parent = stack[-1]
                if start - parent.start + peak > parent.peak:
                    parent.peak = start - parent.start + peak
                parent.lowered.append(done)
                if len(parent.lowered) < len(parent.kids):
                    node = parent.kids[len(parent.lowered)]
                    break
                stack.pop()
                lowered = tuple(parent.lowered)
                # a node whose children all came back as they were is kept
                if all(map(is_, lowered, parent.kids)):
                    done = parent.form
                else:
                    done = with_children(parent.form, lowered)
                start, peak = parent.start, parent.peak
                memo[id(parent.node)] = (parent.node, done, total - start, peak)
            else:
                return done
    except (BudgetExceeded, NotLowerable) as exc:
        # rebuild the partial form around the failing node, innermost first
        partial = exc.partial
        for frame in reversed(stack):
            i = len(frame.lowered)
            partial = with_children(frame.form, (*frame.lowered, partial, *frame.kids[i + 1:]))
        exc.partial = partial
        raise
