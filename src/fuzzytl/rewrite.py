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
from functools import reduce
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
        terms: list[Formula] = []
        for j in range(min(t, eta.n_eta - 1) + 1):
            for kept in itertools.combinations(range(t + 1), t + 1 - j):
                body = reduce(And, [_nexts(h, f.arg) for h in kept])
                terms.append(body if j == 0 else Scale(j, body))
        return reduce(disj, terms)

    return transform


def rule_set(eta: AvoidingFunction) -> dict[str, RewriteRule]:
    """Every shipped rule, with the relaxed-operator expansions bound to eta.

    List order is preference: lowering removes a node kind with the first
    rule for its class that is sound under the interpretation.
    """
    all_four = frozenset({_Z, _G, _L, _P})
    zl, zg, lp = frozenset({_Z, _L}), frozenset({_Z, _G}), frozenset({_L, _P})
    glp = frozenset({_G, _L, _P})
    rules = [
        RewriteRule("FG-dual", Always, zl, _t_fg_dual),
        RewriteRule("F-from-until", Eventually, zg, _t_f_from_until),
        RewriteRule("GF-dual", Eventually, zl, _t_gf_dual),
        RewriteRule("demorgan-or", Or, zl, _t_demorgan_or),
        RewriteRule("demorgan-and", And, zl, _t_demorgan_and),
        RewriteRule("implies-material", Implies, zl, _t_implies_material),
        RewriteRule("not-via-implies", Not, all_four, _t_not_via_implies),
        RewriteRule("or-as-lattice", Or, zg, _t_or_as_lattice),
        RewriteRule("weak-and-define", WeakAnd, glp, _t_weak_and_define),
        RewriteRule("weak-and-collapse", WeakAnd, zg, _t_weak_and_collapse),
        RewriteRule("weak-or-define", WeakOr, glp, _t_weak_or_define),
        RewriteRule("weak-or-collapse", WeakOr, zg, _t_weak_or_collapse),
        RewriteRule("F-unfold", EventuallyB, all_four, _t_f_unfold),
        RewriteRule("G-unfold", AlwaysB, all_four, _t_g_unfold),
        RewriteRule("U-unfold", UntilB, zg, _make_u_unfold(Or)),
        RewriteRule("U-unfold-w", UntilB, lp, _make_u_unfold(WeakOr)),
        RewriteRule("AU-unfold", AlmostUntilB, zg, _make_au_unfold(Or)),
        RewriteRule("AU-unfold-w", AlmostUntilB, lp, _make_au_unfold(WeakOr)),
        RewriteRule("scale-to-and", Scale, frozenset({_P}), _t_scale_to_and),
        RewriteRule("soon-expand", Soon, all_four, _make_soon_expand(eta)),
        RewriteRule("within-expand", Within, all_four, _make_within_expand(eta)),
        RewriteRule("lasts-expand", Lasts, zg, _make_lasts_expand(eta, Or)),
        RewriteRule("lasts-expand-w", Lasts, lp, _make_lasts_expand(eta, WeakOr)),
        RewriteRule("ag-expand", AlmostAlwaysB, zg, _make_ag_expand(eta, Or)),
        RewriteRule("ag-expand-w", AlmostAlwaysB, lp, _make_ag_expand(eta, WeakOr)),
    ]
    return {rule.name: rule for rule in rules}


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _rewrite_first(f: Formula, rule: RewriteRule) -> Optional[Formula]:
    if type(f) is rule.pattern:
        return rule.transform(f)
    kids = children(f)
    for i, kid in enumerate(kids):
        new_kid = _rewrite_first(kid, rule)
        if new_kid is not None:
            return with_children(f, kids[:i] + (new_kid,) + kids[i + 1:])
    return None


def rewrite_once(f: Formula, rule: RewriteRule) -> Formula:
    """One leftmost-outermost application; the formula itself if no match."""
    out = _rewrite_first(f, rule)
    return f if out is None else out


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
    allowed = adequate_connectives(interp)
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) not in allowed:
            return False
        stack.extend(children(node))
    return True


class _LoweringState:
    """Tracks the expanded tree size across a lowering run.

    Rewrites share subtrees, so sizes are memoized per object; the cache
    holds a reference to each node to keep ids stable.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.total = 0
        self._sizes: dict[int, tuple[Formula, int]] = {}

    def size(self, f: Formula) -> int:
        hit = self._sizes.get(id(f))
        if hit is not None:
            return hit[1]
        total = 1
        for kid in children(f):
            total += self.size(kid)
        self._sizes[id(f)] = (f, total)
        return total

    def charge(self, old: Formula, new: Formula) -> None:
        self.total += self.size(new) - self.size(old)

    def over_budget(self) -> bool:
        return self.total > self.budget


def _lower_node(f: Formula, strategy, allowed, state: _LoweringState) -> Formula:
    # a rule cycle that never grows the tree would pass the size check
    # forever, so the budget also caps the rewrites of one node
    steps = 0
    while type(f) not in allowed:
        rule = strategy.get(type(f))
        if rule is None:
            raise NotLowerable(
                f"no sound rule removes {type(f).__name__} under this interpretation",
                partial=f,
            )
        new = rule.transform(f)
        state.charge(f, new)
        f = new
        if state.over_budget():
            raise BudgetExceeded(
                f"lowered form reached {state.total} nodes (budget {state.budget})", partial=f
            )
        steps += 1
        if steps > state.budget:
            raise BudgetExceeded(
                f"lowering one node took {steps} rewrite steps without finishing "
                f"(budget {state.budget})",
                partial=f,
            )
    kids = children(f)
    if not kids:
        return f
    lowered: list[Formula] = []
    for i, kid in enumerate(kids):
        try:
            lowered.append(_lower_node(kid, strategy, allowed, state))
        except (BudgetExceeded, NotLowerable) as exc:
            exc.partial = with_children(f, (*lowered, exc.partial, *kids[i + 1:]))
            raise
    return with_children(f, tuple(lowered))


def lower_to_adequate(
    f: Formula,
    interp: Interpretation,
    budget: int = 100_000,
    eta: Optional[AvoidingFunction] = None,
) -> Formula:
    """Rewrite until only the interpretation's adequate connectives remain.

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
    # the first sound rule for each node class, in rule_set's preference order
    strategy: dict[type, RewriteRule] = {}
    for rule in rule_set(eta).values():
        if interp in rule.applicable_interps:
            strategy.setdefault(rule.pattern, rule)
    state = _LoweringState(budget)
    state.total = state.size(f)
    if state.over_budget():
        raise BudgetExceeded(
            f"input already has {state.total} nodes (budget {budget})", partial=f
        )
    return _lower_node(f, strategy, allowed, state)
