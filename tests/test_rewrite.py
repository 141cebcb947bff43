import dataclasses
import hashlib
import itertools
import random
from functools import reduce

import pytest

from fuzzytl.checks import random_eta, random_formula, random_trace
from fuzzytl.core import (
    OPERATORS,
    AlmostAlways,
    Always,
    And,
    Atom,
    AvoidingFunction,
    Interpretation,
    Next,
    Not,
    Or,
    Scale,
    Top,
    Trace,
    Until,
    WeakOr,
    children,
    node_count,
)
from fuzzytl.errors import BudgetExceeded, NotLowerable
from fuzzytl.evaluator import EvalContext, FinitePolicy, evaluate
from fuzzytl import rewrite
from fuzzytl.parser import format_formula, parse
from fuzzytl.rewrite import (
    in_adequate_set,
    lower_to_adequate,
    rewrite_once,
    rule_set,
)

Z = Interpretation.ZADEH
G = Interpretation.GODEL
L = Interpretation.LUKASIEWICZ
P = Interpretation.PRODUCT

ETA_3 = AvoidingFunction((1.0, 0.5, 0.3))
RULES_3 = rule_set(ETA_3)


class TestRewriteOnce:
    def test_within_expands_through_the_penalty_tail(self):
        out = rewrite_once(parse("W[2] p"), RULES_3["within-expand"])
        assert format_formula(out) == "F[2] p | X[3] O[1] p | X[4] O[2] p"

    def test_fg_dual(self):
        out = rewrite_once(parse("G p"), RULES_3["FG-dual"])
        assert format_formula(out) == "!F!p"

    def test_f_from_until(self):
        out = rewrite_once(parse("F p"), RULES_3["F-from-until"])
        assert out == Until(Top(), Atom("p"))
        assert format_formula(out) == "true U p"

    def test_no_match_is_identity(self):
        f = parse("p & q")
        assert rewrite_once(f, RULES_3["FG-dual"]) is f

    def test_leftmost_outermost(self):
        f = parse("G(G p & q)")
        out = rewrite_once(f, RULES_3["FG-dual"])
        assert out == parse("!F!(G p & q)")

    def test_leftmost_of_siblings_only(self):
        f = parse("(p & X G q) | G r")
        out = rewrite_once(f, RULES_3["FG-dual"])
        assert out == parse("(p & X !F!q) | G r")
        # only the path down to the match is rebuilt
        assert out.left.left is f.left.left and out.right is f.right

    def test_deep_formula_without_recursion(self):
        # compared as text: == on 3000 nested nodes still recurses
        out = rewrite_once(parse("X[3000] (p | G q)"), RULES_3["FG-dual"])
        assert format_formula(out) == "X[3000](p | !F!q)"
        f = parse("X[3000] p")
        assert rewrite_once(f, RULES_3["FG-dual"]) is f

    def test_soon_expand_crisp_table_is_next(self):
        rules = rule_set(AvoidingFunction.crisp())
        assert rewrite_once(parse("S p"), rules["soon-expand"]) == parse("X p")
        assert rewrite_once(parse("W[2] p"), rules["within-expand"]) == parse("F[2] p")


class TestRuleSoundness:
    """Spot checks; the broad sweep lives in the rewrites law suite."""

    @pytest.mark.parametrize("name", sorted(rule_set(ETA_3)))
    def test_rule_preserves_value_on_random_samples(self, name):
        from fuzzytl.checks import _pattern_instance

        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(40):
            eta = random_eta(rng, max_n=4, min_n=2 if name == "scale-to-and" else 1)
            rule = rule_set(eta)[name]
            before = _pattern_instance(rng, name, eta.n_eta)
            after = rewrite_once(before, rule)
            trace = random_trace(rng, max_len=7)
            pos = rng.randrange(len(trace))
            for interp in rule.applicable_interps:
                ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
                v0 = evaluate(ctx, before, pos).value
                v1 = evaluate(ctx, after, pos).value
                assert abs(v0 - v1) <= 1e-12, (name, interp, format_formula(before))


class TestRulePatterns:
    @pytest.mark.parametrize("name", sorted(RULES_3))
    def test_rule_rewrites_its_own_pattern_at_the_root(self, name):
        # a rule whose pattern names the wrong class would match nothing (or
        # only some child) and still pass the value-preservation sweep
        from fuzzytl.checks import _pattern_instance

        rule = RULES_3[name]
        rng = random.Random(name)
        for _ in range(10):
            before = _pattern_instance(rng, name, ETA_3.n_eta)
            assert type(before) is rule.pattern
            after = rewrite_once(before, rule)
            assert after == rule.transform(before) != before, (name, format_formula(before))

    @pytest.mark.parametrize(
        "text, interp, lowered",
        [
            ("F p", Z, "true U p"),  # F-from-until, not GF-dual
            ("p && q", G, "p & (p -> q)"),  # weak-and-define, not weak-and-collapse
            ("p || q", Z, "!(!p & !q)"),  # weak-or-collapse, then demorgan-or
        ],
    )
    def test_lowering_takes_the_first_sound_rule(self, text, interp, lowered):
        assert lower_to_adequate(parse(text), interp, eta=ETA_3) == parse(lowered)


class TestLowering:
    @pytest.mark.parametrize("interp", [Z, G, L, P], ids=lambda i: i.value)
    def test_lowering_reaches_target_and_preserves_value(self, interp):
        rng = random.Random(interp.value)
        corpus = ["S p", "W[1] p", "L[2] p", "AG[2] p", "p U[2] q", "p AU[1] q", "p || q", "!p | q"]
        for text in corpus:
            f = parse(text)
            eta = random_eta(rng, max_n=3)
            lowered = lower_to_adequate(f, interp, budget=200_000, eta=eta)
            assert in_adequate_set(lowered, interp), (text, format_formula(lowered))
            for _ in range(5):
                trace = random_trace(rng, max_len=6)
                ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
                pos = rng.randrange(len(trace))
                v0 = evaluate(ctx, f, pos).value
                v1 = evaluate(ctx, lowered, pos).value
                assert abs(v0 - v1) <= 1e-12, (text, interp)

    def test_zadeh_always_goes_through_duality(self):
        lowered = lower_to_adequate(parse("G p"), Z, eta=ETA_3)
        assert in_adequate_set(lowered, Z)
        assert lowered == parse("!(true U !p)")

    def test_product_almost_always_blows_the_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            lower_to_adequate(parse("AG[4] p"), P, budget=10_000, eta=ETA_3)
        assert node_count(err.value.partial) > 10_000

    def test_unbounded_almost_always_is_not_lowerable(self):
        for interp in (Z, G, L, P):
            with pytest.raises(NotLowerable):
                lower_to_adequate(AlmostAlways(Atom("p")), interp, eta=ETA_3)

    def test_godel_unbounded_always_is_not_lowerable(self):
        # the duality needs an involutive negation and until cannot express it
        with pytest.raises(NotLowerable):
            lower_to_adequate(Always(Atom("p")), G, eta=ETA_3)

    def test_size_neutral_rule_cycle_ends(self, monkeypatch):
        # with or-as-lattice matching WeakOr, p || q rewrites to itself forever
        # without growing; the budget must cap the steps, not only the size
        def cyclic_rules(eta):
            rules = rule_set(eta)
            rules["or-as-lattice"] = dataclasses.replace(rules["or-as-lattice"], pattern=WeakOr)
            return rules

        monkeypatch.setattr(rewrite, "rule_set", cyclic_rules)
        with pytest.raises(BudgetExceeded, match="100001 rewrite steps"):
            lower_to_adequate(parse("p || q"), Z, eta=ETA_3)

    def test_budget_carries_partial_form(self):
        with pytest.raises(BudgetExceeded) as err:
            lower_to_adequate(parse("AG[4] p | AG[4] q"), P, budget=500, eta=ETA_3)
        assert err.value.partial is not None


class TestDualityScope:
    def test_fg_dual_not_offered_for_godel_or_product(self):
        rule = RULES_3["FG-dual"]
        assert G not in rule.applicable_interps
        assert P not in rule.applicable_interps

    def test_fg_dual_fails_numerically_under_godel(self):
        half = Trace(("p",), ((0.5,),), loop_start=0)
        ctx = EvalContext(half, G, AvoidingFunction.crisp())
        # !p collapses to 0 under the strict negation, so !F!p swings to 1
        dual = evaluate(ctx, Not(parse("F !p"))).value
        plain = evaluate(ctx, parse("G p")).value
        assert dual != plain
        assert (dual, plain) == (1.0, 0.5)


def _prefix(f):
    """Prefix text of the expanded tree, walked without recursion."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        spec = OPERATORS[type(node)]
        out.append(node.name if type(node) is Atom else type(node).__name__)
        if spec.param is not None:
            out.append(str(getattr(node, spec.param)))
        stack.extend(reversed(children(node)))
    return " ".join(out)


def _outcome(f, interp, budget):
    try:
        return "ok " + _prefix(lower_to_adequate(f, interp, budget, ETA_3))
    except (BudgetExceeded, NotLowerable) as exc:
        return f"{type(exc).__name__} {exc} | {_prefix(exc.partial)}"


def _distinct_nodes(f):
    seen, stack = {}, [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(children(node))
    return len(seen)


class TestSharedLowering:
    """Lowering each shared node object once must not change any outcome."""

    def test_outcomes_match_the_node_by_node_walk(self):
        # digest of the same set under a walk that lowered every use of a
        # shared subtree again: results, messages and partial forms
        rng = random.Random(20240)
        h = hashlib.sha256()
        for _ in range(400):
            f = random_formula(rng, depth=3, max_bound=3, n_eta=ETA_3.n_eta)
            for interp in (Z, G, L, P):
                for budget in (60, 2000):
                    h.update(_outcome(f, interp, budget).encode() + b"\n")
        assert h.hexdigest() == "6bad61d398d1f2226ed8493f09ee757d2845ee3a2255b71f6550ec4171236724"

    def test_replay_refused_when_the_peak_crosses_the_budget(self):
        # a repeat of a lowered subtree would fit by its net growth, but its
        # lowering passes through a larger tree on the way, which the budget
        # catches; replaying by net growth alone would report 90 nodes
        with pytest.raises(BudgetExceeded) as err:
            lower_to_adequate(parse("F[2] p"), G, budget=87)
        assert str(err.value) == "lowered form reached 92 nodes (budget 87)"
        assert format_formula(err.value.partial) == (
            "((p -> X(((p -> X p) -> X p) & (((p -> X p) -> X p) -> (X p -> p) -> p))) "
            "-> X(((p -> X p) -> X p) & (((p -> X p) -> X p) -> (X p -> p) -> p))) "
            "& (((p -> X(((p -> X F[0] p) -> X F[0] p) & (((p -> X F[0] p) -> X F[0] p) "
            "-> (X F[0] p -> p) -> p))) -> X F[1] p) -> (X F[1] p -> p) -> p)"
        )
        assert err.value.partial.size == 92

    @pytest.mark.parametrize(
        "text, interp, nodes",
        [
            ("F[300] a", Z, 1801),
            ("F[300] a", G, None),
            ("F[300] a", L, 2701),
            ("F[300] a", P, 901),
            ("X[5000] p", Z, 5001),
            ("G[2000] (p -> F[3] q)", Z, 54025),
            ("G[2000] (p -> F[3] q)", G, None),
            ("G[2000] (p -> F[3] q)", L, 64030),
            ("G[2000] (p -> F[3] q)", P, 28012),
        ],
    )
    def test_deep_formulas_lower_without_recursion(self, text, interp, nodes):
        f = parse(text)
        if nodes is None:
            # Godel's weak-or definition copies the tail at every step
            with pytest.raises(BudgetExceeded, match=r"reached 10000[0-9] nodes"):
                lower_to_adequate(f, interp, eta=ETA_3)
            return
        lowered = lower_to_adequate(f, interp, eta=ETA_3)
        assert node_count(lowered) == nodes
        assert in_adequate_set(lowered, interp)

    def test_a_shared_subtree_is_lowered_once(self):
        s = parse("W[2] p")
        lowered = lower_to_adequate(And(s, s), P, eta=ETA_3)
        assert lowered.left is lowered.right
        assert lowered.left == lower_to_adequate(s, P, eta=ETA_3)

    def test_in_adequate_set_visits_each_node_object_once(self):
        f = Atom("p")
        for _ in range(200):  # 2**201 - 1 nodes when expanded
            f = And(f, f)
        assert in_adequate_set(f, P)
        assert not in_adequate_set(Or(f, Not(f)), Z)

    def test_ag_expand_spells_the_same_tree_from_shared_parts(self):
        def nexts(h, f):
            for _ in range(h):
                f = Next(f)
            return f

        f = parse("AG[4] (p | q)")
        terms = []
        for j in range(3):
            for kept in itertools.combinations(range(5), 5 - j):
                body = reduce(And, [nexts(h, f.arg) for h in kept])
                terms.append(body if j == 0 else Scale(j, body))
        want = reduce(Or, terms)
        out = rewrite_once(f, RULES_3["ag-expand"])
        assert out == want and node_count(out) == node_count(want) == 344
        assert _distinct_nodes(out) * 3 < _distinct_nodes(want)


class TestRuleSet:
    def test_names_and_preference_order(self):
        assert list(RULES_3) == [
            "FG-dual", "F-from-until", "GF-dual", "demorgan-or", "demorgan-and",
            "implies-material", "not-via-implies", "or-as-lattice", "weak-and-define",
            "weak-and-collapse", "weak-or-define", "weak-or-collapse", "F-unfold",
            "G-unfold", "U-unfold", "U-unfold-w", "AU-unfold", "AU-unfold-w",
            "scale-to-and", "soon-expand", "within-expand", "lasts-expand",
            "lasts-expand-w", "ag-expand", "ag-expand-w",
        ]  # fmt: skip

    def test_fixed_rules_are_shared_and_the_dict_is_fresh(self):
        crisp = rule_set(AvoidingFunction.crisp())
        assert crisp is not rule_set(AvoidingFunction.crisp())
        assert crisp["FG-dual"] is RULES_3["FG-dual"]
        assert crisp["ag-expand"] is not RULES_3["ag-expand"]
