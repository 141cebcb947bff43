import functools
import hashlib
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from fuzzytl import algebra, evaluator
from fuzzytl.checks import random_formula
from fuzzytl.core import (
    AlmostAlways,
    AlmostAlwaysB,
    AlmostUntil,
    Always,
    AlwaysB,
    And,
    Atom,
    AvoidingFunction,
    Eventually,
    EventuallyB,
    Interpretation,
    Next,
    Not,
    Scale,
    Top,
    Trace,
    Until,
)
from fuzzytl.errors import (
    FormulaTooDeep,
    FtlError,
    HorizonExceedsTrace,
    NotALasso,
    PositionOutOfRange,
    ScaleIndexOutOfRange,
    UnknownAtom,
    ValidationError,
)
from fuzzytl.evaluator import (
    EvalContext,
    Exactness,
    FinitePolicy,
    almost_always_fast,
    eval_unbounded_lasso,
    evaluate,
)
from fuzzytl.oracle import oracle_almost_always, oracle_almost_until
from fuzzytl.parser import parse
from fuzzytl.trace_io import parse_eta_spec

Z = Interpretation.ZADEH
G = Interpretation.GODEL
L = Interpretation.LUKASIEWICZ
P = Interpretation.PRODUCT

ETA_3 = AvoidingFunction((1.0, 0.5, 0.3))

#: The worked four-state trace used throughout: p = 0.1, 0.2, 1, 0.1.
WORKED = Trace(("p",), ((0.1,), (0.2,), (1.0,), (0.1,)))


def ctx_for(trace, interp=Z, eta=ETA_3, policy=FinitePolicy.STRICT):
    return EvalContext(trace, interp, eta, policy)


class TestWorkedValues:
    def test_bounded_almost_always(self):
        ctx = ctx_for(WORKED)
        assert evaluate(ctx, parse("AG[1] p")).value == 0.1
        assert evaluate(ctx, parse("AG[2] p")).value == 0.3
        # enumeration over every avoidance subset gives 0.1 here, not 0.06:
        # j=0 keeps min 0.1, j=1 yields 0.1*0.5, j=2 yields 0.2*0.3
        assert evaluate(ctx, parse("AG[3] p")).value == 0.1

    def test_almost_always_not_monotone_in_window(self):
        ctx = ctx_for(WORKED)
        values = [evaluate(ctx, parse(f"AG[{t}] p")).value for t in range(4)]
        assert values[1] < values[2] > values[3]

    def test_bounded_until(self):
        trace = Trace(("f", "s"), ((1.0, 0.0), (1.0, 0.4), (0.5, 0.9)))
        assert evaluate(ctx_for(trace), parse("f U[2] s")).value == 0.9

    def test_soon(self):
        trace = Trace(("p",), ((0.0,), (0.0,), (0.8,), (1.0,)))
        eta = AvoidingFunction((1.0, 0.5, 0.25))
        assert evaluate(ctx_for(trace, Z, eta), parse("S p")).value == 0.4
        assert evaluate(ctx_for(trace, L, eta), parse("S p")).value == 0.65

    def test_next(self):
        trace = Trace(("q",), ((0.2,), (0.7,)))
        result = evaluate(ctx_for(trace), parse("X q"))
        assert result.value == 0.7
        assert result.exactness is Exactness.EXACT


class TestConnectives:
    def test_implication_uses_interpretation(self):
        trace = Trace(("p", "q"), ((0.8, 0.4),))
        assert evaluate(ctx_for(trace, P), parse("p -> q")).value == 0.5
        assert evaluate(ctx_for(trace, G), parse("p -> q")).value == 0.4
        assert evaluate(ctx_for(trace, Z), parse("p -> q")).value == pytest.approx(0.4)

    def test_weak_connectives_are_min_max(self):
        trace = Trace(("p", "q"), ((0.8, 0.4),))
        for interp in (Z, G, L, P):
            ctx = ctx_for(trace, interp)
            assert evaluate(ctx, parse("p && q")).value == pytest.approx(0.4, abs=1e-12)
            assert evaluate(ctx, parse("p || q")).value == pytest.approx(0.8, abs=1e-12)

    def test_constants(self):
        ctx = ctx_for(WORKED)
        assert evaluate(ctx, parse("true")).value == 1.0
        assert evaluate(ctx, parse("false")).value == 0.0


class TestScale:
    def test_scales_by_eta(self):
        ctx = ctx_for(WORKED)
        assert evaluate(ctx, parse("O[1] p"), 2).value == 0.5
        assert evaluate(ctx, parse("O[2] p"), 2).value == 0.3

    @pytest.mark.parametrize("index", [0, 3, 7])
    def test_rejects_out_of_range_index(self, index):
        with pytest.raises(ScaleIndexOutOfRange):
            evaluate(ctx_for(WORKED), Scale(index, Atom("p")))

    def test_reserved_eta_atom(self):
        ctx = ctx_for(WORKED)
        assert evaluate(ctx, Atom("__eta_1")).value == 0.5
        assert evaluate(ctx, Atom("__eta_9")).value == 0.0


class TestFinitePolicies:
    def test_strict_raises_past_the_end(self):
        ctx = ctx_for(WORKED)
        with pytest.raises(HorizonExceedsTrace):
            evaluate(ctx, parse("X p"), 3)
        with pytest.raises(HorizonExceedsTrace):
            evaluate(ctx, parse("G[5] p"), 0)
        with pytest.raises(HorizonExceedsTrace):
            evaluate(ctx, parse("S p"), 2)

    def test_strict_almost_until_reads_its_whole_window(self):
        # the value is settled by s(0) = 0.5 long before the window ends, but
        # the window still leaves the trace
        trace = Trace(("f", "s"), ((0.0, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(HorizonExceedsTrace):
            evaluate(ctx_for(trace), parse("f AU[5] s"))

    @pytest.mark.parametrize("op", ["U", "AU"])
    def test_until_reports_the_first_step_that_leaves(self, op):
        # the steps read right(0), left(0), right(1), ...: left(0) already
        # reads position 7, before the right child reaches position 4
        with pytest.raises(HorizonExceedsTrace, match="position 7 "):
            evaluate(ctx_for(WORKED), parse(f"(X[7] p) {op}[6] p"))

    def test_pad_zero_treats_missing_states_as_zero(self):
        ctx = ctx_for(WORKED, policy=FinitePolicy.PAD_ZERO)
        assert evaluate(ctx, parse("X p"), 3).value == 0.0
        assert evaluate(ctx, parse("X !p"), 3).value == 1.0
        assert evaluate(ctx, parse("G[5] p"), 0).value == 0.0

    def test_initial_position_bounds(self):
        with pytest.raises(PositionOutOfRange):
            evaluate(ctx_for(WORKED), parse("p"), 4)
        ok = evaluate(ctx_for(WORKED, policy=FinitePolicy.PAD_ZERO), parse("p"), 9)
        assert ok.value == 0.0

    def test_unknown_atom_surfaces(self):
        with pytest.raises(UnknownAtom):
            evaluate(ctx_for(WORKED), parse("nope"))
        # past the end too, where pad-zero reads the zero state
        pad = ctx_for(WORKED, policy=FinitePolicy.PAD_ZERO)
        for text, pos in (("X[2] nope", 3), ("nope", 4), ("G[9] nope", 9)):
            with pytest.raises(UnknownAtom, match="^atom 'nope' not in trace"):
                evaluate(pad, parse(text), pos)


class TestContextFields:
    """An EvalContext refuses a field of the wrong class when it is built,
    so a policy given as the string "strict" cannot evaluate as pad-zero,
    and a tuple trace or eta=None cannot fail later with AttributeError."""

    THREE = Trace(("p",), ((0.1,), (0.2,), (1.0,)))

    def test_enum_fields_take_members_only(self):
        with pytest.raises(ValidationError, match="^finite policy 'strict' is not a FinitePolicy$"):
            EvalContext(self.THREE, Z, ETA_3, "strict")
        with pytest.raises(ValidationError, match="^interpretation 'zadeh' is not an Interpretation$"):
            EvalContext(self.THREE, "zadeh", ETA_3)
        with pytest.raises(HorizonExceedsTrace):
            evaluate(EvalContext(self.THREE, Z, ETA_3, FinitePolicy.STRICT), parse("F[5] p"))

    def test_trace_and_eta_take_their_classes_only(self):
        with pytest.raises(TypeError, match="^eta must be an AvoidingFunction, not NoneType$"):
            EvalContext(self.THREE, Z, None)
        with pytest.raises(TypeError, match="^trace must be a Trace, not tuple$"):
            EvalContext(self.THREE.states, Z, ETA_3)
        with pytest.raises(TypeError, match="^eta must be an AvoidingFunction, not tuple$"):
            EvalContext(self.THREE, Z, (1.0, 0.5))


class TestDeepNext:
    """X[100000] unwraps without recursion and without hashing the chain."""

    DEEP = parse("X[100000] p")

    def test_strict_policy_leaves_the_trace(self):
        with pytest.raises(HorizonExceedsTrace, match="position 100000"):
            evaluate(ctx_for(WORKED), self.DEEP)

    def test_pad_zero_reads_the_padded_tail(self):
        result = evaluate(ctx_for(WORKED, policy=FinitePolicy.PAD_ZERO), self.DEEP)
        assert (result.value, result.exactness) == (0.0, Exactness.EXACT)

    def test_lasso_wraps(self):
        lasso = Trace(("p",), ((0.9,), (0.5,), (0.7,), (0.2,)), loop_start=1)
        result = evaluate(ctx_for(lasso), self.DEEP)
        assert result.value == lasso.at(lasso.resolve(100000), "p")
        assert result.exactness is Exactness.EXACT


class TestSharedSubformulas:
    """A node shared by two windows is computed once; the second window
    reads its column and must join the same exactness tags."""

    TRACE = Trace(("p",), ((0.2,), (0.7,), (0.3,), (0.5,)))

    def test_cached_span_keeps_its_bound_direction(self):
        ctx = ctx_for(self.TRACE)
        fp = Eventually(Atom("p"))  # LowerBound at every position of a finite trace
        g, f = AlwaysB(1, fp), EventuallyB(1, fp)
        alone = [evaluate(ctx, w) for w in (g, f)]
        assert [r.exactness for r in alone] == [Exactness.LOWER_BOUND] * 2
        both = evaluate(ctx, And(g, f))
        assert both.exactness is Exactness.LOWER_BOUND
        assert both.value == min(r.value for r in alone)

    def test_negated_cached_span_flips_direction(self):
        ctx = ctx_for(self.TRACE)
        fp = Eventually(Atom("p"))
        assert evaluate(ctx, AlwaysB(1, Not(fp))).exactness is Exactness.UPPER_BOUND
        mixed = evaluate(ctx, And(AlwaysB(1, Not(fp)), EventuallyB(1, fp)))
        assert mixed.exactness is Exactness.APPROXIMATE


def test_point_evaluation_allocates_only_what_it_reads():
    # columns grow from the evaluated position only as far as the evaluation
    # reads, so one position of a wide formula on a long trace stays small
    trace = Trace(("a",), ((0.5,),) * 20_000)
    f = parse(" && ".join(["a"] * 300))
    tracemalloc.start()
    try:
        for pos in (0, 19_999):
            assert evaluate(ctx_for(trace), f, pos).value == 0.5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _off_grid_column(seed, n):
    """Seeded off-grid degrees with repeated values, 0.0 and -0.0."""
    rng = random.Random(seed)
    values = [rng.random() for _ in range(n)]
    for i in rng.sample(range(n), n // 4):
        values[i] = values[rng.randrange(n)]  # ties
    values[rng.randrange(n)] = -0.0
    values[rng.randrange(n)] = 0.0
    return values


class TestWindowFoldsAreBitIdentical:
    """Window folds must give the bits of a fold in position order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_product_always_is_the_positional_product(self, seed):
        values = _off_grid_column(seed, 40)
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in values)), P)
        for pos in range(0, 30, 3):
            for t in (0, 1, 9):
                want = functools.reduce(lambda a, b: a * b, values[pos : pos + t + 1])
                got = evaluate(ctx, AlwaysB(t, Atom("p")), pos).value
                assert got == want and got.hex() == want.hex()

    @pytest.mark.parametrize("interp", [Z, G])
    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_windows_keep_the_first_of_equal_values(self, interp, seed):
        values = _off_grid_column(seed, 40)
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in values)), interp)
        for pos in range(0, 30, 3):
            window = values[pos : pos + 11]
            got_f = evaluate(ctx, EventuallyB(10, Atom("p")), pos).value
            got_g = evaluate(ctx, AlwaysB(10, Atom("p")), pos).value
            # hex tells -0.0 from 0.0, which == does not
            assert got_f.hex() == functools.reduce(algebra._maximum, window).hex()
            assert got_g.hex() == functools.reduce(algebra._minimum, window).hex()

    @pytest.mark.parametrize("interp", [Z, G])
    def test_signed_zeros_keep_the_first(self, interp):
        zeros = (0.0, -0.0, -0.0, 0.0)
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in zeros)), interp)
        for pos in range(3):
            window = zeros[pos : pos + 2]
            got_f = evaluate(ctx, EventuallyB(1, Atom("p")), pos).value
            got_g = evaluate(ctx, AlwaysB(1, Atom("p")), pos).value
            assert got_f.hex() == functools.reduce(algebra._maximum, window).hex()
            assert got_g.hex() == functools.reduce(algebra._minimum, window).hex()

    @pytest.mark.parametrize("interp", [L, P])
    @pytest.mark.parametrize("seed", range(5))
    def test_archimedean_almost_always_matches_enumeration(self, interp, seed):
        values = _off_grid_column(seed, 12)
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in values)), interp)
        for t in (0, 3, 6):
            for pos in range(len(values) - t):
                got = evaluate(ctx, AlmostAlwaysB(t, Atom("p")), pos).value
                assert got == oracle_almost_always(ctx, Atom("p"), pos, t)


class TestUnboundedOnFiniteTraces:
    def test_directions(self):
        trace = Trace(("q",), ((0.2,), (0.7,), (0.3,)))
        ctx = ctx_for(trace)
        g = evaluate(ctx, parse("G q"))
        assert (g.value, g.exactness) == (0.2, Exactness.UPPER_BOUND)
        f = evaluate(ctx, parse("F q"))
        assert (f.value, f.exactness) == (0.7, Exactness.LOWER_BOUND)
        ag = evaluate(ctx, parse("AG q"))
        assert ag.exactness is Exactness.APPROXIMATE
        u = evaluate(ctx, parse("q U q"))
        assert u.exactness is Exactness.LOWER_BOUND

    def test_largest_window_at_last_state(self):
        trace = Trace(("q",), ((0.2,), (0.7,), (0.3,)))
        ctx = ctx_for(trace)
        assert evaluate(ctx, parse("F q"), 2).value == 0.3


class TestLassoLimits:
    LASSO = Trace(("p",), ((0.9,), (0.5,), (0.7,)), loop_start=1)

    def test_always_idempotent(self):
        result = evaluate(ctx_for(self.LASSO), parse("G p"))
        assert (result.value, result.exactness) == (0.5, Exactness.EXACT)

    def test_always_archimedean_vanishes(self):
        assert evaluate(ctx_for(self.LASSO, P), parse("G p")).value == 0.0
        assert evaluate(ctx_for(self.LASSO, L), parse("G p")).value == 0.0

    def test_eventually_saturates(self):
        lasso = Trace(("p",), ((0.3,),), loop_start=0)
        assert evaluate(ctx_for(lasso, L), parse("F p")).value == 1.0
        assert evaluate(ctx_for(lasso, Z), parse("F p")).value == 0.3

    def test_all_ones_loop_keeps_prefix_product(self):
        lasso = Trace(("p",), ((1.0,), (1.0,)), loop_start=1)
        assert evaluate(ctx_for(lasso, P), parse("G p")).value == 1.0

    def test_constant_lasso_agrees(self):
        lasso = Trace(("p",), ((0.4,),), loop_start=0)
        for interp in (Z, G):
            ctx = ctx_for(lasso, interp)
            assert evaluate(ctx, parse("F p")).value == 0.4
            assert evaluate(ctx, parse("G p")).value == 0.4

    def test_positions_wrap(self):
        ctx = ctx_for(self.LASSO)
        assert evaluate(ctx, parse("p"), 4).value == 0.7
        assert evaluate(ctx, parse("G p"), 1).value == evaluate(ctx, parse("G p"), 3).value

    def test_entry_point_validates_head(self):
        with pytest.raises(NotALasso):
            eval_unbounded_lasso(ctx_for(WORKED), Eventually(Atom("p")), 0)
        for head in (Atom("p"), parse("G[2] p"), "p"):
            with pytest.raises(TypeError, match="is not an unbounded operator"):
                eval_unbounded_lasso(ctx_for(self.LASSO), head, 0)

    def test_unbounded_until_on_lasso(self):
        # psi peaks inside the loop; phi stays high through the prefix
        trace = Trace(
            ("f", "s"),
            ((1.0, 0.0), (0.75, 0.25), (1.0, 0.5), (1.0, 0.0)),
            loop_start=2,
        )
        ctx = ctx_for(trace)
        assert evaluate(ctx, parse("f U s")).value == 0.5
        assert eval_unbounded_lasso(ctx, Until(Atom("f"), Atom("s")), 0) == 0.5
        assert eval_unbounded_lasso(ctx, AlmostUntil(Atom("f"), Atom("s")), 0) >= 0.5

    def test_unbounded_almost_always_drops_prefix_dips(self):
        trace = Trace(("p",), ((0.2,), (0.9,), (0.8,)), loop_start=1)
        eta = AvoidingFunction((1.0, 0.5))
        ctx = ctx_for(trace, Z, eta)
        # keeping everything scores 0.2; dropping the prefix dip scores 0.8 * 0.5
        assert evaluate(ctx, AlmostAlways(Atom("p"))).value == 0.4


class TestAlmostAlwaysFast:
    def test_window_of_one(self):
        ctx = ctx_for(WORKED)
        assert almost_always_fast(ctx, Atom("p"), 1, 0) == 0.2

    def test_matches_evaluate(self):
        ctx = ctx_for(WORKED)
        for t in range(4):
            assert almost_always_fast(ctx, Atom("p"), 0, t) == evaluate(
                ctx, parse(f"AG[{t}] p")
            ).value

    def test_composite_child(self):
        ctx = ctx_for(WORKED, policy=FinitePolicy.PAD_ZERO)
        fast = almost_always_fast(ctx, Next(Atom("p")), 0, 2)
        assert fast == evaluate(ctx, parse("AG[2] X p")).value

    def test_negative_position_rejected(self):
        with pytest.raises(PositionOutOfRange):
            almost_always_fast(ctx_for(WORKED), Atom("p"), -1, 2)

    @pytest.mark.parametrize("interp", [Z, G, L, P])
    def test_negative_window_rejected(self, interp):
        with pytest.raises(ValidationError, match="negative window -1"):
            almost_always_fast(ctx_for(WORKED, interp), Atom("p"), 0, -1)


class TestStartPositions:
    """evaluate, almost_always_fast and eval_unbounded_lasso check where they
    start by one rule."""

    LASSO = Trace(("p",), ((0.9,), (0.5,), (0.7,)), loop_start=1)

    def test_past_a_strict_finite_end_is_out_of_range(self):
        ctx = ctx_for(Trace(("p",), ((0.1,), (0.2,), (1.0,))))
        message = "^position 5 past the end of a 3-state finite trace$"
        with pytest.raises(PositionOutOfRange, match=message):
            evaluate(ctx, parse("AG[1] p"), 5)
        with pytest.raises(PositionOutOfRange, match=message):
            almost_always_fast(ctx, Atom("p"), 5, 1)

    @pytest.mark.parametrize("pos", [1.5, 1.0, Fraction(3, 2), "1", None, True, False])
    def test_a_position_that_is_not_an_integer_is_a_validation_error(self, pos):
        with pytest.raises(ValidationError, match="is not an integer"):
            evaluate(ctx_for(WORKED), parse("p"), pos)
        with pytest.raises(ValidationError, match="is not an integer"):
            almost_always_fast(ctx_for(WORKED), Atom("p"), pos, 1)
        with pytest.raises(ValidationError, match="is not an integer"):
            eval_unbounded_lasso(ctx_for(self.LASSO), Eventually(Atom("p")), pos)

    def test_integral_positions_are_integers(self):
        class Two:
            def __index__(self):
                return 2

        ctx = ctx_for(WORKED)
        assert evaluate(ctx, parse("p"), Two()).value == 1.0
        assert almost_always_fast(ctx, Atom("p"), Two(), 1) == almost_always_fast(ctx, Atom("p"), 2, 1)
        lasso = ctx_for(self.LASSO)
        assert eval_unbounded_lasso(lasso, Always(Atom("p")), Two()) == 0.5

    @pytest.mark.parametrize("t", [1.5, 1.0, "1", None, True])
    def test_a_window_that_is_not_an_integer_is_a_validation_error(self, t):
        ctx = ctx_for(Trace(("p",), ((0.1,), (0.2,), (1.0,))))
        with pytest.raises(ValidationError, match=f"^window {t!r} is not an integer$"):
            almost_always_fast(ctx, Atom("p"), 0, t)

    def test_integral_windows_are_integers(self):
        class One:
            def __index__(self):
                return 1

        ctx = ctx_for(Trace(("p",), ((0.1,), (0.2,), (1.0,))))
        assert almost_always_fast(ctx, Atom("p"), 0, One()) == almost_always_fast(ctx, Atom("p"), 0, 1)

    def test_a_value_that_is_not_a_formula_node_is_a_type_error(self):
        ctx = ctx_for(WORKED)
        with pytest.raises(TypeError, match="^unknown formula node 'p'$"):
            evaluate(ctx, "p")
        with pytest.raises(TypeError, match="^unknown formula node None$"):
            almost_always_fast(ctx, None, 0, 1)

    def test_a_child_that_is_not_a_formula_node_is_a_type_error(self):
        # the constructors read only a child's int size, so the evaluator is
        # where such a child is met
        class X:
            size = 1

        ctx = ctx_for(WORKED)
        for f in (Not(X()), And(Atom("p"), X()), EventuallyB(2, X()), Until(X(), Atom("p"))):
            with pytest.raises(TypeError, match="^unknown formula node of class X$"):
                evaluate(ctx, f)
        with pytest.raises(TypeError, match="^unknown formula node of class X$"):
            almost_always_fast(ctx, Not(X()), 0, 1)


def test_exactness_tags_join_and_flip():
    # on a 3-state finite trace p is exact, F p a lower bound, G p an upper
    # bound and AG p approximate; && is monotone in both arguments, ! and the
    # premise of -> are antitone
    ctx = ctx_for(Trace(("p",), ((0.1,), (0.2,), (1.0,))))
    E, A = Exactness.EXACT, Exactness.APPROXIMATE
    LB, UB = Exactness.LOWER_BOUND, Exactness.UPPER_BOUND
    children = {"p": E, "F p": LB, "G p": UB, "AG p": A}
    joined = {
        E: {E: E, LB: LB, UB: UB, A: A},
        LB: {E: LB, LB: LB, UB: A, A: A},
        UB: {E: UB, LB: A, UB: UB, A: A},
        A: {E: A, LB: A, UB: A, A: A},
    }
    flipped = {E: E, LB: UB, UB: LB, A: A}
    for x, ex in children.items():
        assert evaluate(ctx, parse(x)).exactness is ex
        for y, ey in children.items():
            assert evaluate(ctx, parse(f"({x}) && ({y})")).exactness is joined[ex][ey], (x, y)
        assert evaluate(ctx, parse(f"!({x})")).exactness is flipped[ex], x
        assert evaluate(ctx, parse(f"({x}) -> p")).exactness is flipped[ex], x


def test_within_equals_eventually_when_crisp_table():
    trace = Trace(("p",), ((0.0,), (0.0,), (0.9,), (0.4,)))
    ctx = EvalContext(trace, Z, AvoidingFunction.crisp())
    for t in range(3):
        assert (
            evaluate(ctx, parse(f"W[{t}] p")).value
            == evaluate(ctx, parse(f"F[{t}] p")).value
        )


def test_within_reaches_past_the_bound_at_a_penalty():
    trace = Trace(("p",), ((0.0,), (0.0,), (1.0,), (0.0,)))
    ctx = ctx_for(trace)
    # the hit at position 2 is one instant past the bound, so eta(1) applies
    assert evaluate(ctx, parse("W[1] p")).value == 0.5
    assert evaluate(ctx, parse("F[1] p")).value == 0.0


def test_lasts_trades_tail_for_penalty():
    trace = Trace(("p",), ((0.9,), (0.8,), (0.1,)))
    ctx = ctx_for(trace)
    # full window scores 0.1; cutting one instant scores 0.8 * 0.5
    assert evaluate(ctx, parse("L[2] p")).value == 0.4


def test_memoization_shares_subformula_positions():
    trace = Trace(("p",), tuple((v,) for v in (0.25, 0.5, 0.75, 1.0)))
    ctx = ctx_for(trace)
    f = parse("F[2] p & G[2] p & F[2] p")
    assert evaluate(ctx, f).value == evaluate(ctx, parse("G[2] p")).value


def test_top_past_the_end_is_still_out_of_range_when_strict():
    ctx = ctx_for(WORKED)
    with pytest.raises(HorizonExceedsTrace):
        evaluate(ctx, Next(Top()), 3)


@pytest.mark.parametrize("interp", [Z, G, L, P])
def test_lattice_connectives_are_exact_off_grid(interp):
    rng = random.Random(11)
    rows = tuple((rng.random(), rng.random()) for _ in range(200))
    ctx = ctx_for(Trace(("p", "q"), rows), interp)
    for pos, (a, b) in enumerate(rows):
        assert evaluate(ctx, parse("p && q"), pos).value == min(a, b)
        assert evaluate(ctx, parse("p || q"), pos).value == max(a, b)
    chained = ctx_for(Trace(("p",), ((0.3,), (0.7,))), interp)
    assert evaluate(chained, parse("p && X p")).value == 0.3
    assert evaluate(chained, parse("p || X p")).value == 0.7


def test_connective_rows_hold():
    # the sixteenths grid, off-grid floats and both zeros; hex() tells the
    # zeros apart, so each check is bit for bit
    values = [i / 16 for i in range(17)] + [0.1, 0.3, 1 / 3, 0.7, 0.9, 2.0**-60, 1 - 2.0**-53, -0.0]
    connectives = {op for i in Interpretation for op in (algebra.ops_for(i).tnorm, algebra.ops_for(i).tconorm)}
    assert set(evaluator._CONNECTIVES) == connectives
    assert algebra._prod_tnorm is operator.mul
    for op, (c_fold, saturated, drops, unit) in evaluator._CONNECTIVES.items():
        pairs = list(itertools.product(values, repeat=2))
        for a, b in pairs:
            if drops is not None:  # drops the back value when the step replaces it
                assert drops(a, b) == (op(a, b).hex() != a.hex()), (op.__name__, a, b)
        if c_fold is not None:
            for seq in itertools.product(values, repeat=3):
                for n in (1, 2, 3):
                    assert c_fold(seq[:n]).hex() == functools.reduce(op, seq[:n]).hex(), (op.__name__, seq[:n])
        if saturated is not None:
            # a running value that equals it, as a step gives it or, for a
            # C fold, as an input: every later step keeps its bits
            reached = [op(a, b) for a, b in pairs] + (values if c_fold is not None else [])
            for x in (x for x in reached if x == saturated):
                for v in values:
                    assert op(x, v).hex() == x.hex(), (op.__name__, x, v)
        if unit is not None:
            # a step with the unit keeps the running value of k values or
            # more, one step or two after the first k, and no fewer than k
            u, k = unit
            assert u == 1.0 and k in (0, 2), op.__name__
            if k == 0:
                assert all(op(u, v).hex() == v.hex() for v in values), op.__name__
                reached = values
            else:
                assert any(op(v, u).hex() != v.hex() for v in values), op.__name__
                reached = [op(a, b) for a, b in pairs]
            for x in reached + [op(x, v) for x in reached for v in values]:
                assert op(x, u).hex() == x.hex(), (op.__name__, x)


def _close(interp, got, want):
    if interp in (Z, G):
        return got == want
    return abs(got - want) <= 1e-12


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("table", [(1.0, 0.5, 0.25), (1.0, 0.875, 0.5, 0.375, 0.125)])
def test_bounded_almost_until_matches_oracle_off_grid(interp, table):
    eta = AvoidingFunction(table)
    n = eta.n_eta
    rng = random.Random(23)
    rows = tuple((rng.random(), rng.random()) for _ in range(2 * n + 8))
    ctx = ctx_for(Trace(("p", "q"), rows), interp, eta)
    for t in (0, 1, n - 1, n, 2 * n + 3):
        f = parse(f"p AU[{t}] q")
        for pos in range(len(rows) - t):
            got = evaluate(ctx, f, pos).value
            want = oracle_almost_until(ctx, Atom("p"), Atom("q"), pos, t)
            assert _close(interp, got, want), (t, pos, got, want)


def _almost_until_full_scan(ctx, phi, psi, pos):
    """The lasso almost-until as a max over every k of the scan, no early exit."""
    trace = ctx.trace
    start = trace.resolve(pos)
    rel_prefix = max(0, trace.loop_start - start)
    k_max = max(rel_prefix, ctx.eta.n_eta) + trace.loop_length
    tnorm = ctx.ops.tnorm
    best = evaluate(ctx, psi, start).value
    for k in range(1, k_max + 1):
        relaxed = almost_always_fast(ctx, phi, start, k - 1)
        best = max(best, tnorm(relaxed, evaluate(ctx, psi, start + k).value))
    return best


_EXIT_CASES = {
    # n_eta = 21 exceeds the pre-loop stretch plus the loop
    "long-table": (
        Trace(("f", "s"), ((0.9, 0.1), (0.35, 0.6), (0.8, 0.45)), loop_start=1),
        AvoidingFunction.gaussian(20),
    ),
    # psi peaks at the last loop state, after phi has dipped
    "late-peak": (
        Trace(
            ("f", "s"),
            ((0.95, 0.0), (0.7, 0.1), (0.85, 0.05), (0.3, 0.2), (0.9, 0.0), (0.8, 0.97)),
            loop_start=2,
        ),
        AvoidingFunction((1.0, 0.6, 0.2)),
    ),
    # relaxed dips under psi(0) before the window holds n_eta values, then
    # recovers by dropping both dips: an exit before then stops short
    "early-dip": (
        Trace(("f", "s"), ((0.1, 0.15), (0.1, 0.0), (0.9, 0.0), (0.9, 1.0)), loop_start=3),
        AvoidingFunction((1.0, 0.6, 0.2)),
    ),
    # crisp: almost-until is until once n_eta = 1
    "crisp": (
        Trace(
            ("f", "s"),
            ((1.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
            loop_start=1,
        ),
        AvoidingFunction.crisp(),
    ),
}


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("case", sorted(_EXIT_CASES))
def test_lasso_almost_until_exit_matches_full_scan(interp, case):
    trace, eta = _EXIT_CASES[case]
    ctx = ctx_for(trace, interp, eta)
    f, s = Atom("f"), Atom("s")
    for pos in range(len(trace) + 2):
        got = eval_unbounded_lasso(ctx, AlmostUntil(f, s), pos)
        want = _almost_until_full_scan(ctx, f, s, pos)
        assert _close(interp, got, want), (pos, got, want)
        if case == "crisp":
            assert got == eval_unbounded_lasso(ctx, Until(f, s), pos)


def _range_column(ctx, f, n):
    """The values of ``f`` at positions 0 .. n-1, filled by one range fill."""
    return evaluator._span(ctx, f, 0, n, evaluator._Columns(ctx.trace, 0))


def _golden_trace_rows(rng, n):
    """Off-grid degrees with ties, 0.0, -0.0 and 1.0."""
    rows = [[rng.random(), rng.random()] for _ in range(n)]
    for _ in range(n):
        rows[rng.randrange(n)][rng.randrange(2)] = rows[rng.randrange(n)][rng.randrange(2)]  # ties
    for v in (0.0, -0.0, 1.0, -0.0, 0.0, 1.0):
        rows[rng.randrange(n)][rng.randrange(2)] = v
    return tuple(map(tuple, rows))


def golden_outcomes(n_formulas=150, n=9, seed=8):
    """One line per evaluation: the value's hex and exactness, or the
    error's type and message."""
    rng = random.Random(seed)
    rows = _golden_trace_rows(rng, n)
    traces = (Trace(("p", "q"), rows), Trace(("p", "q"), rows, loop_start=n // 3))
    eta = AvoidingFunction((1.0, 0.6180339887, 0.25))
    lines = []
    for _ in range(n_formulas):
        f = random_formula(rng, ("p", "q"), depth=4, max_bound=4, n_eta=4)
        for trace in traces:
            for interp in (Z, G, L, P):
                for policy in FinitePolicy:
                    ctx = ctx_for(trace, interp, eta, policy)
                    for pos in range(n + 2):
                        try:
                            r = evaluate(ctx, f, pos)
                            lines.append(f"{r.value.hex()} {r.exactness.value}")
                        except FtlError as exc:
                            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


#: sha256 of ``golden_outcomes()``, taken when every window was evaluated one
#: position at a time, then re-taken when lasso U and AU became the bounded
#: window over their horizon: the Lukasiewicz ``q U q`` at lasso positions 4
#: and 10 moved up to the full scan's value.
GOLDEN_DIGEST = "b78fa724e43bc46449c3ef1e04345db5bff038068dc83138e7107adad1d80118"


class TestRangeFills:
    """Filling a column a run at a time gives the values, exactness tags and
    first errors of evaluating it one position at a time."""

    def test_golden_outcomes(self):
        lines = golden_outcomes()
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_DIGEST

    PQ = Trace(("p", "q"), tuple((i / 10, 1 - i / 10) for i in range(10)))

    @pytest.mark.parametrize(
        "text, outcomes",
        [
            ("G[3] ((X[7] p) U[6] p)", [10, 10, 10, 10, 11, 12, 13, 14, 15, 16]),
            (
                "G[5] ((X[1] p) && (X[3] q))",
                [0.1, 0.09999999999999998, 10, 10, 10, 10, 10, 10, 11, 10],
            ),
            ("F[2] ((X[4] p) AU[3] q)", [1.0, 0.9, 10, 10, 10, 10, 10, 11, 12, 13]),
        ],
    )
    def test_strict_policy_names_the_first_position_a_step_by_step_read_leaves(
        self, text, outcomes
    ):
        ctx = ctx_for(self.PQ, eta=AvoidingFunction((1.0, 0.5)))
        f = parse(text)
        for pos, want in enumerate(outcomes):
            if isinstance(want, float):
                assert evaluate(ctx, f, pos).value == want
            else:
                with pytest.raises(HorizonExceedsTrace, match=f"^position {want} leaves"):
                    evaluate(ctx, f, pos)

    @pytest.mark.parametrize("interp", [Z, G])
    @pytest.mark.parametrize("outer, inner", [("G", "F"), ("F", "G")])
    def test_nested_windows_keep_the_first_of_equal_zeros(self, interp, outer, inner):
        rng = random.Random(5)
        column = [rng.choice((0.0, -0.0, 0.0, -0.0, 0.5)) for _ in range(40)]
        trace = Trace(("p",), tuple((v,) for v in column))
        ctx = ctx_for(trace, interp, policy=FinitePolicy.PAD_ZERO)
        folds = {"F": algebra._maximum, "G": algebra._minimum}
        padded = column + [0.0] * 20
        for t, k in ((3, 2), (6, 9)):
            inner_want = [functools.reduce(folds[inner], padded[q : q + k + 1]) for q in range(50)]
            inner_got = _range_column(ctx, parse(f"{inner}[{k}] p"), 50)
            assert [v.hex() for v in inner_got] == [v.hex() for v in inner_want]
            f = parse(f"{outer}[{t}] {inner}[{k}] p")
            for pos in range(len(column) + 1):
                want = functools.reduce(folds[outer], inner_want[pos : pos + t + 1])
                assert evaluate(ctx, f, pos).value.hex() == want.hex()

    def test_lukasiewicz_always_from_negative_zero_folds_like_reduce(self):
        column = (-0.0, 0.75, -0.0, -0.0, 1.0, 0.5, -0.0, 1.0, 1.0, 0.25, -0.0)
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in column)), L)
        for t in range(4):
            f = AlwaysB(t, Atom("p"))
            want = [
                functools.reduce(algebra._luk_tnorm, column[pos : pos + t + 1])
                for pos in range(len(column) - t)
            ]
            assert [v.hex() for v in _range_column(ctx, f, len(want))] == [v.hex() for v in want]
            assert [evaluate(ctx, f, pos).value.hex() for pos in range(len(want))] == [
                v.hex() for v in want
            ]

    @pytest.mark.parametrize("interp", [Z, G, L, P])
    def test_bounded_almost_always_with_ties_matches_enumeration(self, interp):
        rng = random.Random(13)
        column = [rng.choice((0.0, -0.0, 0.25, 0.5, 0.875, 1.0)) for _ in range(24)]
        ctx = ctx_for(Trace(("p",), tuple((v,) for v in column)), interp)
        for t in (0, 1, 3, 6):
            f = AlmostAlwaysB(t, Atom("p"))
            n = len(column) - t
            want = [oracle_almost_always(ctx, Atom("p"), pos, t) for pos in range(n)]
            assert _range_column(ctx, f, n) == want
            assert [evaluate(ctx, f, pos).value for pos in range(n)] == want


#: F/G/AG/U/AU, bounded and unbounded, alone and nested under G[t] and F[t].
#: In ``p U p`` each held fold ties a candidate, so the scan's exit rule
#: decides whether the Lukasiewicz rounding of a later candidate can win.
_KERNEL_HEADS = (
    "F p", "G p", "AG q", "p U q", "p U p", "p AU q", "!q AU (p & F q)",
    "F[2] q", "G[3] p", "AG[4] p", "p U[3] q", "q AU[5] p", "(G[1] q) U[2] (F p)",
)
KERNEL_FORMULAS = _KERNEL_HEADS + tuple(
    f"{outer} ({head})" for outer in ("G[2]", "F[3]") for head in _KERNEL_HEADS
)


def kernel_outcomes(n=7, seed=21):
    """One line per evaluation of KERNEL_FORMULAS: the value's hex and
    exactness, or the error's type and message.

    The traces are finite (every largest-window tag) and lassos looping at 0
    and mid-trace; n_eta is 1, 3 and 13, below and above prefix + loop.
    """
    rows = _golden_trace_rows(random.Random(seed), n)
    traces = [Trace(("p", "q"), rows, loop) for loop in (None, 0, n // 2)]
    etas = (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(12))
    formulas = [parse(text) for text in KERNEL_FORMULAS]
    lines = []
    for trace in traces:
        policies = list(FinitePolicy) if trace.loop_start is None else [FinitePolicy.STRICT]
        for eta in etas:
            for f in formulas:
                for interp in (Z, G, L, P):
                    for policy in policies:
                        ctx = ctx_for(trace, interp, eta, policy)
                        for pos in range(n + 2):
                            try:
                                r = evaluate(ctx, f, pos)
                                lines.append(f"{r.value.hex()} {r.exactness.value}")
                            except FtlError as exc:
                                lines.append(f"{type(exc).__name__}: {exc}")
    return lines


#: sha256 of ``kernel_outcomes()``, taken when each twin had its own kernels,
#: then re-taken when lasso U and AU became the bounded window over their
#: horizon: the Lukasiewicz ``p U p`` at lasso positions 2 and 6 moved up to
#: the full scan's value.
KERNEL_DIGEST = "439abaa45927b8f31d4ea931857d387d7105b07be1b26954ad172e4988eef9ed"


def test_twin_kernels_golden_outcomes():
    lines = kernel_outcomes()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KERNEL_DIGEST


def _until_reference(ctx, almost, t, n):
    """``p U[t] q`` (or ``p AU[t] q``) at positions 0 .. n-1, one full window
    at a time: every prefix held, every candidate stepped, the first largest
    kept."""
    left = [row[0] for row in ctx.trace.states]
    right = [row[1] for row in ctx.trace.states]
    step = evaluator._BINARY[ctx.interp][And]
    out = []
    for i in range(n):
        if almost:
            held = evaluator._relaxed_holds(left[i : i + t], ctx.ops.tnorm, ctx.eta.table)
        else:
            held = itertools.accumulate(left[i : i + t], step)
        out.append(max(itertools.chain((right[i],), map(step, held, right[i + 1 : i + t + 1]))))
    return out


def _until_trace(t, seed):
    """A left column of constant runs as long as t-1, t, t+1 and 2t+5, runs
    that mix 0.0 and -0.0 and short noise between them; a right column drawn
    from values whose Lukasiewicz step(1.0, r) rounds above r (0.1, 0.3),
    from 0.0, -0.0 and 1.0, and at random.  The trace ends in t positions
    that only complete the last windows."""
    rng = random.Random(seed)
    runs = (1.0, 0.875, 0.1, 0.0, -0.0, 0.7, 1.0, 0.3)
    left = []
    for k, v in enumerate(runs):
        left += [v] * (max(t - 1 + k % 3, 0) if k < 6 else 2 * t + 5)
        left += [rng.choice((rng.random(), 1.0, 0.9)) for _ in range(3)]
    left += [0.0] * t + [-0.0] + [0.0] * t + [-0.0] * (t + 1) + [0.0]
    right = [rng.choice((0.1, 0.3, 0.0, -0.0, 1.0, rng.random(), rng.random())) for _ in left]
    # right(i) = 0.1 ties the first hold, yet the Lukasiewicz step of that
    # hold with the 1.0 after it rounds above 0.1
    left += [0.1, 0.5, 0.5]
    right += [0.1, 1.0, 0.5]
    right += [rng.random() for _ in range(t)]
    left += [1.0] * t
    assert algebra._luk_tnorm(1.0, 0.1) > 0.1 and algebra._luk_tnorm(1.0, 0.3) > 0.3
    return Trace(("p", "q"), tuple(zip(left, right)))


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("t", [0, 1, 5, 15, 60])
def test_bounded_until_columns_match_the_full_scan(interp, t):
    """The skipped, shared and cut-short windows of U[t] and AU[t] give the
    bits of scanning every window in full, n_eta below and above t."""
    trace = _until_trace(t, seed=t)
    n = len(trace) - t
    for eta in (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(t + 4)):
        ctx = ctx_for(trace, interp, eta)
        for almost, text in ((False, f"p U[{t}] q"), (True, f"p AU[{t}] q")):
            f = parse(text)
            want = [v.hex() for v in _until_reference(ctx, almost, t, n)]
            assert [v.hex() for v in _range_column(ctx, f, n)] == want, (text, eta)
            stride = 1 + t // 15  # every 5th point at t = 60 keeps the test short
            got = [evaluate(ctx, f, pos).value.hex() for pos in range(0, n, stride)]
            assert got == want[::stride], (text, eta)


@pytest.mark.parametrize("interp", [Z, G, L, P])
def test_crisp_guard_windows_take_their_cap(interp):
    """A U[t] or AU[t] window whose left values are all 1.0 takes its
    largest cap step(1.0, max right), the bits of scanning every window in
    full: on off-grid right values with ties, 0.0, -0.0, 1.0, and 0.1 and
    0.3, whose Lukasiewicz cap rounds above them; and as lasso limits."""
    for t in (1, 3, 15, 60):
        rng = random.Random(t)
        n = 2 * t + 30
        right = [rng.choice((0.0, -0.0, 0.1, 0.3, 1.0, rng.random(), rng.random())) for _ in range(n + t)]
        for i in rng.sample(range(n + t), (n + t) // 4):
            right[i] = right[rng.randrange(n + t)]  # ties
        rows = tuple((1.0, r) for r in right)
        lasso = Trace(("p", "q"), rows[: t + 9], loop_start=rng.randrange(t + 9))
        for eta in (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(t + 4)):
            ctx = ctx_for(Trace(("p", "q"), rows), interp, eta)
            for almost, op in ((False, "U"), (True, "AU")):
                f = parse(f"p {op}[{t}] q")
                want = [v.hex() for v in _until_reference(ctx, almost, t, n)]
                assert [v.hex() for v in _range_column(ctx, f, n)] == want, (f, eta)
                assert [evaluate(ctx, f, pos).value.hex() for pos in range(n)] == want, (f, eta)
                limit, lasso_ctx = parse(f"p {op} q"), ctx_for(lasso, interp, eta)
                for pos in range(len(lasso) + 2):
                    want = _full_limit_line(lasso_ctx, limit, pos)
                    assert evaluate(lasso_ctx, limit, pos).value.hex() == want, (limit, eta, pos)


@pytest.mark.parametrize("trace", ["pad-zero", "lasso", "pad-zero, inexact child"])
def test_a_decided_point_fold_reads_one_first_chunk(trace):
    """A point G[150] whose first inner value is the Lukasiewicz t-norm's
    absorbing 0.0 fills 16 positions of its child and no more: of AG[3] q,
    and of q & F q, whose F q is a LowerBound on a finite trace."""
    rng = random.Random(16)
    rows = tuple((0.0,) if i < 4 else (rng.random(),) for i in range(200))
    if trace == "lasso":
        ctx = ctx_for(Trace(("q",), rows, loop_start=50), L)
    else:
        ctx = ctx_for(Trace(("q",), rows), L, policy=FinitePolicy.PAD_ZERO)
    f = parse("G[150] (q & F q)" if trace.endswith("child") else "G[150] (AG[3] q)")
    memo = evaluator._run(ctx, 0, lambda memo: (evaluator._span(ctx, f, 0, 1, memo), memo)[1])
    assert memo[id(f)][0] == 0.0
    filled = [v is not None for v in memo[id(f.arg)]]
    assert filled == [True] * 16 + [False] * (len(filled) - 16)


#: Left sides rich in 1.0 (a crisp guard), right sides off-grid with 0.0,
#: -0.0 and 1.0; ``{t}`` is an until window (up to 70) and ``{k}`` an F or G
#: window (up to 80) around it.
CRISP_GUARD_SHAPES = (
    "s U[{t}] p", "s AU[{t}] p", "s U p", "s AU p",
    "F[{k}] (s AU[{t}] p)", "G[{k}] (s U[{t}] p)", "G (s AU[{t}] p)", "F (s U[{t}] q)",
    "G[{k}] (s AU[{t}] (p || q))", "(s && X s) AU[{t}] q", "G[{k}] (AG[{t}] s)", "F (AG[{t}] s)",
)


def crisp_guard_outcomes(cases=150, seed=22):
    """One line per evaluation, as golden_outcomes(), of a crisp-guard shape
    on a trace of at most 40 states, finite or a lasso, for each
    interpretation, policy and position (two past the end too), then one
    line of a range fill of the whole trace."""
    rng = random.Random(seed)
    etas = (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(4))
    lines = []
    for _ in range(cases):
        n = rng.randint(1, 40)
        guard = rng.choice(((1.0,), (1.0,) * 7 + (0.0, -0.0), (1.0,) * 3 + (rng.random(), 0.5)))
        degrees = (0.0, -0.0, 1.0, 0.1, 0.3, rng.random(), rng.random())
        rows = tuple((rng.choice(guard), rng.choice(degrees), rng.choice(degrees)) for _ in range(n))
        trace = Trace(("s", "p", "q"), rows, rng.choice((None, None, rng.randrange(n))))
        text = rng.choice(CRISP_GUARD_SHAPES).format(t=rng.randint(0, 70), k=rng.randint(0, 80))
        f, eta = parse(text), rng.choice(etas)
        lines.append(text)
        for interp in (Z, G, L, P):
            for policy in (FinitePolicy.STRICT,) if trace.is_lasso else FinitePolicy:
                ctx = ctx_for(trace, interp, eta, policy)
                for pos in range(n + 2):
                    try:
                        r = evaluate(ctx, f, pos)
                        lines.append(f"{r.value.hex()} {r.exactness.value}")
                    except FtlError as exc:
                        lines.append(f"{type(exc).__name__}: {exc}")
                try:
                    values, tags = _range_read(ctx, f, 0, n)
                    lines.append(" ".join(v.hex() for v in values) + f" {tags}")
                except FtlError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
    return lines


#: sha256 of ``crisp_guard_outcomes()``, taken when every until window
#: folded its candidates and point folds read 64 positions first.
CRISP_GUARD_DIGEST = "c8767b69174b1c79c82c1e00fc77c685a49f88017de985e1528f0c5e94b534ca"


def test_crisp_guard_golden_outcomes():
    """Values, tags and errors of guarded untils, and of F and G reads that
    cross a first chunk, are those of scanning every window in full."""
    lines = crisp_guard_outcomes()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CRISP_GUARD_DIGEST


#: The relaxed modalities over ``a`` (rich in 1.0, 0.0, -0.0, sixteenths and
#: off-grid values) or ``c`` (a sparse crisp column of signed zeros and 1.0),
#: bare and under F, G and AG windows.
RELAXED_HEADS = ("AG[{t}] {x}", "L[{t}] {x}", "S {x}", "W[{t}] {x}")
RELAXED_OUTERS = ("{head}", "F[{k}] ({head})", "G[{k}] ({head})", "AG[{k}] ({head})")
RELAXED_WINDOWS = (0, 1, 2, 3, 8, 40)
#: gauss:1/2/3/20, and a table whose last weight times a value below 0.5
#: underflows to 0.0.
RELAXED_ETAS = tuple(
    map(parse_eta_spec, ("gauss:1", "gauss:2", "gauss:3", "gauss:20", "table:1,0.75,0.5,5e-324"))
)


def _relaxed_trace(rng):
    """A trace of 1 .. 48 states, finite or a lasso, over ``a`` and ``c``."""
    n = rng.randint(1, 48)
    sixteenths = (rng.randrange(17) / 16, rng.randrange(17) / 16)
    degrees = (1.0, 1.0, 0.0, -0.0, *sixteenths, rng.random(), rng.random())
    a = [rng.choice(degrees) for _ in range(n)]
    for i in rng.sample(range(n), n // 4):
        a[i] = a[rng.randrange(n)]  # ties
    c = [1.0 if rng.random() < 0.1 else rng.choice((0.0, -0.0)) for _ in range(n)]
    return Trace(("a", "c"), tuple(zip(a, c)), rng.choice((None, rng.randrange(n))))


def relaxed_kernel_outcomes(repeats=3, seed=23):
    """One line per evaluation, as golden_outcomes(), of each relaxed head at
    each window in RELAXED_WINDOWS under each outer window, ``repeats``
    times on fresh traces and weights: for each interpretation, policy and
    position (two past the end too), then one line of a range fill of those
    positions and, on a finite trace, one of the positions whose windows
    end inside it."""
    rng = random.Random(seed)
    lines = []
    shapes = itertools.product(RELAXED_HEADS, RELAXED_OUTERS, RELAXED_WINDOWS, range(repeats))
    for head, outer, t, _ in shapes:
        trace, eta = _relaxed_trace(rng), rng.choice(RELAXED_ETAS)
        k = rng.choice((0, 1, 3, 9))
        text = outer.format(head=head.format(t=t, x=rng.choice("aac")), k=k)
        f, n = parse(text), len(trace)
        reach = {"S": eta.n_eta, "W": t + eta.n_eta - 1}.get(head[0], t) + (k if outer != "{head}" else 0)
        lines.append(f"{text} {eta.table} {n} {trace.loop_start}")
        for interp in (Z, G, L, P):
            for policy in (FinitePolicy.STRICT,) if trace.is_lasso else FinitePolicy:
                ctx = ctx_for(trace, interp, eta, policy)
                for pos in range(n + 2):
                    try:
                        r = evaluate(ctx, f, pos)
                        lines.append(f"{r.value.hex()} {r.exactness.value}")
                    except FtlError as exc:
                        lines.append(f"{type(exc).__name__}: {exc}")
                for m in (n + 2, n - reach) if not trace.is_lasso else (n + 2,):
                    if m < 2:
                        continue
                    try:
                        values, tags = _range_read(ctx, f, 0, m)
                        lines.append(" ".join(v.hex() for v in values) + f" {tags}")
                    except FtlError as exc:
                        lines.append(f"{type(exc).__name__}: {exc}")
    return lines


#: sha256 of ``relaxed_kernel_outcomes()``, taken when every AG, L, S and W
#: window folded all of its weighted terms.
RELAXED_KERNEL_DIGEST = "082b4e7310de252834317c7c8e9474127345074bc1a2d677b005c26171cbc622"


def test_relaxed_kernel_golden_outcomes():
    """Values, tags and errors of AG, L, S and W windows, read at a point
    and as range fills, are those of folding every window in full."""
    lines = relaxed_kernel_outcomes()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RELAXED_KERNEL_DIGEST


#: Degrees a range fill must keep bit for bit: the exact unit 1.0, the
#: absorbing 0.0 and -0.0, the largest double below 1.0, whose Lukasiewicz
#: step with 1.0 rounds, and tiny values whose products underflow.
FILL_DEGREES = (1.0, 0.0, -0.0, 1 - 2.0**-53, 2.0**-60, 5e-324)
FILL_HEADS = (
    "F[{t}] {x}", "G[{t}] {x}", "AG[{t}] {x}", "L[{t}] {x}",
    "{x} U[{t}] {y}", "{x} AU[{t}] {y}", "S {x}", "W[{t}] {x}",
)
FILL_OUTERS = ("{head}", "F[{k}] ({head})", "G[{k}] ({head})", "AG[{k}] ({head})", "L[{k}] ({head})")
FILL_WINDOWS = (0, 1, 2, 3, 5, 15)


def _fill_column(rng, n, ones):
    """n degrees: 1.0 at about the share ``ones``, in runs, else a degree of
    FILL_DEGREES, a sixteenth or an off-grid value."""
    column, v = [], 1.0
    for _ in range(n):
        if rng.random() < 0.5:  # runs: keep the last value half the time
            v = 1.0 if rng.random() < ones else rng.choice(
                FILL_DEGREES + (rng.randrange(16) / 16, rng.random(), 1.0 - rng.random() * 2.0**-40)
            )
        column.append(v)
    return column


def range_fill_outcomes(repeats=2, seed=26):
    """One line per range fill: the hex of every value and the tags, or the
    error's type and message.  Each head of FILL_HEADS at each window of
    FILL_WINDOWS under each outer window, ``repeats`` times on a fresh
    finite trace or lasso of 2 .. 40 states over ``a`` (mostly 1.0), ``b``
    (about half 1.0) and ``c`` (few 1.0s), with fresh weights; for each
    interpretation and policy, the fills from 0, 1 and n // 2 up to n + 2
    and up to a drawn end, which may lie inside the trace."""
    rng = random.Random(seed)
    lines = []
    shapes = itertools.product(FILL_HEADS, FILL_OUTERS, FILL_WINDOWS, range(repeats))
    for head, outer, t, _ in shapes:
        n = rng.randint(2, 40)
        columns = (_fill_column(rng, n, 0.85), _fill_column(rng, n, 0.5), _fill_column(rng, n, 0.1))
        trace = Trace(("a", "b", "c"), tuple(zip(*columns)), rng.choice((None, rng.randrange(n))))
        eta = rng.choice(RELAXED_ETAS)
        x, y = rng.choice("aabc"), rng.choice("abc")
        text = outer.format(head=head.format(t=t, x=x, y=y), k=rng.choice((1, 2, 4, 9)))
        f = parse(text)
        lines.append(f"{text} {eta.table} {n} {trace.loop_start}")
        for interp in (Z, G, L, P):
            for policy in (FinitePolicy.STRICT,) if trace.is_lasso else FinitePolicy:
                ctx = ctx_for(trace, interp, eta, policy)
                for pos in (0, 1, n // 2):
                    for end in (n + 2, rng.randint(pos + 2, n + 1)):
                        try:
                            values, tags = _range_read(ctx, f, pos, end - pos)
                            lines.append(" ".join(v.hex() for v in values) + f" {tags}")
                        except FtlError as exc:
                            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


#: sha256 of ``range_fill_outcomes()``, taken when every F[t], G[t], AG[t]
#: and L[t] window of a range fill folded all of its values.
RANGE_FILL_DIGEST = "11173b6a96cce94fdb59cfbb7be4fa5c8a9bb2baf0dd6aa4934c676e597d64e4"


def test_range_fill_golden_outcomes():
    """Values, tags and errors of range fills over columns rich in 1.0, 0.0
    and -0.0 are those of folding every window in full."""
    lines = range_fill_outcomes()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANGE_FILL_DIGEST


#: eta = 1, 0.75, 0.5, 5e-324: the last weight times a value below 0.5 is 0.0.
TINY_ETA = RELAXED_ETAS[-1]


def _relaxed_text(op, t):
    return "S p" if op == "S" else f"{op}[{t}] p"


def _relaxed_reference(ctx, op, t, column):
    """``AG[t] p``, ``L[t] p``, ``S p`` or ``W[t] p`` (``op``) at every
    position of ``column`` padded with 0.0, one window at a time and in
    position order: each weighted term or prefix fold taken, the first
    largest kept."""
    tnorm, tconorm, eta = ctx.ops.tnorm, ctx.ops.tconorm, ctx.eta
    padded = list(column) + [0.0] * (t + eta.n_eta + 1)
    out = []
    for i in range(len(column)):
        if op == "AG":
            window = padded[i : i + t + 1]
            order = sorted(range(t + 1), key=window.__getitem__)  # stable: ties by position
            folds = (
                functools.reduce(tnorm, [v for d, v in enumerate(window) if d not in order[:j]])
                for j in range(min(t, eta.n_eta - 1) + 1)
            )
            out.append(max(map(operator.mul, folds, eta.table)))
        elif op == "L":
            folds = (
                functools.reduce(tnorm, padded[i : i + t + 1 - j])
                for j in range(min(t, eta.n_eta - 1) + 1)
            )
            out.append(max(map(operator.mul, folds, eta.table)))
        else:
            out.append(functools.reduce(tconorm, _weighted_terms(eta, op, t, padded, i)))
    return out


def _weighted_terms(eta, op, t, padded, i):
    """The weighted terms of the S or W[t] window at position i."""
    start, weights = (i + 1, eta.table) if op == "S" else (i, (1.0,) * (t + 1) + eta.table[1:])
    return [padded[start + d] * w for d, w in enumerate(weights)]


def _check_relaxed_column(ctx, op, t, column):
    """A range fill of every position and each point read give the
    reference's bits; returns them."""
    want = [v.hex() for v in _relaxed_reference(ctx, op, t, column)]
    text = _relaxed_text(op, t)
    f = parse(text)
    assert [v.hex() for v in _range_column(ctx, f, len(column))] == want, (text, ctx.interp)
    assert [evaluate(ctx, f, pos).value.hex() for pos in range(len(column))] == want, (text, ctx.interp)
    return want


def _column_ctx(column, interp, eta):
    return ctx_for(Trace(("p",), tuple((v,) for v in column)), interp, eta, FinitePolicy.PAD_ZERO)


def _kernel_column(seed, n):
    """n degrees over FILL_DEGREES, in runs, about two thirds 1.0."""
    return _fill_column(random.Random(seed), n, 0.7)


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("t", [0, 1, 2, 15, 60])
def test_slide_matches_the_fold_of_each_window(interp, t):
    """F[t] and G[t] range fills: each window's value is _fold over its slice."""
    ops = algebra.ops_for(interp)
    for seed in range(6):
        column = _kernel_column(100 * t + seed, 80 + t)
        for op in (ops.tnorm, ops.tconorm):
            want = [evaluator._fold(op, column[i : i + t + 1]).hex() for i in range(80)]
            got = [v.hex() for v in evaluator._slide(op, column, 80, t + 1)]
            assert got == want, (op.__name__, column)


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("t", [0, 1, 2, 15, 60])
def test_almost_always_fill_matches_best_drop_of_each_window(interp, t):
    """AG[t] range fills: each window's value is _best_drop over the
    window's own sorted (value, position) pairs."""
    for eta, seed in itertools.product((parse_eta_spec("gauss:3"), parse_eta_spec("gauss:20"), TINY_ETA), range(3)):
        column = _kernel_column(100 * t + seed, 80 + t)
        ctx = _column_ctx(column, interp, eta)
        keep = min(t, eta.n_eta - 1) + 1
        want = []
        for i in range(80):
            window = column[i : i + t + 1]
            kept = sorted(zip(window, itertools.count()))[:keep]
            want.append(evaluator._best_drop(ctx.ops.tnorm, eta.table, window, kept).hex())
        got = [v.hex() for v in _range_column(ctx, AlmostAlwaysB(t, Atom("p")), 80)]
        assert got == want, (eta, column)


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize("t", [0, 1, 2, 15, 60])
def test_lasts_fill_matches_every_prefix_of_each_window(interp, t):
    """L[t] range fills: each window's value is the first largest eta(j)
    times its prefix fold that cuts j instants."""
    for eta, seed in itertools.product((parse_eta_spec("gauss:3"), parse_eta_spec("gauss:20"), TINY_ETA), range(3)):
        column = _kernel_column(100 * t + seed, 80 + t)
        ctx = _column_ctx(column, interp, eta)
        tnorm, j_top = ctx.ops.tnorm, min(t, eta.n_eta - 1)
        weights, head = eta.table[: j_top + 1], t + 1 - j_top
        want = []
        for i in range(80):
            window = column[i : i + t + 1]
            prefix = list(itertools.accumulate(window[head:], tnorm, initial=evaluator._fold(tnorm, window[:head])))
            want.append(max(map(operator.mul, reversed(prefix), weights)).hex())
        got = [v.hex() for v in _range_column(ctx, parse(f"L[{t}] p"), 80)]
        assert got == want, (eta, column)


@pytest.mark.parametrize("interp", [L, P])
def test_archimedean_soon_and_within_of_zero_terms_keep_their_sign(interp):
    """S and W windows whose terms are all +-0.0 (signed zeros, or values a
    tiny weight underflows) fold whole: under Lukasiewicz the result is -0.0
    exactly when every term is -0.0."""
    rng = random.Random(31)
    column = [rng.choice((-0.0, -0.0, -0.0, 0.0, 0.25, 0.875)) for _ in range(80)]
    column[10:20] = [-0.0] * 10
    column[30:34] = [0.0, -0.0, -0.0, 0.25]  # 0.25 * 5e-324 is +0.0
    for eta in (ETA_3, TINY_ETA, AvoidingFunction.gaussian(3)):
        ctx = _column_ctx(column, interp, eta)
        padded = column + [0.0] * 8
        for op, t in (("S", 0), ("W", 0), ("W", 1), ("W", 3)):
            want = _check_relaxed_column(ctx, op, t, column)
            if interp is not L:
                continue
            signs = [
                (v == "-0x0.0p+0", all(math.copysign(1.0, x) < 0 for x in terms))
                for v, terms in ((v, _weighted_terms(eta, op, t, padded, i)) for i, v in enumerate(want))
                if not any(terms)
            ]
            assert all(neg == all_neg for neg, all_neg in signs), (op, t, eta)
            assert (True, True) in signs and (False, False) in signs, (op, t, eta)


@pytest.mark.parametrize("interp", [Z, G])
def test_max_windows_keep_an_earlier_negative_zero(interp):
    """Under max an S or W window whose first largest term is -0.0 keeps it,
    though a later term is 0.0: a later record must be strictly larger."""
    column = [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.25, 0.0, -0.0, 0.0, 0.5, -0.0] * 4
    for eta in (ETA_3, TINY_ETA, AvoidingFunction.gaussian(3)):
        ctx = _column_ctx(column, interp, eta)
        for op, t in (("S", 0), ("W", 0), ("W", 1), ("W", 2)):
            want = _check_relaxed_column(ctx, op, t, column)
            assert "-0x0.0p+0" in want, (op, t, eta)


@pytest.mark.parametrize("interp", [Z, G])
def test_lasts_under_min_keeps_the_first_smallest_of_its_head(interp):
    """L[t] under min, where the head's smallest value repeats as 0.0 and
    -0.0 and later signed zeros and smaller values follow."""
    rng = random.Random(32)
    column = [rng.choice((0.0, -0.0, 0.25, 0.25, 0.5, 0.75, 1.0)) for _ in range(90)]
    column[:12] = [0.5, -0.0, 0.25, 0.0, -0.0, 0.0, 0.25, -0.0, 0.0, 0.75, 0.0, -0.0]
    for eta in (ETA_3, TINY_ETA, AvoidingFunction.gaussian(4)):
        ctx = _column_ctx(column, interp, eta)
        for t in (1, 2, 3, 5, 8):
            want = _check_relaxed_column(ctx, "L", t, column)
            assert "-0x0.0p+0" in want and "0x0.0p+0" in want, (t, eta)


@pytest.mark.parametrize("interp", [Z, G])
def test_almost_always_under_min_drops_the_earliest_of_equal_zeros(interp):
    """AG[t] under min as its window slides over 0.0 and -0.0 ties: the value
    that leaves is the earliest of its equals, so the kept order, and each
    candidate's sign, is that of sorting each window by value, then
    position."""
    rng = random.Random(33)
    column = [rng.choice((0.0, -0.0, 0.0, -0.0, 0.5, 1.0)) for _ in range(90)]
    for eta in (ETA_3, TINY_ETA, AvoidingFunction.gaussian(4)):
        ctx = _column_ctx(column, interp, eta)
        for t in (1, 2, 3, 8):
            want = _check_relaxed_column(ctx, "AG", t, column)
            assert "-0x0.0p+0" in want and "0x0.0p+0" in want, (t, eta)


@pytest.mark.parametrize("interp", [Z, G])
def test_a_point_read_folds_its_one_window(interp, monkeypatch):
    """A point read of AG, L, S or W under min and max is one fold of its
    window: it neither slides a sorted window nor walks records."""
    def refuse(*args):
        raise AssertionError("a range-fill kernel ran")

    monkeypatch.setattr(evaluator, "_next_better", refuse)
    monkeypatch.setattr(evaluator, "insort", refuse)
    rng = random.Random(34)
    column = [rng.choice((0.0, -0.0, 0.25, 0.5, 1.0, rng.random())) for _ in range(70)]
    ctx = _column_ctx(column, interp, AvoidingFunction.gaussian(4))
    for op, t in (("AG", 60), ("L", 60), ("W", 60), ("S", 0), ("L", 3), ("W", 1)):
        f = parse(_relaxed_text(op, t))
        want = [v.hex() for v in _relaxed_reference(ctx, op, t, column)]
        assert [evaluate(ctx, f, pos).value.hex() for pos in range(len(column))] == want, f
        with pytest.raises(AssertionError, match="range-fill kernel"):
            _range_column(ctx, f, len(column))


def _full_refold_best_drop(tnorm, weights, values, kept):
    """_best_drop under Lukasiewicz and Product with every avoidance count j
    folded: the reference the bounded one must equal bit for bit."""
    retain = [True] * len(values)
    best = None
    for (_, p), w in zip(kept, weights):
        cand = algebra.scale(evaluator._fold(tnorm, itertools.compress(values, retain)), w)
        if best is None or cand > best:
            best = cand
        retain[p] = False
    return best


def _designed_window(rng, interp, weights, m, keep):
    """m degrees, shuffled, whose keep - 1 smallest the last candidate drops.

    Either the last two candidates tie up to rounding, or the window holds
    keep - 1, keep or keep + 1 signed zeros, or (Lukasiewicz only) the
    r = m - keep + 1 retained values sum to r - 1, or to within 2^-30 ..
    2^-53 of it on either side: a deficit sum of 1, where a fold is zero or
    positive by rounding.
    """
    r = m - keep + 1
    kind = rng.choice(("tie", "tie", "zeros") + (("edge", "edge") if interp is L else ()))
    if kind == "zeros":
        zeros = [rng.choice((0.0, -0.0)) for _ in range(min(m, keep + rng.randrange(-1, 2)))]
        window = zeros + [rng.random() for _ in range(m - len(zeros))]
        rng.shuffle(window)
        return window
    if kind == "edge":
        offset = rng.choice((-1, 1)) * rng.choice((0.0, *(2.0**-e for e in range(30, 54))))
        if r == 1:
            retained = [rng.choice((0.0, -0.0, 2.0**-1074, 2.0**-53))]
        else:
            share = rng.uniform(0.2, 0.6) / (r - 1)  # the last value, below 0.9
            retained = [1.0 - share * rng.uniform(0.5, 1.5) for _ in range(r - 1)]
            last = sum(map(Fraction, retained), Fraction(offset)) - (r - 1)
            retained.append(float(-last))
        dropped = []
    else:
        # the last candidate drops x, the (keep - 1)-th smallest value, too;
        # it ties the one before when w[keep - 1] * fold(retained) equals
        # w[keep - 2] * fold(retained and x): at x = q under Product and at
        # x = 1 - fold(retained) * (1 - q) under Lukasiewicz
        q = Fraction(weights[keep - 1]) / Fraction(weights[keep - 2])
        if interp is P:
            x = float(q)
            retained = [rng.uniform(x, 1.0) for _ in range(r)]
        else:
            deficit = float((1 - q) / (Fraction(3, 2 * r) + 1 - q)) * 0.8
            retained = [1.0 - deficit / r * rng.uniform(0.5, 1.5) for _ in range(r)]
            fold = 1 - sum(1 - Fraction(v) for v in retained)
            x = float(1 - fold * (1 - q))
        dropped = [x]
    cut = min(retained + dropped)
    dropped += [rng.choice((0.0, -0.0, rng.uniform(0.0, cut))) for _ in range(m - r - len(dropped))]
    window = retained + dropped
    rng.shuffle(window)
    return window


def _ag_column(rng, interp, eta, t, n):
    """n + t degrees: off-grid values of the families below with ties, and
    a designed window at every (t + 1)-th position."""
    m, keep = t + 1, min(t, eta.n_eta - 1) + 1
    families = (
        lambda: 1.0 - rng.randrange(64) * 2.0**-53,
        lambda: rng.random() * 0.5,  # 1 - v rounds
        lambda: rng.choice((0.0, -0.0, 1.0)),
        rng.random,
    )
    column = [rng.choice(families)() for _ in range(n + t)]
    for i in rng.sample(range(n + t), (n + t) // 4):
        column[i] = column[rng.randrange(n + t)]  # ties
    if keep > 1:
        for start in range(0, n, m):
            column[start : start + m] = _designed_window(rng, interp, eta.table, m, keep)
    return column


def _check_ag_against_the_full_refold(interp, eta, t, column, n):
    """AG[t] at positions 0 .. n-1 of ``column``, by a range fill, point
    evaluations and almost_always_fast, hex-equal to the full refold."""
    ctx = ctx_for(Trace(("p",), tuple((v,) for v in column)), interp, eta)
    keep = min(t, eta.n_eta - 1) + 1
    want = []
    for i in range(n):
        window = column[i : i + t + 1]
        kept = sorted(zip(window, itertools.count()))[:keep]
        want.append(_full_refold_best_drop(ctx.ops.tnorm, eta.table, window, kept).hex())
    f = AlmostAlwaysB(t, Atom("p"))
    assert [v.hex() for v in _range_column(ctx, f, n)] == want, (eta, column)
    stride = 1 + t // 20
    got = [evaluate(ctx, f, pos).value.hex() for pos in range(0, n, stride)]
    assert got == want[::stride], (eta, column)
    got = [almost_always_fast(ctx, Atom("p"), pos, t).hex() for pos in range(0, n, stride)]
    assert got == want[::stride], (eta, column)


@pytest.mark.parametrize("interp", [L, P])
@pytest.mark.parametrize("t", [1, 5, 20, 60, 300])
def test_bounded_almost_always_matches_the_full_refold(interp, t):
    """Bounded AG folds only the avoidance counts that can win, yet gives
    the bits of folding every count, n_eta from crisp to past the window: on
    a sliding column, and on designed windows alone, where a wrong bound
    shows in only some windows."""
    gauss = AvoidingFunction.gaussian
    for eta in (AvoidingFunction.crisp(), ETA_3, gauss(20), gauss(t + 4)):  # n_eta 1, 3, 21, t + 5
        rng = random.Random(1000 * t + eta.n_eta)
        n = max(t + 2, 40)
        _check_ag_against_the_full_refold(interp, eta, t, _ag_column(rng, interp, eta, t, n), n)
        keep = min(t, eta.n_eta - 1) + 1
        for _ in range((48 if t <= 60 else 8) if keep > 1 else 0):
            window = _designed_window(rng, interp, eta.table, t + 1, keep)
            _check_ag_against_the_full_refold(interp, eta, t, window, 1)


def _range_values(ctx, f, pos, n):
    """The values of ``f`` at positions pos .. pos+n-1, from one range fill
    that raises the error a position-by-position read meets first."""
    return evaluator._run(ctx, pos, lambda memo: evaluator._span(ctx, f, pos, n, memo))


def _range_read(ctx, f, pos, n):
    """_range_values and each position's tag from _exactness (None when
    every tag is Exact)."""
    values = _range_values(ctx, f, pos, n)
    tags = [evaluator._exactness(ctx, f, q, q) for q in range(pos, pos + n)]
    return values, tags if any(tags) else None


def _full_fold_line(ctx, f, pos):
    """The outcome line of the F/G formula ``f`` at ``pos`` from a full read:
    one range fill of the child's whole window, folded by functools.reduce,
    and the tag of that window from _exactness."""
    trace = ctx.trace
    unit = 1.0 if isinstance(f, (Always, AlwaysB)) else 0.0
    op = ctx.ops.tnorm if unit else ctx.ops.tconorm
    tag = evaluator._EXACT
    try:
        if isinstance(f, (AlwaysB, EventuallyB)):
            start, n = pos, f.bound + 1
            values = _range_values(ctx, f.arg, start, n)
        elif trace.is_lasso:
            start = trace.resolve(pos)
            pre = max(0, trace.loop_start - start)
            n = pre + trace.loop_length
            values = _range_values(ctx, f.arg, start, n)
            if ctx.interp in (L, P):  # the loop recurs forever
                if any(v != unit for v in values[pre:]):
                    values = [1.0 - unit]
                elif not pre:
                    values = [unit]
                else:
                    values = values[:pre]
        else:  # the largest window, bounded by its direction
            start = min(pos, len(trace))
            n = max(1, len(trace) - start)
            values = _range_values(ctx, f.arg, start, n)
            tag = evaluator._UPPER if unit else evaluator._LOWER
        value = functools.reduce(op, values)
        tag |= evaluator._exactness(ctx, f.arg, start, start + n - 1)
    except FtlError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{value.hex()} {evaluator._EXACTNESS[tag].value}"


def _saturation_trace(rng, n=900, at=320):
    """Atoms whose F or G folds saturate at position ``at`` and nowhere else
    before the loop: ``a`` near 1 with 0.0 there and -0.0 at 700 (which a
    Product G must reach), ``b`` near 1 with -0.0 then 0.0, ``c`` near 0
    (0.0 and -0.0 among them) with 1.0 there; ``u`` and ``z`` as ``a`` and
    ``c`` up to 600, then exactly 1.0 and signed zeros, and ``v`` and ``w``
    as ``u`` and ``z`` but for one last value; ``r`` off-grid with 0.0, -0.0
    and 1.0 sprinkled."""
    near_one = [1.0 - rng.randrange(8) * 2.0**-40 for _ in range(n)]
    near_zero = [rng.randrange(8) * 2.0**-40 or (0.0, -0.0)[i % 2] for i in range(n)]
    a, b, c = near_one[:], near_one[:], near_zero[:]
    a[at], a[700], b[at], b[at + 1], c[at] = 0.0, -0.0, -0.0, 0.0, 1.0
    u = a[:600] + [1.0] * (n - 600)
    z = c[:600] + [(0.0, -0.0)[i % 2] for i in range(n - 600)]
    v, w = u[:-1] + [1.0 - 2.0**-40], z[:-1] + [2.0**-40]
    r = [rng.random() for _ in range(n)]
    for x in (0.0, -0.0, 1.0) * 4:
        r[rng.randrange(n)] = x
    return Trace(("a", "b", "c", "u", "z", "v", "w", "r"), tuple(zip(a, b, c, u, z, v, w, r)))


#: F/G heads whose windows span a point fold's chunk boundaries, alone, over
#: unbounded children (inexact on a finite trace) and over unknown atoms read
#: inside the trace or only past its end.
POINT_FOLD_FORMULAS = tuple(
    f"{head}[{t}] {arg}"
    for t in (63, 64, 65, 200, 700)
    for head, arg in (("G", "a"), ("G", "b"), ("F", "c"), ("G", "r"), ("F", "r"))
) + (
    "G a", "G b", "F c", "G r", "F r", "G u", "F u", "G z", "F z", "G v", "F w",
    "G[64] (F c)", "F[65] (G a)", "G[63] (c -> G a)",
    "G[200] zz", "F[64] (X[1000] zz)", "G[700] (X[400] zz)",
)
#: Window starts 320 - d, for d on both sides of chunk boundaries, and later.
POINT_FOLD_POSITIONS = (
    *(320 - d for d in (0, 1, 62, 63, 64, 65, 127, 128, 255, 256, 257, 320)),
    321, 500, 599, 600, 899, 900,
)


def point_fold_outcomes():
    """(outcome line of ``evaluate``, line of the full read) per case, over
    all four interpretations on finite pad-zero, finite strict and lasso
    traces."""
    rng = random.Random(14)
    finite = _saturation_trace(rng)
    lasso = Trace(finite.atoms, finite.states, 600)
    formulas = [parse(text) for text in POINT_FOLD_FORMULAS]
    out = []
    cases = ((finite, FinitePolicy.PAD_ZERO), (finite, FinitePolicy.STRICT), (lasso, None))
    for trace, policy in cases:
        for interp in (Z, G, L, P):
            ctx = ctx_for(trace, interp, ETA_3, policy or FinitePolicy.STRICT)
            for f in formulas:
                for pos in POINT_FOLD_POSITIONS:
                    if pos >= len(trace) and policy is FinitePolicy.STRICT:
                        continue  # PositionOutOfRange before any read
                    try:
                        r = evaluate(ctx, f, pos)
                        got = f"{r.value.hex()} {r.exactness.value}"
                    except FtlError as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    out.append((got, _full_fold_line(ctx, f, pos)))
    return out


#: sha256 of the ``evaluate`` lines of ``point_fold_outcomes()``, taken when
#: every point F/G read its child's whole window, and re-taken when pad-zero
#: began to read an unknown atom past the end as UnknownAtom rather than 0.0.
POINT_FOLD_DIGEST = "3e3a15434ef67482a64e1554e85e0720e204a0aff832dd521e70bb3aa4b68410"


def test_point_folds_match_the_full_read():
    """A point F/G that stops reading its child once the fold is saturated
    gives the value, tag and error of folding its whole window."""
    outcomes = point_fold_outcomes()
    mismatches = [pair for pair in outcomes if pair[0] != pair[1]]
    assert not mismatches, mismatches[:5]
    lines = "\n".join(got for got, _ in outcomes)
    assert hashlib.sha256(lines.encode()).hexdigest() == POINT_FOLD_DIGEST


def _outcome(ctx, f, pos):
    try:
        result = evaluate(ctx, f, pos)
    except FtlError as exc:
        return type(exc)
    return result.value.hex(), result.exactness


def test_pad_zero_is_the_zero_state_lasso():
    """Pad-zero reads a finite trace as the lasso that appends one all-zero
    state looping on itself: the same value, tag and error class at every
    position up to two past the end.  The formulas are bounded (pad-zero
    cuts an unbounded operator at the last state), read an undeclared atom
    too, and may scale by an index the 3-entry table lacks, so errors of
    two classes compete."""
    rng = random.Random(28)
    checked = 0
    for _ in range(1500):
        n = rng.randint(1, 8)
        rows = tuple((rng.choice((0.0, 0.25, 1.0)), rng.random()) for _ in range(n))
        finite = Trace(("p", "q"), rows)
        lasso = Trace(("p", "q"), rows + ((0.0, 0.0),), n)
        f = random_formula(rng, ("p", "q", "zz"), n_eta=4, allow_unbounded=False)
        for interp in (Z, G, L, P):
            padded, looped = ctx_for(finite, interp, ETA_3, FinitePolicy.PAD_ZERO), ctx_for(lasso, interp)
            for pos in range(n + 3):
                assert _outcome(padded, f, pos) == _outcome(looped, f, pos), (f, rows, interp, pos)
                checked += 1
    assert checked > 40000


def _full_limit_line(ctx, f, pos):
    """The value hex of the lasso limit ``f`` at ``pos``, or the error line,
    from a full read: F/G as _full_fold_line, AG from the whole suffix,
    U/AU as the first largest candidate over every k of the scan."""
    if isinstance(f, (Always, Eventually)):
        return _full_fold_line(ctx, f, pos).removesuffix(" Exact")
    trace, eta = ctx.trace, ctx.eta
    start = trace.resolve(pos)
    pre = max(0, trace.loop_start - start)
    try:
        if isinstance(f, AlmostAlways):
            values = _range_values(ctx, f.arg, start, pre + trace.loop_length)
            loop, sp = values[pre:], sorted(values[:pre])
            if ctx.interp in (Z, G):
                gs = [min(min(loop), v) for v in sp] + [min(loop)] * eta.n_eta
                value = max(map(algebra.scale, gs[: eta.n_eta], eta.table))
            elif any(v != 1.0 for v in loop):
                value = 0.0
            else:  # drop j = len(sp), len(sp) - 1, ..., 0 of the sorted prefix
                folds = itertools.accumulate(reversed(sp), lambda acc, v: ctx.ops.tnorm(v, acc))
                weights = map(eta.lookup, range(len(sp) - 1, -1, -1))
                value = max([eta.lookup(len(sp)), *map(algebra.scale, folds, weights)])
        else:
            almost = evaluator._TEMPORAL[type(f)][3]
            scan = max(pre, eta.n_eta if almost else 0) + trace.loop_length + 1
            right = _range_values(ctx, f.right, start, scan)
            left = _range_values(ctx, f.left, start, scan - 1)
            step = ctx.ops.tnorm
            if almost:
                held = evaluator._relaxed_holds(left, step, eta.table)
            else:
                held = itertools.accumulate(left, step)
            value = max([right[0]] + list(map(step, held, right[1:])))
    except FtlError as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.hex()


def _limit_lasso(rng, pre=40, period=300):
    """A lasso whose loop reads cross every chunk boundary.  ``g<d>`` and
    ``f<d>`` are 1.0 (G/AG's unit) and 0.0 or -0.0 (F's) over the loop but
    for 1 - 2^-53 or 2^-60 at loop offset d, none for ``gu``/``fu``; the
    pre-loop stretch is off-grid with 0.0, -0.0, 1.0 and 1 - 2^-53.  ``h``
    stays near 1.  ``r0`` is 0.0 or -0.0, ``rl`` peaks at the last loop
    position and ``rp`` has its maximum only before the loop."""
    n = pre + period
    near_one = 1.0 - 2.0**-53
    edges = (0.0, -0.0, 1.0, near_one)
    cols = {}
    for d in (0, 63, 64, 65, 255, 256, period - 1, None):
        for name, unit, odd in (("g", 1.0, near_one), ("f", 0.0, 2.0**-60)):
            col = [rng.choice((rng.random(), 1.0 - rng.random() / 64, *edges)) for _ in range(pre)]
            col += [unit or (0.0, -0.0)[i % 2] for i in range(period)]
            if d is not None:
                col[pre + d] = odd
            cols[f"{name}{'u' if d is None else d}"] = col
    near = (1.0, near_one, *(1.0 - i * 2.0**-40 for i in range(1, 8)))
    cols["h"] = [rng.choice(near) for _ in range(n)]
    cols["r0"] = [(0.0, -0.0)[i % 2] for i in range(n)]
    cols["rl"] = [rng.choice((rng.random() / 2, 0.0, -0.0)) for _ in range(n - 1)] + [0.96875]
    cols["rp"] = [rng.random() / 2 for _ in range(n)]
    cols["rp"][pre // 2] = 0.75
    return Trace(tuple(cols), tuple(zip(*cols.values())), pre)


LASSO_LIMIT_FORMULAS = tuple(
    f"{head} {name}{d}"
    for d in (0, 63, 64, 65, 255, 256, 299, "u")
    for head, name in (("F", "f"), ("G", "g"), ("AG", "g"))
) + tuple(
    f"{left} {op} {right}"
    for op in ("U", "AU")
    for left in ("h", "gu")
    for right in ("r0", "rl", "rp")
) + ("F zz", "h AU (O[20] rl)")


def _hex_or_error(call):
    try:
        return call().hex()
    except FtlError as exc:
        return f"{type(exc).__name__}: {exc}"


def lasso_limit_outcomes():
    """(``evaluate`` line, ``eval_unbounded_lasso`` line, full-read line) per
    case over the four interpretations and three tables."""
    trace = _limit_lasso(random.Random(15))
    formulas = [parse(text) for text in LASSO_LIMIT_FORMULAS]
    etas = (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(12))
    out = []
    for eta in etas:
        for interp in (Z, G, L, P):
            ctx = ctx_for(trace, interp, eta)
            for f in formulas:
                for pos in (0, 39, 40, 190, 410):  # before, at and inside the loop; past the end
                    got = _hex_or_error(lambda: evaluate(ctx, f, pos).value)
                    limit = _hex_or_error(lambda: eval_unbounded_lasso(ctx, f, pos))
                    out.append((got, limit, _full_limit_line(ctx, f, pos)))
    return out


#: sha256 of the ``evaluate`` lines of ``lasso_limit_outcomes()``, taken when
#: every lasso limit read its child's whole loop and scan.
LASSO_LIMIT_DIGEST = "792f40c3557bfd1775edf4f9cb77f20fc6f0ef645932f82e69cb43855abf5ec2"


def test_lasso_limits_match_the_full_read():
    """Lasso F, G, AG, U and AU that stop reading once their value is decided
    give the value, or the error, of the full read."""
    outcomes = lasso_limit_outcomes()
    mismatches = [case for case in outcomes if len(set(case)) > 1]
    assert not mismatches, mismatches[:5]
    lines = "\n".join(case[0] for case in outcomes)
    assert hashlib.sha256(lines.encode()).hexdigest() == LASSO_LIMIT_DIGEST


def test_lukasiewicz_lasso_until_takes_the_rounded_later_candidate():
    """Under Lukasiewicz _luk_tnorm(h, 1.0) can round above h, so a candidate
    after the held fold ties the best can still win: the full scan of
    ``q U q`` at 4 gives 0x1.d627293e63310p-2, an exit at the tie
    0x1.d627293e6330ep-2."""
    trace = Trace(("p", "q"), _golden_trace_rows(random.Random(8), 9), 3)
    got = eval_unbounded_lasso(ctx_for(trace, L), Until(Atom("q"), Atom("q")), 4)
    assert got.hex() == "0x1.d627293e63310p-2"


def _golden_and_kernel_lassos():
    """The lasso of golden_outcomes() and the two of kernel_outcomes()."""
    golden = _golden_trace_rows(random.Random(8), 9)
    kernel = _golden_trace_rows(random.Random(21), 7)
    return Trace(("p", "q"), golden, 3), Trace(("p", "q"), kernel, 0), Trace(("p", "q"), kernel, 3)


@pytest.mark.parametrize("interp", [Z, G, L, P])
def test_lasso_until_ties_match_the_full_scan(interp):
    """In ``p U p`` each held fold ties a candidate, and under Lukasiewicz a
    later step can round above the tie: lasso U and AU give the bits of the
    first largest candidate over every k of the scan."""
    formulas = [parse(f"{a} {op} {a}") for op in ("U", "AU") for a in ("p", "q")]
    for trace in _golden_and_kernel_lassos():
        for eta in (AvoidingFunction.crisp(), ETA_3, AvoidingFunction.gaussian(12)):
            ctx = ctx_for(trace, interp, eta)
            for f in formulas:
                for pos in range(len(trace) + 2):
                    want = _full_limit_line(ctx, f, pos)
                    assert evaluate(ctx, f, pos).value.hex() == want, (f, eta, pos)
                    assert eval_unbounded_lasso(ctx, f, pos).hex() == want, (f, eta, pos)


#: Formulas whose spans start past a lasso's end and wrap its loop more than
#: once.
LASSO_WRAP_FORMULAS = (
    "X[7] G[9] p", "X[5] (p U[12] q)", "W[3] p", "AG[20] (p AU[4] q)", "X[9] (AG[20] q)",
)


def lasso_wrap_outcomes():
    """On the golden rows with loops of 6, 2 and 1 states, for each
    interpretation, table and formula and each position p from the loop start
    to two periods past the end: the hex of ``evaluate`` at resolve(p) and at
    p + k * period for k = 1, 2 and 10^5."""
    rows = _golden_trace_rows(random.Random(8), 9)
    formulas = [parse(text) for text in LASSO_WRAP_FORMULAS]
    out = []
    for loop in (3, 7, 8):
        trace = Trace(("p", "q"), rows, loop)
        period = trace.loop_length
        for interp in (Z, G, L, P):
            for eta in (ETA_3, AvoidingFunction.gaussian(12)):
                ctx = ctx_for(trace, interp, eta)
                for f in formulas:
                    for p in range(loop, len(trace) + 2 * period):
                        at = (trace.resolve(p), *(p + k * period for k in (1, 2, 10**5)))
                        out.append(tuple(evaluate(ctx, f, q).value.hex() for q in at))
    return out


#: sha256 of the resolve(p) lines of ``lasso_wrap_outcomes()``, taken when a
#: lasso span past the end re-derived its own start around the loop.
LASSO_WRAP_DIGEST = "a8bbf5e6ba19a46fc12dbb2b823eb4aa23442758fb276e990b6ac2d5999d4699"


def test_lasso_positions_one_period_apart_agree():
    """A position past a lasso's end denotes the suffix of its stored state
    Trace.resolve(p), so every span read from there on gives the same bits."""
    outcomes = lasso_wrap_outcomes()
    mismatches = [case for case in outcomes if len(set(case)) > 1]
    assert not mismatches, mismatches[:5]
    lines = "\n".join(case[0] for case in outcomes)
    assert hashlib.sha256(lines.encode()).hexdigest() == LASSO_WRAP_DIGEST


_BOTH_CHILDREN_LASSO = Trace(("p", "q"), ((0.5, 1.0), (0.25, 0.5), (0.75, 0.0)), 1)


@pytest.mark.parametrize("interp", [Z, G, L, P])
@pytest.mark.parametrize(
    "text, error",
    [
        ("r U q", UnknownAtom),
        ("r AU q", UnknownAtom),
        ("r U[2] q", UnknownAtom),
        ("r AU[2] q", UnknownAtom),
        ("O[3] p U q", ScaleIndexOutOfRange),
        ("O[3] p AU q", ScaleIndexOutOfRange),
        ("O[3] p U[2] q", ScaleIndexOutOfRange),
    ],
)
def test_every_until_reads_both_children(interp, text, error):
    """A right value of 1.0 decides an until, yet a left child that cannot
    be evaluated raises its error, bounded or unbounded: q is 1.0 at 0, r is
    not in the trace and n_eta = 2 has no O[3]."""
    ctx = ctx_for(_BOTH_CHILDREN_LASSO, interp, AvoidingFunction((1.0, 0.5)))
    f = parse(text)
    with pytest.raises(error):
        evaluate(ctx, f, 0)
    if isinstance(f, (Until, AlmostUntil)):
        with pytest.raises(error):
            eval_unbounded_lasso(ctx, f, 0)


class TestFormulaTooDeep:
    """A formula nested past Python's stack ends in a typed error."""

    DEEP = functools.reduce(lambda f, _: Not(f), range(5000), Atom("p"))

    def test_evaluate(self):
        with pytest.raises(FormulaTooDeep):
            evaluate(ctx_for(WORKED), self.DEEP)

    def test_almost_always_fast(self):
        with pytest.raises(FormulaTooDeep):
            almost_always_fast(ctx_for(WORKED), self.DEEP, 0, 2)

    def test_eval_unbounded_lasso(self):
        lasso = Trace(("p",), ((0.9,), (0.5,)), loop_start=0)
        with pytest.raises(FormulaTooDeep):
            eval_unbounded_lasso(ctx_for(lasso), Eventually(self.DEEP), 0)


def _random_rows(rng, n):
    """n states of atoms p and q, off-grid with 0.0 and 1.0."""
    return tuple(tuple(rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in "pq") for _ in range(n))


def exactness_outcomes(n_formulas=100, seed=27):
    """One line per exactness outcome, or per error as its class: seeded
    formulas of depth <= 6 and bounds <= 9, each on a finite trace of at
    most 8 states and a lasso of the same states, under both policies and
    all four interpretations.  Every position and two past the end is read
    at a point, then as a range read from it to two past the end (to the
    end of a strict finite trace), one line per position's tag."""
    rng = random.Random(seed)
    eta = AvoidingFunction((1.0, 0.6180339887, 0.25))
    lines = []
    for _ in range(n_formulas):
        n = rng.randint(1, 8)
        rows = _random_rows(rng, n)
        f = random_formula(rng, ("p", "q"), depth=rng.randint(1, 6), max_bound=rng.randint(0, 9), n_eta=4)
        for trace in (Trace(("p", "q"), rows), Trace(("p", "q"), rows, loop_start=rng.randrange(n))):
            for interp in (Z, G, L, P):
                for policy in FinitePolicy:
                    ctx = ctx_for(trace, interp, eta, policy)
                    strict = policy is FinitePolicy.STRICT and not trace.is_lasso
                    for pos in range(n + 2):
                        try:
                            lines.append(evaluate(ctx, f, pos).exactness.value)
                        except FtlError as exc:
                            lines.append(type(exc).__name__)
                        width = (n if strict else n + 2) - pos
                        if width <= 0:
                            continue
                        try:
                            tags = _range_read(ctx, f, pos, width)[1] or [0] * width
                            lines += (evaluator._EXACTNESS[tag].value for tag in tags)
                        except FtlError as exc:
                            lines.append(type(exc).__name__)
    return lines


#: sha256 of ``exactness_outcomes()``, taken when every handler returned its
#: values' tags next to them.
EXACTNESS_DIGEST = "179795d069c9b78a8f173bab3b0f05d53940947f57f2805a9005c6fe68bc0644"


def test_exactness_outcomes():
    """The tags of point and range reads are the parent's, from the walk
    over read intervals that _exactness runs after an evaluation."""
    lines = exactness_outcomes()
    assert len(lines) >= 20_000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACTNESS_DIGEST


def test_every_tag_keeps_its_promise_on_lasso_completions():
    """Under the strict policy, each finite trace is extended into random
    lassos that keep its states.  At every position that evaluates, an
    Exact value equals each completion's value, a LowerBound is at most it
    and an UpperBound at least it; Approximate promises nothing.

    Values are compared exactly, but for one rounding: a Lukasiewicz step
    with 1.0 can round a value down by an ulp, so a finite G that folds a
    1.0 its lasso limit skips can fall below the limit.  On seed 1 (3,000
    formulas), ``G p`` at 1 of (0.5028..., 0.5525607466851056, 1.0) is
    0x1.1ae93e0021b98p-1 and its limit on a lasso whose loop holds 1.0s is
    0x1.1ae93e0021b99p-1."""
    rng = random.Random(28)
    eta = AvoidingFunction((1.0, 0.6180339887, 0.25))
    compared = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        rows = _random_rows(rng, n)
        f = random_formula(rng, ("p", "q"), depth=rng.randint(1, 5), max_bound=rng.randint(0, 4), n_eta=3)
        completions = []
        for _ in range(4):
            extra = rng.randint(0, 6)
            lasso = Trace(("p", "q"), rows + _random_rows(rng, extra), loop_start=rng.randrange(n + extra))
            completions.append(lasso)
        for interp in (Z, G, L, P):
            slack = 2.0**-50 if interp is L else 0.0
            ctx = ctx_for(Trace(("p", "q"), rows), interp, eta)
            for pos in range(n):
                try:
                    r = evaluate(ctx, f, pos)
                except FtlError:
                    continue
                if r.exactness is Exactness.APPROXIMATE:
                    continue
                for lasso in completions:
                    completed = evaluate(ctx_for(lasso, interp, eta), f, pos).value
                    if r.exactness is Exactness.EXACT:
                        assert r.value == completed, (f, interp, pos, lasso)
                    elif r.exactness is Exactness.LOWER_BOUND:
                        assert r.value <= completed + slack, (f, interp, pos, lasso)
                    else:
                        assert r.value >= completed - slack, (f, interp, pos, lasso)
                    compared += 1
    assert compared >= 15_000
