import dataclasses
import random

import pytest

from fuzzytl import core
from fuzzytl.core import (
    OPERATORS,
    AlwaysB,
    And,
    Atom,
    AvoidingFunction,
    Bot,
    EventuallyB,
    Formula,
    Next,
    Scale,
    Top,
    Trace,
    UntilB,
    children,
    degree,
    node_count,
    with_children,
)
from fuzzytl.checks import random_formula
from fuzzytl.errors import NotALasso, PositionOutOfRange, UnknownAtom, ValidationError
from fuzzytl.evaluator import _HANDLERS


def test_degree_accepts_unit_interval():
    assert degree(0.0) == 0.0
    assert degree(1.0) == 1.0
    assert degree(0.25) == 0.25


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-9, float("nan"), "x", None])
def test_degree_rejects_outside_unit_interval(bad):
    with pytest.raises(ValidationError):
        degree(bad)


class TestAvoidingFunction:
    def test_lookup_clauses(self):
        eta = AvoidingFunction((1.0, 0.5, 0.3))
        assert eta.lookup(-2) == 1.0
        assert eta.lookup(0) == 1.0
        assert eta.lookup(1) == 0.5
        assert eta.lookup(2) == 0.3
        assert eta.lookup(3) == 0.0
        assert eta.lookup(100) == 0.0
        assert eta.n_eta == 3

    def test_crisp_table(self):
        eta = AvoidingFunction.crisp()
        assert eta.n_eta == 1
        assert eta.lookup(0) == 1.0
        assert eta.lookup(1) == 0.0

    def test_gaussian_table(self):
        eta = AvoidingFunction.gaussian(20)
        assert eta.n_eta == 21
        assert eta.table[0] == 1.0
        for i in range(1, 21):
            assert eta.table[i] < eta.table[i - 1]

    def test_rejects_bad_head(self):
        with pytest.raises(ValidationError):
            AvoidingFunction((0.9, 0.5))

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValidationError):
            AvoidingFunction((1.0, 0.5, 0.5))
        with pytest.raises(ValidationError):
            AvoidingFunction((1.0, 0.5, 0.7))

    def test_rejects_zero_entries(self):
        # the stored table is the nonzero prefix; the zero tail is implied
        with pytest.raises(ValidationError):
            AvoidingFunction((1.0, 0.5, 0.0))

    def test_rejects_random_invalid_tables(self):
        rng = random.Random(13)
        rejected = 0
        for _ in range(100):
            tail = sorted(
                rng.sample([i / 16 for i in range(1, 16)], rng.randint(1, 4)), reverse=True
            )
            kind = rng.randrange(4)
            if kind == 0:
                table = [rng.choice([0.0, 0.5, 0.9])] + tail  # bad head
            elif kind == 1:
                table = [1.0] + tail + [tail[-1]]  # repeats the last entry
            elif kind == 2:
                table = [1.0] + tail + [min(1.0, tail[0] + 1 / 16)]  # climbs back up
            else:
                table = [1.0] + tail + [rng.choice([0.0, -0.5, 1.5])]  # leaves (0, 1)
            try:
                AvoidingFunction(tuple(table))
            except ValidationError:
                rejected += 1
        assert rejected == 100


class TestTrace:
    def test_at_finite(self):
        trace = Trace(("p",), ((0.1,), (0.2,), (1.0,), (0.1,)))
        assert trace.at(2, "p") == 1.0

    def test_at_lasso_wraps(self):
        trace = Trace(("p",), ((0.9,), (0.5,), (0.7,)), loop_start=1)
        assert trace.at(4, "p") == 0.7

    def test_at_past_end_of_finite_trace(self):
        trace = Trace(("p",), ((0.1,), (0.2,), (1.0,), (0.1,)))
        with pytest.raises(PositionOutOfRange):
            trace.at(5, "p")

    def test_unknown_atom(self):
        trace = Trace(("p",), ((0.5,),))
        with pytest.raises(UnknownAtom):
            trace.at(0, "q")

    def test_lasso_periodicity(self):
        rng = random.Random(99)
        for _ in range(50):
            length = rng.randint(1, 10)
            loop = rng.randrange(length)
            states = tuple((rng.random(),) for _ in range(length))
            trace = Trace(("p",), states, loop)
            span = trace.loop_length
            for pos in range(loop, loop + 3 * span):
                assert trace.at(pos, "p") == trace.at(pos + span, "p")

    def test_loop_length_requires_lasso(self):
        with pytest.raises(NotALasso):
            _ = Trace(("p",), ((0.5,),)).loop_length

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            Trace(("p", "q"), ((0.5,),))

    def test_rejects_bad_loop_index(self):
        with pytest.raises(ValidationError):
            Trace(("p",), ((0.5,),), loop_start=1)

    def test_rejects_boolean_loop_index(self):
        # bool is an int subclass; True would otherwise pass as loop 1
        with pytest.raises(ValidationError):
            Trace(("p",), ((0.5,), (0.5,)), loop_start=True)

    def test_rejects_out_of_range_degrees(self):
        with pytest.raises(ValidationError):
            Trace(("p",), ((1.5,),))


class TestFormulaNodes:
    def test_bounds_must_be_naturals(self):
        for bad in (-1, -5):
            with pytest.raises(ValidationError):
                EventuallyB(bad, Atom("p"))
            with pytest.raises(ValidationError):
                UntilB(bad, Atom("p"), Atom("q"))
            with pytest.raises(ValidationError):
                Scale(bad, Atom("p"))

    def test_structural_equality(self):
        assert AlwaysB(2, Atom("p")) == AlwaysB(2, Atom("p"))
        assert AlwaysB(2, Atom("p")) != AlwaysB(3, Atom("p"))
        assert hash(Next(Atom("p"))) == hash(Next(Atom("p")))

    def test_children_and_rebuild(self):
        f = UntilB(2, Atom("p"), Next(Atom("q")))
        kids = children(f)
        assert kids == (Atom("p"), Next(Atom("q")))
        rebuilt = with_children(f, (Atom("a"), Atom("b")))
        assert rebuilt == UntilB(2, Atom("a"), Atom("b"))
        assert with_children(Atom("p"), ()) == Atom("p")

    def test_node_count(self):
        assert node_count(Atom("p")) == 1
        assert node_count(And(Atom("p"), Next(Atom("q")))) == 4

    def test_size_is_the_walked_node_count(self):
        rng = random.Random(41)
        for _ in range(300):
            f = random_formula(rng, depth=rng.randint(0, 6), max_bound=5, n_eta=3)
            walked, stack = 0, [f]
            while stack:
                node = stack.pop()
                walked += 1
                stack.extend(children(node))
            assert f.size == node_count(f) == walked

    def test_size_counts_a_shared_subtree_at_every_use(self):
        f = Atom("p")
        for _ in range(100):
            f = And(f, f)
        assert f.size == 2**101 - 1

    def test_size_leaves_eq_hash_and_repr_alone(self):
        (size,) = [f for f in dataclasses.fields(Formula)]
        assert (size.name, size.init, size.compare, size.repr) == ("size", False, False, False)
        p = Atom("p")
        assert hash(p) == hash(("p",))
        assert hash(Next(p)) == hash((p,))
        assert hash(EventuallyB(2, p)) == hash((2, p))
        assert repr(UntilB(2, p, Next(p))) == (
            "UntilB(bound=2, left=Atom(name='p'), right=Next(arg=Atom(name='p')))"
        )
        assert EventuallyB(2, p) == EventuallyB(2, Atom("p")) != EventuallyB(2, Top())

    def test_operator_rows_ignore_the_size_field(self):
        for cls in (Top, Bot, Atom):
            assert OPERATORS[cls].param is None
            assert OPERATORS[cls].children == ()
        assert OPERATORS[Scale].param == "index"
        assert OPERATORS[UntilB].param == "bound"
        assert OPERATORS[UntilB].children == ("left", "right")


def test_operator_table_has_one_row_and_one_handler_per_node_class():
    classes = {
        obj
        for obj in vars(core).values()
        if isinstance(obj, type) and issubclass(obj, core.Formula) and obj is not core.Formula
    }
    assert len(classes) == 24
    assert set(OPERATORS) == classes
    assert set(_HANDLERS) == classes
    for cls, spec in OPERATORS.items():
        assert spec.cls is cls
        if spec.twin is not None:
            twin = OPERATORS[spec.twin]
            assert twin.twin is cls
            assert (twin.keyword, twin.level, twin.bound) == (spec.keyword, spec.level, spec.bound)
            assert (spec.param is None) != (twin.param is None)
