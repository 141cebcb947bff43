import copy
import dataclasses
import hashlib
import pickle
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
    Eventually,
    EventuallyB,
    Formula,
    Implies,
    Interpretation,
    Next,
    Not,
    Or,
    Scale,
    Top,
    Trace,
    UntilB,
    WeakOr,
    children,
    degree,
    node_count,
    with_children,
)
from fuzzytl.checks import random_formula
from fuzzytl.errors import NotALasso, PositionOutOfRange, UnknownAtom, ValidationError
from fuzzytl.evaluator import _HANDLERS, EvalContext, evaluate


def test_degree_accepts_unit_interval():
    assert degree(0.0) == 0.0
    assert degree(1.0) == 1.0
    assert degree(0.25) == 0.25


@pytest.mark.parametrize(
    "bad",
    [-0.1, 1.1, 2.0, -1e-9, float("nan"), "x", None, pytest.param(10**400, id="int-past-float")],
)
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

    @pytest.mark.parametrize("name", ["__eta_1", "__eta_0", "__eta_007"])
    def test_rejects_reserved_eta_names(self, name):
        # evaluation reads such an atom as an eta constant, never its column
        with pytest.raises(ValidationError, match="reserved for an eta constant"):
            Trace((name, "p"), ((0.9, 0.5),))

    def test_names_near_the_eta_prefix_are_atoms(self):
        names = ("__eta_", "__eta_x", "__eta_1x", "_eta_1")
        trace = Trace(names, ((0.75, 0.5, 0.25, 0.125),))
        ctx = EvalContext(trace, Interpretation.ZADEH, AvoidingFunction((1.0, 0.5)))
        assert [evaluate(ctx, Atom(name)).value for name in names] == [0.75, 0.5, 0.25, 0.125]

    def test_eta_atom_past_int_digits_reads_past_every_table(self):
        # int() refuses strings past 4300 digits
        ctx = EvalContext(Trace(("p",), ((0.9,),)), Interpretation.ZADEH, AvoidingFunction((1.0, 0.5)))
        assert evaluate(ctx, Atom("__eta_" + "9" * 5000)).value == 0.0
        assert evaluate(ctx, Atom("__eta_" + "0" * 5000 + "1")).value == 0.5

    def test_derived_fields_are_not_constructor_arguments(self):
        # a caller-supplied atom index would let an undeclared atom read
        # another atom's column
        with pytest.raises(TypeError):
            Trace(("p", "q"), ((0.5, 0.25),), None, {"r": 1})
        with pytest.raises(TypeError):
            Trace(("p",), ((0.5,),), _index={"r": 0})
        with pytest.raises(TypeError):
            Trace(("p",), ((0.5,),), _length=5)
        trace = Trace(("p", "q"), ((0.5, 0.25),))
        assert trace._index == {"p": 0, "q": 1} and len(trace) == 1
        ctx = EvalContext(trace, Interpretation.ZADEH, AvoidingFunction.crisp())
        assert evaluate(ctx, Atom("q"), 0).value == 0.25
        with pytest.raises(UnknownAtom):
            evaluate(ctx, Atom("r"), 0)


def trace_outcome(build) -> str:
    """What building a trace gives: its stored values as ``float.hex`` (so
    -0.0 and the last bit show), or the exception's type and message."""
    try:
        trace = build()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    rows = [" ".join(map(float.hex, row)) for row in trace.states]
    return f"{trace.atoms} loop={trace.loop_start} " + " | ".join(rows)


#: Values a trace row may hold, accepted or not.
INGEST_VALUES = (
    0.0, 1.0, 0.25, -0.0, 5e-324, 0.1 + 0.2, float("nan"), float("inf"), float("-inf"),
    -1e-300, 1.0000000000000002, None, "x", [0.5], (0.5,), 0, 1, 2, True, False,
    "0.5", " 0.75 ", "1e-3", "-0", "nan", "inf", "", 1.5,
)


def trace_ingest_cases():
    """(label, thunk) pairs: every value in each cell of a two-atom trace,
    one value after another in row-major order, ragged rows before and after
    a bad value, and the other checks of ``Trace``."""
    cases = []
    for v in INGEST_VALUES:
        cases.append((f"first {v!r}", lambda v=v: Trace(("p", "q"), ((v, 0.5), (0.5, 0.5)))))
        cases.append((f"last {v!r}", lambda v=v: Trace(("p", "q"), [[0.5, 0.5], [0.5, v]])))
    for a in INGEST_VALUES:
        for b in ("x", float("nan"), 2.0, None, 0.5):
            cases.append((f"{a!r} then {b!r}", lambda a=a, b=b: Trace(("p",), ((a,), (b,)))))
    cases += [
        ("ragged after bad", lambda: Trace(("p", "q"), ((0.5, 0.5), (0.5, 1.5), (0.5,)))),
        ("ragged before bad", lambda: Trace(("p", "q"), ((0.5,), (0.5, float("nan"))))),
        ("ragged long", lambda: Trace(("p",), ((0.5,), (0.5, 0.5)))),
        ("no states", lambda: Trace(("p",), ())),
        ("no atoms", lambda: Trace((), ((), ()))),
        ("duplicate atoms", lambda: Trace(("p", "p"), ((0.5, 0.5),))),
        ("row not iterable", lambda: Trace(("p",), (0.5,))),
        ("bad value before a row that is not iterable", lambda: Trace(("p",), ((2.0,), 0.5))),
        ("string row", lambda: Trace(("p", "q"), ("01",))),
        ("states not iterable", lambda: Trace(("p",), None)),
        ("lasso", lambda: Trace(("p",), ((0.5,), (1,)), 1)),
        ("loop out of range", lambda: Trace(("p",), ((0.5,),), 1)),
        ("loop and bad value", lambda: Trace(("p",), ((7,),), 3)),
        ("generator rows", lambda: Trace(("p", "q"), ((x for x in r) for r in ((0.5, "1"), (True, -0.0))))),
        ("generator rows, bad", lambda: Trace(("p", "q"), ((x for x in r) for r in ((0.5, 0.5), (0.5, "y"))))),
        ("iterator row", lambda: Trace(("p",), [iter([0.5]), (1.5,)])),
    ]
    return cases


#: sha256 of the outcomes of ``trace_ingest_cases``, taken before ``Trace``
#: validated values in bulk.
TRACE_INGEST_DIGEST = "c55391edcb16c4f81e7a2a63cb41486f64ee29b3b586969de11a58048919e9d0"


class TestTraceIngest:
    def test_outcomes_match_the_per_value_validator(self):
        lines = [f"{label}: {trace_outcome(build)}" for label, build in trace_ingest_cases()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRACE_INGEST_DIGEST

    def test_values_kept_as_floats(self):
        trace = Trace(("p", "q", "r"), [[-0.0, True, "0.5"], [0, " 1 ", 5e-324]])
        assert trace.states == ((0.0, 1.0, 0.5), (0.0, 1.0, 5e-324))
        assert [type(v) for row in trace.states for v in row] == [float] * 6
        assert str(trace.states[0][0]) == "-0.0"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((0.5, 0.5), (0.5, float("nan")), (0.5,)), "truth degree nan outside [0, 1]"),
            (((0.5, 2), (None, 0.5)), "truth degree 2.0 outside [0, 1]"),
            (((0.5, 0.5), (None, 2)), "truth degree None is not a number"),
            (((0.5, 0.5), (0.5,)), "state 1 has 1 entries for 2 atoms"),
            pytest.param(
                ((0.5, 0.5), (0.5, 10**400), (2.0,)),
                f"truth degree {10**400} outside [0, 1]",
                id="int-past-float",
            ),
        ],
    )
    def test_first_bad_value_in_row_major_order(self, rows, message):
        with pytest.raises(ValidationError) as exc:
            Trace(("p", "q"), rows)
        assert str(exc.value) == message

    def test_generator_of_generators(self):
        # the error path reads the rows again, so one-shot rows are kept
        def rows(*values):
            for row in ((0.5, 1), *values):
                yield (v for v in row)

        assert Trace(("p", "q"), rows((0.25, 0.0))).states == ((0.5, 1.0), (0.25, 0.0))
        with pytest.raises(ValidationError) as exc:
            Trace(("p", "q"), rows((2.0, 0.5), (0.25, "zz")))
        assert str(exc.value) == "truth degree 2.0 outside [0, 1]"
        with pytest.raises(ValidationError) as exc:
            Trace(("p", "q"), rows((0.25, "zz"), (2.0, 0.5)))
        assert str(exc.value) == "truth degree 'zz' is not a number"


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
        p = Atom("p")
        assert And(p, p) != Or(p, p) and Top() != Bot()
        assert EventuallyB(2, p) != Eventually(p)
        assert (Atom("p") == "p") is False and Atom("p") != ("p",)

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
        with pytest.raises(TypeError):
            Atom("p", 1)  # size is not a constructor argument
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


DEPTH = 10**5


def not_chain(leaf: Formula, depth: int = DEPTH) -> Formula:
    f = leaf
    for _ in range(depth):
        f = Not(f)
    return f


def until_spine(leaf: Formula, depth: int = DEPTH) -> Formula:
    """``depth`` bounded untils nested down the left, bounds 0, 1, 2, 0, ..."""
    f = leaf
    for k in range(depth):
        f = UntilB(k % 3, f, Atom("q"))
    return f


class TestDeepNodes:
    """Hash, ==, repr and size end without recursion at any depth."""

    @pytest.mark.parametrize("build", [not_chain, until_spine], ids=["not-chain", "until-spine"])
    def test_hash_eq_and_dict_key(self, build):
        f, same, other = build(Atom("p")), build(Atom("p")), build(Atom("r"))
        assert f is not same
        assert hash(f) == hash(same)
        assert f == same and not f != same
        assert f != other and not f == other
        assert {f: 1}[same] == 1
        assert other not in {f: 1}
        assert f.size == (DEPTH + 1 if build is not_chain else 2 * DEPTH + 1)

    def test_repr_of_a_not_chain(self):
        text = repr(not_chain(Atom("p")))
        assert len(text) == len("Not(arg=)") * DEPTH + len("Atom(name='p')")
        assert text.startswith("Not(arg=Not(arg=Not(arg=")
        assert text.endswith("Not(arg=Atom(name='p')" + ")" * DEPTH)

    def test_repr_of_an_until_spine(self):
        text = repr(until_spine(Atom("p")))
        head = sum(len(f"UntilB(bound={k % 3}, left=") for k in range(DEPTH))
        assert len(text) == head + len("Atom(name='p')") + DEPTH * len(", right=Atom(name='q'))")
        assert text.startswith(
            f"UntilB(bound={(DEPTH - 1) % 3}, left=UntilB(bound={(DEPTH - 2) % 3}, left="
        )
        assert text.endswith(
            "left=UntilB(bound=0, left=Atom(name='p'), right=Atom(name='q'))"
            + ", right=Atom(name='q'))" * (DEPTH - 1)
        )

    def test_pickle_and_copy_round_trip(self):
        f = UntilB(2, Not(Atom("p")), Scale(1, WeakOr(Top(), Bot())))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            g = pickle.loads(pickle.dumps(f, protocol))
            assert g == f and hash(g) == hash(f) and repr(g) == repr(f) and g.size == f.size
        assert copy.copy(f) is f and copy.deepcopy(f) is f

    @pytest.mark.parametrize("build", [not_chain, until_spine], ids=["not-chain", "until-spine"])
    def test_deep_pickle_and_copy_round_trip(self, build):
        f = build(Atom("p"))
        g = pickle.loads(pickle.dumps(f))
        assert g is not f and g == f and hash(g) == hash(f) and g.size == f.size
        assert copy.copy(f) is f and copy.deepcopy([f])[0] is f

    def test_pickle_keeps_shared_subtrees_shared(self):
        shared = And(Atom("p"), Next(Atom("q")))
        f = Or(shared, Implies(Not(shared), shared))
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.left is g.right.left.arg is g.right.right
        dag = Atom("p")
        for _ in range(200):  # 2^200 nodes expanded, 201 distinct
            dag = Or(dag, dag)
        h = pickle.loads(pickle.dumps(dag))
        assert hash(h) == hash(dag) and h.size == dag.size == 2**201 - 1
        for _ in range(200):
            assert type(h) is Or and h.left is h.right
            h = h.left
        assert h == Atom("p")


class TestNodeClasses:
    def test_classes_come_from_their_rows(self):
        for cls, spec in OPERATORS.items():
            assert not dataclasses.is_dataclass(cls)
            assert getattr(core, cls.__name__) is cls
            assert (cls.__module__, cls.__qualname__) == ("fuzzytl.core", cls.__name__)
            assert cls.__bases__ == (Formula,) and cls.__doc__
            params = () if spec.param is None else (spec.param,)
            if cls is Atom:
                params = ("name",)
            assert cls.__match_args__ == params + spec.children

    def test_every_kind_builds_by_position_and_by_keyword(self):
        rng = random.Random(7)
        for cls, spec in OPERATORS.items():
            args = {"name": "p"} if cls is Atom else {}
            if spec.param is not None:
                args[spec.param] = rng.randint(1, 3)
            args.update((name, Atom(name)) for name in spec.children)
            f = cls(**args)
            assert f == cls(*args.values()) == pickle.loads(pickle.dumps(f))
            assert hash(f) == hash(tuple(args.values()))
            assert f.size == 1 + len(spec.children)
            assert not hasattr(f, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.size = 3
            with pytest.raises(dataclasses.FrozenInstanceError):
                del f.size
            assert tuple(getattr(f, name) for name in cls.__match_args__) == tuple(args.values())

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Not("p"), "p"),
            (lambda: And(Atom("p"), None), None),
            (lambda: EventuallyB(2, 1.5), 1.5),
            (lambda: UntilB(1, Atom("p"), "q"), "q"),
            (lambda: Scale(1, None), None),
            (lambda: Not(Atom), Atom),
            (lambda: Or("p", None), "p"),
        ],
        ids=["Not-str", "And-None", "F[t]-float", "U[t]-str", "O[j]-None", "Not-class", "Or-first"],
    )
    def test_a_child_that_is_not_a_node_is_a_type_error(self, build, bad):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == f"unknown formula node {bad!r}"

    def test_every_child_slot_of_every_kind_is_checked(self):
        for cls, spec in OPERATORS.items():
            params = () if spec.param is None else (1,)
            for slot in range(len(spec.children)):
                kids = [Atom("p")] * len(spec.children)
                kids[slot] = [slot]
                with pytest.raises(TypeError, match=rf"^unknown formula node \[{slot}\]$"):
                    cls(*params, *kids)

    def test_class_patterns_match_positionally(self):
        match UntilB(2, Atom("p"), Next(Atom("q"))):
            case UntilB(bound, Atom(name), Next(Atom(inner))):
                assert (bound, name, inner) == (2, "p", "q")
            case _:
                pytest.fail("UntilB did not match its own pattern")


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
