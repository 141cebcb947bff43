"""Core domain types: truth degrees, formulas, traces, avoiding functions.

Everything here is immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .errors import NotALasso, PositionOutOfRange, UnknownAtom, ValidationError

#: A truth degree is a plain float in [0, 1].
TruthDegree = float

#: Atoms with this prefix resolve to avoiding-table entries, not trace lookups.
ETA_ATOM_PREFIX = "__eta_"


def degree(value: float) -> TruthDegree:
    """Validate and return a truth degree; rejects non-numbers and anything
    outside [0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"truth degree {value!r} is not a number") from exc
    except OverflowError as exc:  # an int too large for a float
        raise ValidationError(f"truth degree {value!r} outside [0, 1]") from exc
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"truth degree {value!r} outside [0, 1]")
    return value


class Interpretation(Enum):
    """Which family of connective operations evaluation uses."""

    ZADEH = "zadeh"
    GODEL = "godel"
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Base class of the abstract syntax tree; all nodes are frozen.

    ``size`` is the node count of the expanded tree, a shared subtree counted
    at every use.  It is set once from the children's sizes, so it costs O(1)
    per node however deep or shared the formula is, and it takes no part in
    ``==``, ``hash`` or ``repr``.
    """

    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        spec = OPERATORS[type(self)]
        if spec.param is not None:
            _check_bound(getattr(self, spec.param))
        size = 1
        for name in spec.children:
            size += getattr(self, name).size
        # frozen, so write the instance dict directly; the field is never rebound
        self.__dict__["size"] = size


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    """Constant truth 1."""


@dataclass(frozen=True)
class Bot(Formula):
    """Constant truth 0."""


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class WeakAnd(Formula):
    """Lattice conjunction (pointwise minimum under every interpretation)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class WeakOr(Formula):
    """Lattice disjunction (pointwise maximum under every interpretation)."""

    left: Formula
    right: Formula


def _check_bound(t: int) -> None:
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValidationError(f"temporal bound must be a natural number, got {t!r}")


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Soon(Formula):
    """Next, relaxed: tolerates up to n_eta instants of delay with penalties."""

    arg: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class EventuallyB(Formula):
    bound: int
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class AlwaysB(Formula):
    bound: int
    arg: Formula


@dataclass(frozen=True)
class AlmostAlways(Formula):
    arg: Formula


@dataclass(frozen=True)
class AlmostAlwaysB(Formula):
    bound: int
    arg: Formula


@dataclass(frozen=True)
class Lasts(Formula):
    """Holds for the next `bound` instants, possibly cut short near the end."""

    bound: int
    arg: Formula


@dataclass(frozen=True)
class Within(Formula):
    """Holds within `bound` instants, or a little later at a penalty."""

    bound: int
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class UntilB(Formula):
    bound: int
    left: Formula
    right: Formula


@dataclass(frozen=True)
class AlmostUntil(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class AlmostUntilB(Formula):
    bound: int
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Scale(Formula):
    """Multiplies the child's degree by eta(index); 1 <= index < n_eta at eval time."""

    index: int
    arg: Formula


# ---------------------------------------------------------------------------
# The operator table
# ---------------------------------------------------------------------------


class Bound:
    """How a keyword takes its bracketed natural number."""

    NONE = "none"  # no brackets
    OPTIONAL = "optional"  # `[t]` selects the bounded twin
    REQUIRED = "required"  # `[t]` is mandatory
    INDEX = "index"  # `[j]` is mandatory and indexes the avoiding table
    REPEAT = "repeat"  # `[k]` stacks k copies of the node


class Level:
    """Precedence, loosest first.  Implication is right-associative; the
    other binary levels are left-associative.  Plain ints, not an enum: the
    parser and formatter compare them once per token and per node."""

    IMPLIES, OR, AND, UNTIL, UNARY, LEAF = range(6)


@dataclass(frozen=True)
class OpSpec:
    """One row of the operator table; arity comes from the dataclass fields."""

    cls: type
    keyword: Optional[str]  # None for atoms, whose text is their name
    level: int  # a Level
    bound: str = Bound.NONE
    twin: Optional[type] = None  # the bounded <-> unbounded counterpart
    children: tuple[str, ...] = field(init=False)  # the Formula fields, in order
    param: Optional[str] = field(init=False)  # the int field; always the first
    get_children: Callable[[Formula], tuple[Formula, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # ``size`` is not an init field, so it is neither a child nor the param
        typed = [(f.name, f.type) for f in fields(self.cls) if f.init]
        names = tuple(n for n, t in typed if t == "Formula")
        object.__setattr__(self, "children", names)
        object.__setattr__(self, "param", next((n for n, t in typed if t == "int"), None))
        # tree walks call this once per node, so it is an attrgetter where it
        # can be; for a single name attrgetter returns the bare value
        if len(names) == 1:
            one = attrgetter(names[0])
            getter = lambda f: (one(f),)
        elif names:
            getter = attrgetter(*names)
        else:
            getter = lambda f: ()
        object.__setattr__(self, "get_children", getter)

    @property
    def unbounded(self) -> bool:
        """True for F, G, AG, U and AU without a bound."""
        return self.twin is not None and self.param is None


#: Node class -> its row: concrete syntax, precedence and bounded twin.
OPERATORS: dict[type, OpSpec] = {
    spec.cls: spec
    for spec in (
        OpSpec(Atom, None, Level.LEAF),
        OpSpec(Top, "true", Level.LEAF),
        OpSpec(Bot, "false", Level.LEAF),
        OpSpec(Not, "!", Level.UNARY),
        OpSpec(Next, "X", Level.UNARY, Bound.REPEAT),
        OpSpec(Soon, "S", Level.UNARY),
        OpSpec(Eventually, "F", Level.UNARY, Bound.OPTIONAL, EventuallyB),
        OpSpec(EventuallyB, "F", Level.UNARY, Bound.OPTIONAL, Eventually),
        OpSpec(Always, "G", Level.UNARY, Bound.OPTIONAL, AlwaysB),
        OpSpec(AlwaysB, "G", Level.UNARY, Bound.OPTIONAL, Always),
        OpSpec(AlmostAlways, "AG", Level.UNARY, Bound.OPTIONAL, AlmostAlwaysB),
        OpSpec(AlmostAlwaysB, "AG", Level.UNARY, Bound.OPTIONAL, AlmostAlways),
        OpSpec(Lasts, "L", Level.UNARY, Bound.REQUIRED),
        OpSpec(Within, "W", Level.UNARY, Bound.REQUIRED),
        OpSpec(Scale, "O", Level.UNARY, Bound.INDEX),
        OpSpec(Until, "U", Level.UNTIL, Bound.OPTIONAL, UntilB),
        OpSpec(UntilB, "U", Level.UNTIL, Bound.OPTIONAL, Until),
        OpSpec(AlmostUntil, "AU", Level.UNTIL, Bound.OPTIONAL, AlmostUntilB),
        OpSpec(AlmostUntilB, "AU", Level.UNTIL, Bound.OPTIONAL, AlmostUntil),
        OpSpec(And, "&", Level.AND),
        OpSpec(WeakAnd, "&&", Level.AND),
        OpSpec(Or, "|", Level.OR),
        OpSpec(WeakOr, "||", Level.OR),
        OpSpec(Implies, "->", Level.IMPLIES),
    )
}


def children(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas, left to right."""
    return OPERATORS[type(f)].get_children(f)


def with_children(f: Formula, new: tuple[Formula, ...]) -> Formula:
    """Rebuild the same node kind around replacement children."""
    spec = OPERATORS[type(f)]
    if not spec.children:
        return f
    if spec.param is None:
        return spec.cls(*new)
    return spec.cls(getattr(f, spec.param), *new)


def node_count(f: Formula) -> int:
    """Number of nodes in the expanded tree, a shared subtree counted at every use."""
    return f.size


# ---------------------------------------------------------------------------
# Avoiding function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AvoidingFunction:
    """Penalty table [eta(0), ..., eta(n_eta - 1)]; zero from n_eta onward.

    The stored table is the nonzero prefix: eta(0) = 1, strictly decreasing,
    every stored entry positive.
    """

    table: tuple[TruthDegree, ...]

    def __post_init__(self) -> None:
        table = tuple(degree(v) for v in self.table)
        object.__setattr__(self, "table", table)
        if not table:
            raise ValidationError("avoiding function table must be nonempty")
        if table[0] != 1.0:
            raise ValidationError(f"eta(0) must be 1, got {table[0]!r}")
        for i in range(1, len(table)):
            if not table[i] < table[i - 1]:
                raise ValidationError(
                    f"avoiding table must be strictly decreasing: eta({i - 1})={table[i - 1]!r} "
                    f"vs eta({i})={table[i]!r}"
                )
        if table[-1] <= 0.0:
            raise ValidationError("stored avoiding table holds the nonzero prefix only")

    @property
    def n_eta(self) -> int:
        return len(self.table)

    def lookup(self, i: int) -> TruthDegree:
        """eta(i): 1 for i <= 0, table value inside the prefix, 0 beyond."""
        if i <= 0:
            return 1.0
        if i < len(self.table):
            return self.table[i]
        return 0.0

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "AvoidingFunction":
        return cls(tuple(values))

    @classmethod
    def crisp(cls) -> "AvoidingFunction":
        """n_eta = 1: no delay or avoidance is tolerated at all."""
        return cls((1.0,))

    @classmethod
    def gaussian(cls, width: int) -> "AvoidingFunction":
        """Table exp(-(n/width)^2) for n = 0..width; n_eta = width + 1."""
        if width < 1:
            raise ValidationError(f"gaussian width must be >= 1, got {width!r}")
        return cls(tuple(math.exp(-((n / width) ** 2)) for n in range(width + 1)))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


#: Row containers that can be read twice; other rows are copied first so that
#: the error path of ``Trace`` can read them again.
_ROW_TYPES = frozenset({tuple, list})


def _rereadable(row):
    try:
        items = iter(row)
    except TypeError:
        return row  # not iterable: the conversion fails on it in row order
    return tuple(items) if items is row else row


@dataclass(frozen=True)
class Trace:
    """A finite or lasso-shaped linear time structure.

    ``states[i][k]`` is the degree of ``atoms[k]`` at instant ``i``.  When
    ``loop_start`` is set the trace denotes the infinite path
    ``states[:loop_start] + cycle(states[loop_start:])``.
    """

    atoms: tuple[str, ...]
    states: tuple[tuple[TruthDegree, ...], ...]
    loop_start: Optional[int] = None
    _index: dict = field(default_factory=dict, compare=False, repr=False)
    _length: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if len(set(atoms)) != len(atoms):
            raise ValidationError("duplicate atom names in trace")
        rows = tuple(self.states)
        if not _ROW_TYPES.issuperset(map(type, rows)):
            rows = tuple(map(_rereadable, rows))
        # C-level passes: one converts (rows of floats only become tuples),
        # the others bound every value; NaN passes min and max but turns the
        # sum into NaN.
        try:
            values = chain.from_iterable
            if {float}.issuperset(map(type, values(rows))):
                states = tuple(map(tuple, rows))  # a tuple row is kept as it is
            else:
                states = tuple(map(tuple, map(map, repeat(float), rows)))
            total = sum(values(states))
            valid = total == total and min(values(states)) >= 0.0 and max(values(states)) <= 1.0
        except (TypeError, ValueError, OverflowError):
            # whatever float() raised, degree() raises again below, in row
            # order; min() of a trace without values lands here too
            valid = False
        if not valid:
            # degree() names the first bad value in row-major order
            states = tuple(tuple(degree(v) for v in row) for row in rows)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValidationError("trace must have at least one state")
        if set(map(len, states)) != {len(atoms)}:
            for i, row in enumerate(states):
                if len(row) != len(atoms):
                    raise ValidationError(
                        f"state {i} has {len(row)} entries for {len(atoms)} atoms"
                    )
        if self.loop_start is not None:
            loop = self.loop_start
            if not isinstance(loop, int) or isinstance(loop, bool) or not 0 <= loop < len(states):
                raise ValidationError(
                    f"loop start {loop!r} outside 0..{len(states) - 1}"
                )
        self._index.update({name: k for k, name in enumerate(atoms)})
        object.__setattr__(self, "_length", len(states))

    @property
    def is_lasso(self) -> bool:
        return self.loop_start is not None

    def __len__(self) -> int:
        return self._length

    @property
    def loop_length(self) -> int:
        if self.loop_start is None:
            raise NotALasso("finite trace has no loop")
        return len(self.states) - self.loop_start

    def resolve(self, pos: int) -> int:
        """Map a path position onto a stored state index (wrapping the loop)."""
        if pos < 0:
            raise PositionOutOfRange(f"negative position {pos}")
        if pos < len(self.states):
            return pos
        if self.loop_start is None:
            raise PositionOutOfRange(
                f"position {pos} past the end of a {len(self.states)}-state finite trace"
            )
        span = len(self.states) - self.loop_start
        return self.loop_start + (pos - self.loop_start) % span

    def at(self, pos: int, atom: str) -> TruthDegree:
        """The atom's degree at the resolved position."""
        k = self._index.get(atom)
        if k is None:
            raise UnknownAtom(f"atom {atom!r} not in trace (atoms: {', '.join(self.atoms)})")
        return self.states[self.resolve(pos)][k]
