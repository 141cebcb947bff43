"""Core domain types: truth degrees, formulas, traces, avoiding functions.

Everything here is immutable after construction and safe to share between
concurrent readers.  A formula node's hash is the one slot set later: a
cache filled on first use, with the same value by every reader.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Optional


class _Frozen:
    """Base of the immutable classes: the formula nodes and the value classes.

    A value class lists its constructor fields in ``__match_args__``; ``==``
    (between instances of one class), ``hash`` and ``repr`` read them, less
    ``_unshown`` in ``repr``, as a frozen dataclass's would.  Pickling and
    copying carry every slot.  ``__init__`` writes past the refusing
    ``__setattr__`` with ``object.__setattr__``.  Defined before ``errors``
    is imported: ``errors.SourceSpan`` builds on it.
    """

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    # dataclasses is imported only to raise: `fuzzytl eval` never needs it
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__
                 if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def _fill(self, *values) -> None:
        """Set the slots, in order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setstate__(self, state: tuple) -> None:
        self._fill(*state)


from .errors import NotALasso, PositionOutOfRange, UnknownAtom, ValidationError  # noqa: E402

#: A truth degree is a plain float in [0, 1].
TruthDegree = float

#: Atoms with this prefix resolve to avoiding-table entries, not trace lookups.
ETA_ATOM_PREFIX = "__eta_"


def eta_atom_index(name: str) -> Optional[int]:
    """j when ``name`` is the atom of eta(j), the prefix then decimal digits,
    else None.  A trace may not declare such a name.  Past 18 digits j only
    needs to lie past every table, where eta is 0, so its first 19 digits
    stand for it: int() refuses strings past 4300 digits."""
    if not name.startswith(ETA_ATOM_PREFIX):
        return None
    suffix = name[len(ETA_ATOM_PREFIX):]
    return int(suffix.lstrip("0")[:19] or "0") if suffix.isdecimal() else None


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


class Formula(_Frozen):
    """Base of the abstract syntax tree; the immutable node classes are built
    from the rows of ``OPERATORS``, their fields in ``__match_args__``.

    ``size`` (the expanded tree's node count) is set at construction in O(1).
    The hash (that of the tuple of fields) is set on first use, as a cache
    that every reader fills with the same value; hashing a node fills its
    descendants' too, each distinct node once.  ``size`` takes no part in
    ``==``, ``hash`` or ``repr``; ``hash``, ``==``, ``repr`` and pickling walk
    a stack, not recurse, and ``==`` computes no hash.  ``copy`` and
    ``deepcopy`` return the node itself."""

    __slots__ = ("size", "_hash")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # post-order over the nodes without a hash, as in __reduce__
        stack = [self]
        while stack:
            f = stack.pop()
            if f is None:  # second visit: its children hold their hashes
                f = stack.pop()
                _set_hash(f, hash(tuple(map(f.__getattribute__, f.__match_args__))))
            elif isinstance(f, Formula) and not hasattr(f, "_hash"):
                stack += (f, None, *OPERATORS[type(f)].get_children(f))
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs, seen = [(self, other)], set()  # pairs already compared, by id
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b):
                return False
            for name in a.__match_args__:  # the int or str field comes first
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Formula):
                parts.append(item)
                continue
            parts.append(type(item).__qualname__ + "(")
            stack.append(")")
            for i, name in reversed(tuple(enumerate(item.__match_args__))):
                value = getattr(item, name)
                stack += (value if isinstance(value, Formula) else repr(value), f"{name}=")
                if i:
                    stack.append(", ")
        return "".join(parts)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # the distinct nodes in post-order, each child as the index of its row
        rows, index, stack = [], {}, [self]
        while stack:
            f = stack.pop()
            if f is not None:  # first visit: its children, then None, then it
                if id(f) not in index:
                    stack += (f, None, *reversed(OPERATORS[type(f)].get_children(f)))
                continue
            f = stack.pop()
            kids = OPERATORS[type(f)].get_children(f)
            params = tuple(map(f.__getattribute__, f.__match_args__[: -len(kids) or None]))
            index[id(f)] = len(rows)
            rows.append((type(f), params, tuple([index[id(k)] for k in kids])))
        return _rebuild, (rows,)


def _rebuild(rows):
    """The last node of a ``Formula.__reduce__`` row list."""
    nodes = []
    for cls, params, kids in rows:
        nodes.append(cls(*params, *map(nodes.__getitem__, kids)))
    return nodes[-1]


def _check_bound(t: int) -> None:
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValidationError(f"temporal bound must be a natural number, got {t!r}")


# One constructor per field shape, writing past the refusing ``__setattr__``.
_set = object.__setattr__
_set_size = Formula.size.__set__
_set_hash = Formula._hash.__set__


def _unknown(*kids) -> TypeError:
    """``evaluate``'s error, naming the first child without a node's size."""
    bad = next(k for k in kids if not isinstance(getattr(k, "size", None), int))
    return TypeError(f"unknown formula node {bad!r}")


def _init_leaf(self):
    _set_size(self, 1)


def _init_name(self, name):
    if not isinstance(name, str):
        raise TypeError(f"atom name must be a str, not {type(name).__name__}")
    _set(self, "name", name)
    _set_size(self, 1)


def _init_arg(self, arg):
    _set(self, "arg", arg)
    try:
        _set_size(self, arg.size + 1)
    except (AttributeError, TypeError):
        raise _unknown(arg) from None


def _init_bound_arg(self, bound, arg):
    _check_bound(bound)
    _set(self, "bound", bound)
    _set(self, "arg", arg)
    try:
        _set_size(self, arg.size + 1)
    except (AttributeError, TypeError):
        raise _unknown(arg) from None


def _init_index_arg(self, index, arg):
    _check_bound(index)
    _set(self, "index", index)
    _set(self, "arg", arg)
    try:
        _set_size(self, arg.size + 1)
    except (AttributeError, TypeError):
        raise _unknown(arg) from None


def _init_pair(self, left, right):
    _set(self, "left", left)
    _set(self, "right", right)
    try:
        _set_size(self, left.size + right.size + 1)
    except (AttributeError, TypeError):
        raise _unknown(left, right) from None


def _init_bound_pair(self, bound, left, right):
    _check_bound(bound)
    _set(self, "bound", bound)
    _set(self, "left", left)
    _set(self, "right", right)
    try:
        _set_size(self, left.size + right.size + 1)
    except (AttributeError, TypeError):
        raise _unknown(left, right) from None


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


class OpSpec(_Frozen):
    """One row of the operator table, with its node class."""

    __slots__ = __match_args__ = (
        "cls", "keyword", "level", "bound", "twin", "children", "param", "get_children"
    )
    _unshown = ("get_children",)

    def __init__(
        self,
        cls: type,
        keyword: Optional[str],  # None for atoms, whose text is their name
        level: int,  # a Level
        bound: str,  # a Bound
        twin: Optional[type],  # the bounded <-> unbounded counterpart
        children: tuple[str, ...],  # the Formula fields, in order
        param: Optional[str],  # the int field, "bound" or "index"; always the first
        get_children: Callable[[Formula], tuple[Formula, ...]],
    ) -> None:
        self._fill(cls, keyword, level, bound, twin, children, param, get_children)

    @property
    def unbounded(self) -> bool:
        """True for F, G, AG, U and AU without a bound."""
        return self.twin is not None and self.param is None


_ARG, _PAIR = ("arg",), ("left", "right")
_B_ARG, _B_PAIR = ("bound", "arg"), ("bound", "left", "right")
_OPT = Bound.OPTIONAL
#: Constructor fields -> the constructor of that shape.
_INITS = {(): _init_leaf, ("name",): _init_name, _ARG: _init_arg, _B_ARG: _init_bound_arg,
          ("index", "arg"): _init_index_arg, _PAIR: _init_pair, _B_PAIR: _init_bound_pair}
#: Child fields -> ``OpSpec.get_children``; tree walks call it once per node.
_GETTERS = {(): lambda f: (), _ARG: lambda f: (f.arg,), _PAIR: attrgetter("left", "right")}

#: The node kinds: class name, keyword, level, brackets, twin, constructor
#: fields and docstring.  A ``bound`` or ``index`` field is an int and comes
#: first, ``name`` is a str, and the others are the children.
_ROWS = (
    ("Atom", None, Level.LEAF, Bound.NONE, None, ("name",), "A proposition of the trace."),
    ("Top", "true", Level.LEAF, Bound.NONE, None, (), "Constant truth 1."),
    ("Bot", "false", Level.LEAF, Bound.NONE, None, (), "Constant truth 0."),
    ("Not", "!", Level.UNARY, Bound.NONE, None, _ARG, "Negation."),
    ("Next", "X", Level.UNARY, Bound.REPEAT, None, _ARG, "Holds at the next instant."),
    ("Soon", "S", Level.UNARY, Bound.NONE, None, _ARG, "Next, relaxed: a delay of d costs eta(d)."),
    ("Eventually", "F", Level.UNARY, _OPT, "EventuallyB", _ARG, "Holds at some instant."),
    ("EventuallyB", "F", Level.UNARY, _OPT, "Eventually", _B_ARG, "F within `bound` steps."),
    ("Always", "G", Level.UNARY, _OPT, "AlwaysB", _ARG, "Holds at every instant."),
    ("AlwaysB", "G", Level.UNARY, _OPT, "Always", _B_ARG, "G within `bound` steps."),
    ("AlmostAlways", "AG", Level.UNARY, _OPT, "AlmostAlwaysB", _ARG, "G; dropping j costs eta(j)."),
    ("AlmostAlwaysB", "AG", Level.UNARY, _OPT, "AlmostAlways", _B_ARG, "AG within `bound`."),
    ("Lasts", "L", Level.UNARY, Bound.REQUIRED, None, _B_ARG, "G[bound], cut j short at eta(j)."),
    ("Within", "W", Level.UNARY, Bound.REQUIRED, None, _B_ARG, "F[bound], or d later at eta(d)."),
    ("Scale", "O", Level.UNARY, Bound.INDEX, None, ("index", "arg"), "Degree times eta(index)."),
    ("Until", "U", Level.UNTIL, _OPT, "UntilB", _PAIR, "`left` holds until `right` does."),
    ("UntilB", "U", Level.UNTIL, _OPT, "Until", _B_PAIR, "U within `bound` steps."),
    ("AlmostUntil", "AU", Level.UNTIL, _OPT, "AlmostUntilB", _PAIR, "U, with `left` as in AG."),
    ("AlmostUntilB", "AU", Level.UNTIL, _OPT, "AlmostUntil", _B_PAIR, "AU within `bound`."),
    ("And", "&", Level.AND, Bound.NONE, None, _PAIR, "Conjunction: the t-norm."),
    ("WeakAnd", "&&", Level.AND, Bound.NONE, None, _PAIR, "Minimum under every interpretation."),
    ("Or", "|", Level.OR, Bound.NONE, None, _PAIR, "Disjunction: the t-conorm."),
    ("WeakOr", "||", Level.OR, Bound.NONE, None, _PAIR, "Maximum under every interpretation."),
    ("Implies", "->", Level.IMPLIES, Bound.NONE, None, _PAIR, "The interpretation's implication."),
)


def _operators(rows) -> dict[type, OpSpec]:
    """Build each row's node class with ``type()``, then its ``OpSpec``."""
    classes = {
        name: type(name, (Formula,), {
            "__slots__": fields, "__match_args__": fields, "__init__": _INITS[fields],
            "__doc__": doc, "__module__": __name__, "__qualname__": name,
        })
        for name, *_, fields, doc in rows
    }
    table = {}
    for name, keyword, level, bound, twin, fields, _ in rows:
        kids = tuple(n for n in fields if n in ("arg", "left", "right"))
        param = fields[0] if fields and fields[0] in ("bound", "index") else None
        table[classes[name]] = OpSpec(
            classes[name], keyword, level, bound, classes.get(twin), kids, param, _GETTERS[kids]
        )
    return table


#: Node class -> its row.  Each class is also a name of this module: ``core.Atom``.
OPERATORS: dict[type, OpSpec] = _operators(_ROWS)
globals().update((spec.cls.__name__, spec.cls) for spec in OPERATORS.values())


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


class AvoidingFunction(_Frozen):
    """Penalty table [eta(0), ..., eta(n_eta - 1)]; zero from n_eta onward.

    The stored table is the nonzero prefix: eta(0) = 1, strictly decreasing,
    every stored entry positive.
    """

    __slots__ = __match_args__ = ("table",)

    def __init__(self, table: tuple[TruthDegree, ...]) -> None:
        table = tuple(degree(v) for v in table)
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
        self._fill(table)

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
#: a chunk's error walk can read them again.
_ROW_TYPES = frozenset({tuple, list})

#: Rows a ``Trace`` checks at a time.  A chunk's flat copy of its cells stays
#: small, and no flat copy of a whole trace is ever made.
_CHUNK = 2048


def _rereadable(row):
    try:
        items = iter(row)
    except TypeError:
        return row  # not iterable: the checks fail on it in row order
    return tuple(items) if items is row else row


def _cell_degree(value, refused: tuple) -> TruthDegree:
    if type(value) in refused:
        raise ValidationError(f"truth degree {value!r} is not a number")
    return degree(value)


def _checked_rows(chunk, refused: tuple) -> list:
    """The rows of ``chunk`` as tuples of checked truth degrees.

    C-level passes over one flat copy of the chunk's cells: the type set
    says whether any cell needs ``float``, and NaN passes ``min`` and
    ``max`` but turns the sum into NaN.  When a pass finds a bad cell or
    fails, a walk names the first bad cell in row-major order: a cell of a
    type in ``refused`` is not a number, and ``degree()`` names the others.
    """
    if not _ROW_TYPES.issuperset(map(type, chunk)):
        chunk = list(map(_rereadable, chunk))
    try:
        cells = list(chain.from_iterable(chunk))
        types = set(map(type, cells))
        if types.isdisjoint(refused):
            rows = chunk
            if not {float}.issuperset(types):
                rows = list(map(tuple, map(map, repeat(float), chunk)))
                cells = list(chain.from_iterable(rows))
            total = sum(cells)
            if not cells or (total == total and min(cells) >= 0.0 and max(cells) <= 1.0):
                return list(map(tuple, rows))  # a tuple row is kept as it is
    except (TypeError, ValueError, OverflowError):
        pass  # whatever float() raised, degree() raises again below
    return [tuple(_cell_degree(v, refused) for v in row) for row in chunk]


class Trace(_Frozen):
    """A finite or lasso-shaped linear time structure.

    ``states[i][k]`` is the degree of ``atoms[k]`` at instant ``i``.  When
    ``loop_start`` is set the trace denotes the infinite path
    ``states[:loop_start] + cycle(states[loop_start:])``.
    """

    __slots__ = ("atoms", "states", "loop_start", "_index", "_length")
    __match_args__ = ("atoms", "states", "loop_start")

    def __init__(
        self,
        atoms: tuple[str, ...],
        states: tuple[tuple[TruthDegree, ...], ...],
        loop_start: Optional[int] = None,
    ) -> None:
        self._build(atoms, states, loop_start, ())

    def _build(self, atoms, states, loop_start, refused: tuple) -> None:
        """``__init__``, refusing cells of the types in ``refused``: a JSON
        load refuses str and bool, which ``float`` would read as numbers."""
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise ValidationError("duplicate atom names in trace")
        for name in atoms:
            if isinstance(name, str) and eta_atom_index(name) is not None:
                raise ValidationError(f"atom name {name!r} is reserved for an eta constant")
        rows = states if type(states) in _ROW_TYPES else tuple(states)
        # every chunk's cells are checked before any row's length
        chunks = (_checked_rows(rows[i:i + _CHUNK], refused) for i in range(0, len(rows), _CHUNK))
        states = tuple(chain.from_iterable(chunks))
        if not states:
            raise ValidationError("trace must have at least one state")
        if set(map(len, states)) != {len(atoms)}:
            for i, row in enumerate(states):
                if len(row) != len(atoms):
                    raise ValidationError(
                        f"state {i} has {len(row)} entries for {len(atoms)} atoms"
                    )
        loop = loop_start
        if loop is not None:
            if not isinstance(loop, int) or isinstance(loop, bool) or not 0 <= loop < len(states):
                raise ValidationError(
                    f"loop start {loop!r} outside 0..{len(states) - 1}"
                )
        self._fill(atoms, states, loop_start, {name: k for k, name in enumerate(atoms)},
                   len(states))

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
