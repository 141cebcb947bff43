"""The benchmark's own formula corpus.

A seeded generator draws formulas over all 24 node kinds (bounds <= 8) and
short traces (<= 16 states, finite and lasso).  Each formula is printed fully
parenthesised by the printer here, so `parse` is checked against the tree the
generator built rather than against fuzzytl's own formatter.
"""

from __future__ import annotations

import random

from fuzzytl import core

MAX_BOUND = 8
MAX_STATES = 16
ATOMS = ("p", "q")

#: Avoiding tables the corpus draws from, as command-line specs.
ETA_SPECS = ("crisp", "table:1,0.5", "table:1,0.75,0.5,0.25", "gauss:4")

_LEAVES = ("Atom", "Top", "Bot")
_UNARY = {  # kind -> keyword
    "Not": "!",
    "Next": "X",
    "Soon": "S",
    "Eventually": "F",
    "Always": "G",
    "AlmostAlways": "AG",
}
_BOUNDED_UNARY = {
    "EventuallyB": "F",
    "AlwaysB": "G",
    "AlmostAlwaysB": "AG",
    "Lasts": "L",
    "Within": "W",
    "Scale": "O",
}
_BINARY = {
    "And": "&",
    "Or": "|",
    "Implies": "->",
    "WeakAnd": "&&",
    "WeakOr": "||",
    "Until": "U",
    "AlmostUntil": "AU",
}
_BOUNDED_BINARY = {"UntilB": "U", "AlmostUntilB": "AU"}
NODE_KINDS = (*_LEAVES, *_UNARY, *_BOUNDED_UNARY, *_BINARY, *_BOUNDED_BINARY)
_UNBOUNDED = ("Eventually", "Always", "AlmostAlways", "Until", "AlmostUntil")
#: Kinds below the root.  An unbounded operator on a finite trace spans the
#: whole trace, so nesting them makes a few cases cost as much as hundreds;
#: they appear as roots only, where every seed has the same number of them.
_INNER_KINDS = tuple(k for k in NODE_KINDS[3:] if k not in _UNBOUNDED)


def random_formula(rng: random.Random, depth: int, n_eta: int, kind: str | None = None):
    """A formula of at most ``depth`` levels with ``kind`` at the root, or a
    random inner kind or leaf when ``kind`` is None."""
    if kind is None:
        if depth <= 0 or rng.random() < 0.3:
            kind = rng.choice(_LEAVES[:1] * 6 + _LEAVES[1:])
        else:
            kind = rng.choice(_INNER_KINDS)
    while kind == "Scale" and n_eta < 2:
        kind = rng.choice(_INNER_KINDS)
    cls = getattr(core, kind)
    if kind == "Atom":
        return cls(rng.choice(ATOMS))
    if kind in _LEAVES:
        return cls()

    def sub():
        return random_formula(rng, depth - 1, n_eta)

    if kind in _UNARY:
        return cls(sub())
    if kind == "Scale":
        return cls(rng.randint(1, n_eta - 1), sub())
    if kind in _BOUNDED_UNARY:
        return cls(rng.randint(0, MAX_BOUND), sub())
    if kind in _BINARY:
        return cls(sub(), sub())
    return cls(rng.randint(0, MAX_BOUND), sub(), sub())


def to_text(f) -> str:
    """Fully parenthesised concrete syntax."""
    kind = type(f).__name__
    if kind == "Atom":
        return f.name
    if kind == "Top":
        return "true"
    if kind == "Bot":
        return "false"
    if kind in _UNARY:
        return f"{_UNARY[kind]} ({to_text(f.arg)})"
    if kind == "Scale":
        return f"O[{f.index}] ({to_text(f.arg)})"
    if kind in _BOUNDED_UNARY:
        return f"{_BOUNDED_UNARY[kind]}[{f.bound}] ({to_text(f.arg)})"
    left, right = to_text(f.left), to_text(f.right)
    if kind in _BINARY:
        return f"({left}) {_BINARY[kind]} ({right})"
    return f"({left}) {_BOUNDED_BINARY[kind]}[{f.bound}] ({right})"


def random_states(rng: random.Random, length: int, crisp: bool):
    """Rows of a trace and its loop start (None if finite)."""
    loop = rng.randrange(length) if crisp or rng.random() < 0.5 else None
    if crisp:
        rows = tuple(tuple(float(rng.random() < 0.5) for _ in ATOMS) for _ in range(length))
    else:
        rows = tuple(tuple(round(rng.random(), 3) for _ in ATOMS) for _ in range(length))
    return rows, loop


def make_case(rng: random.Random, i: int):
    """Case ``i``: (formula, text, rows, loop, eta spec, crisp).

    The root kind, trace length, table and crispness cycle with ``i``, so
    every seed has the same mix of shapes and only the details are random;
    a few heavy shapes (unbounded almost-until on long finite traces) would
    otherwise make the cost of a corpus swing from seed to seed.  One case
    in five is crisp (0/1 degrees, crisp table, lasso), so the boolean
    reference applies.
    """
    crisp = i % 5 == 0
    spec = "crisp" if crisp else ETA_SPECS[i % 4]
    n_eta = {"crisp": 1, "table:1,0.5": 2, "table:1,0.75,0.5,0.25": 4, "gauss:4": 5}[spec]
    f = random_formula(rng, rng.randint(1, 3), n_eta, kind=NODE_KINDS[3 + i % 21])
    rows, loop = random_states(rng, 1 + (i // 21) % MAX_STATES, crisp)
    return f, to_text(f), rows, loop, spec, crisp
