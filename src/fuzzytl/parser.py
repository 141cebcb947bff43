"""Concrete textual syntax: parsing to formulas and canonical formatting.

Grammar (ASCII only; whitespace insignificant)::

    formula  := or ( "->" formula )?               right-associative
    or       := and ( ("|" | "||") and )*          left-associative
    and      := until ( ("&" | "&&") until )*      left-associative
    until    := unary ( ("U" | "U[t]" | "AU" | "AU[t]") unary )*
    unary    := "!" unary | "X" unary | "X[k]" unary | "S" unary
              | "F" unary | "F[t]" unary | "G" unary | "G[t]" unary
              | "AG" unary | "AG[t]" unary
              | "L[t]" unary | "W[t]" unary | "O[j]" unary
              | "true" | "false" | atom | "(" formula ")"

Atoms are ``[A-Za-z_][A-Za-z0-9_]*`` minus the keywords; ``X[k]`` abbreviates
k nested next operators; bounds are decimal naturals capped at 10**6.  The
keywords, their brackets and their levels all come from ``core.OPERATORS``.
"""

from __future__ import annotations

import re

from .core import OPERATORS, Atom, Bound, Formula, Level, OpSpec, children
from .errors import ParseError, ValidationError

BOUND_CEILING = 10**6


def below_ceiling(digits: str, what: str) -> int:
    """The natural number the decimal ``digits`` spell; ValidationError
    naming ``what`` past BOUND_CEILING.  Leading zeros are stripped first,
    as int() refuses strings past 4300 digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(BOUND_CEILING)) or int(digits) > BOUND_CEILING:
        raise ValidationError(f"{what} {digits} exceeds the ceiling {BOUND_CEILING}")
    return int(digits)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

KEYWORDS = frozenset(
    spec.keyword
    for spec in OPERATORS.values()
    if spec.keyword is not None and _IDENT_RE.fullmatch(spec.keyword)
)

#: Keyword -> row, for the prefix operators and constants and for the binary
#: operators; twins share a keyword, and either row stands for both.
_PREFIX = {
    spec.keyword: spec
    for spec in OPERATORS.values()
    if spec.keyword is not None and spec.level >= Level.UNARY
}
_INFIX = {spec.keyword: spec for spec in OPERATORS.values() if spec.level < Level.UNARY}

#: What may start a formula; a mandatory bracket shows as "L[".
_FORMULA_START = frozenset(
    {"atom", "("}
    | {
        kw + "[" if spec.bound in (Bound.REQUIRED, Bound.INDEX) else kw
        for kw, spec in _PREFIX.items()
    }
)

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<name>{_IDENT_RE.pattern})"
    r"|(?P<int>[0-9]+)"
    r"|(?P<sym>&&|\|\||->|[!&|()\[\]])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _node(spec: OpSpec, t: int | None, *kids: Formula) -> Formula:
    """The keyword's node, switching to the twin when the bracket says so."""
    if (t is None) != (spec.param is None):
        spec = OPERATORS[spec.twin]
    return spec.cls(*kids) if t is None else spec.cls(t, *kids)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, start, end) per token, then an "eof" token; the first
    character no token starts with is a ParseError."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.span())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start(), m.end()))
    tokens.append(("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def fail(self, message: str, expected: "set[str] | frozenset[str]") -> "ParseError":
        _, _, start, end = self.tokens[self.i]
        return ParseError(message, (start, end), frozenset(expected))

    def expect_sym(self, sym: str) -> None:
        kind, text, _, _ = self.tokens[self.i]
        if kind != "sym" or text != sym:
            raise self.fail(f"expected {sym!r}, found {text or 'end of input'!r}", {sym})
        self.i += 1

    def bracket(self, form: Bound) -> int | None:
        """The keyword's bracketed natural number; None where the keyword
        takes none, or leaves an optional one out."""
        if form == Bound.NONE or (
            form in (Bound.OPTIONAL, Bound.REPEAT) and self.tokens[self.i][1] != "["
        ):
            return None
        self.expect_sym("[")
        kind, text, start, end = self.tokens[self.i]
        if kind != "int":
            raise self.fail(f"expected a bound, found {text or 'end of input'!r}", {"<number>"})
        try:
            bound = below_ceiling(text, "bound")
        except ValidationError as exc:
            raise ParseError(str(exc), (start, end), frozenset({"<number>"})) from None
        self.i += 1
        self.expect_sym("]")
        return bound

    def parse(self) -> Formula:
        tokens = self.tokens
        # pending operators (spec, t, left), left None for a prefix, and None
        # for each open parenthesis
        stack: list = []
        while True:
            # an operand: prefixes and parentheses up to an atom or constant
            while True:
                kind, text, _, _ = tokens[self.i]
                spec = _PREFIX.get(text)
                if spec is not None:
                    self.i += 1
                    if spec.level == Level.LEAF:
                        operand = spec.cls()
                        break
                    stack.append((spec, self.bracket(spec.bound), None))
                elif text == "(":
                    self.i += 1
                    stack.append(None)
                elif kind == "name" and text not in KEYWORDS:
                    self.i += 1
                    operand = Atom(text)
                    break
                else:
                    found = text or "end of input"
                    raise self.fail(f"expected a formula, found {found!r}", _FORMULA_START)
            # every pending operator that binds at least as tightly as the next
            # one takes the operand (only tighter ones before right-associative
            # ->); then the next one waits for its right operand, or ")" or
            # the end of input closes the group
            while True:
                spec = _INFIX.get(tokens[self.i][1])
                level = -1 if spec is None else spec.level
                while stack and stack[-1] is not None:
                    pending, t, left = stack[-1]
                    if pending.level < level or pending.level == level == Level.IMPLIES:
                        break
                    stack.pop()
                    if left is not None:
                        operand = _node(pending, t, left, operand)
                    elif pending.bound == Bound.REPEAT:
                        for _ in range(1 if t is None else t):
                            operand = pending.cls(operand)
                    else:
                        operand = _node(pending, t, operand)
                if spec is not None:
                    self.i += 1
                    stack.append((spec, self.bracket(spec.bound), operand))
                    break
                if not stack:
                    kind, text, _, _ = tokens[self.i]
                    if kind != "eof":
                        raise self.fail(f"trailing input {text!r}", {"end of input"})
                    return operand
                self.expect_sym(")")
                stack.pop()


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    One loop over an explicit operator stack (precedence climbing), so text
    of any depth parses; a malformed text raises ParseError with the span of
    the offending token and the set of tokens expected there.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _is_atom_name(name: str) -> bool:
    """An identifier that is not a keyword: a name the syntax can write."""
    return name not in KEYWORDS and _IDENT_RE.fullmatch(name) is not None


def _atom_text(name: str) -> str:
    if not _is_atom_name(name):
        raise ValidationError(f"atom {name!r} cannot be written in the concrete syntax")
    return name


def _head(spec: OpSpec, f: Formula) -> str:
    if spec.param is None:
        return spec.keyword
    return f"{spec.keyword}[{getattr(f, spec.param)}]"


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f.

    Raises ValidationError for an atom whose name is not an identifier or is
    a keyword, since no text would parse back to it.
    """
    # pieces are emitted left to right from an explicit stack, so depth costs
    # no Python frames and no copies of partial texts.  The loop descends the
    # left spine at once; the stack holds what comes after it: right operands
    # with their minimum levels, and strs to emit as they are.
    out: list[str] = []
    todo: list = [(f, Level.IMPLIES)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_level = item
        while True:
            spec = OPERATORS.get(type(node))
            if spec is None:
                raise TypeError(f"unknown formula node {node!r}")
            level = spec.level
            if level < min_level:
                out.append("(")
                todo.append(")")
            if level == Level.LEAF:
                out.append(_atom_text(node.name) if spec.cls is Atom else spec.keyword)
                break
            if level == Level.UNARY:
                if spec.bound == Bound.REPEAT:
                    # a run past the ceiling prints as several, each parseable
                    k = 0
                    inner = node
                    while type(inner) is spec.cls and k < BOUND_CEILING:
                        k += 1
                        (inner,) = children(inner)
                    head = spec.keyword if k == 1 else f"{spec.keyword}[{k}]"
                else:
                    head = _head(spec, node)
                    (inner,) = children(node)
                # a keyword head needs a space unless the child's text starts
                # with "(" or "!"
                kid = OPERATORS.get(type(inner))
                if head[0].isalpha() and kid is not None and (
                    kid.level > Level.UNARY or (kid.level == Level.UNARY and kid.keyword != "!")
                ):
                    head += " "
                out.append(head)
                node, min_level = inner, level
                continue
            left, right = children(node)
            # implication is right-associative, the other levels left
            if level == Level.IMPLIES:
                todo.append((right, level))
                min_level = level + 1
            else:
                todo.append((right, level + 1))
                min_level = level
            todo.append(f" {_head(spec, node)} ")
            node = left
    return "".join(out)
