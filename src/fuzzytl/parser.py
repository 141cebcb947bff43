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
from dataclasses import dataclass

from .core import OPERATORS, Atom, Bound, Formula, Level, OpSpec, children
from .errors import FormulaTooDeep, ParseError, ValidationError

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
)


def _node(spec: OpSpec, t: int | None, *kids: Formula) -> Formula:
    """The keyword's node, switching to the twin when the bracket says so."""
    if (t is None) != (spec.param is None):
        spec = OPERATORS[spec.twin]
    return spec.cls(*kids) if t is None else spec.cls(t, *kids)


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "int", "sym", "eof"
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", (i, i + 1))
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), m.start(), m.end()))
        i = m.end()
    tokens.append(Token("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, expected: "set[str] | frozenset[str]") -> "ParseError":
        tok = self.peek()
        return ParseError(message, (tok.start, tok.end), frozenset(expected))

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            return self.advance()
        raise self.fail(f"expected {sym!r}, found {tok.text or 'end of input'!r}", {sym})

    # -- bounds ------------------------------------------------------------

    def bound(self) -> int:
        self.expect_sym("[")
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(
                f"expected a bound, found {tok.text or 'end of input'!r}", {"<number>"}
            )
        self.advance()
        try:
            bound = below_ceiling(tok.text, "bound")
        except ValidationError as exc:
            raise ParseError(str(exc), (tok.start, tok.end), frozenset({"<number>"})) from None
        self.expect_sym("]")
        return bound

    def optional_bound(self) -> int | None:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "[":
            return self.bound()
        return None

    def bracket(self, kind: Bound) -> int | None:
        if kind == Bound.NONE:
            return None
        if kind == Bound.OPTIONAL or kind == Bound.REPEAT:
            return self.optional_bound()
        return self.bound()

    # -- grammar -----------------------------------------------------------

    def binary(self, level: int) -> Formula:
        if level == Level.UNARY:
            return self.unary()
        left = self.binary(level + 1)
        while True:
            spec = _INFIX.get(self.peek().text)
            if spec is None or spec.level != level:
                return left
            self.advance()
            t = self.bracket(spec.bound)
            if level == Level.IMPLIES:
                return _node(spec, t, left, self.binary(level))
            left = _node(spec, t, left, self.binary(level + 1))

    def unary(self) -> Formula:
        tok = self.peek()
        spec = _PREFIX.get(tok.text)
        if spec is not None:
            self.advance()
            if spec.level == Level.LEAF:
                return spec.cls()
            t = self.bracket(spec.bound)
            inner = self.unary()
            if spec.bound == Bound.REPEAT:
                for _ in range(1 if t is None else t):
                    inner = spec.cls(inner)
                return inner
            return _node(spec, t, inner)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.binary(Level.IMPLIES)
            self.expect_sym(")")
            return inner
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.advance()
            return Atom(tok.text)
        raise self.fail(f"expected a formula, found {tok.text or 'end of input'!r}", _FORMULA_START)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    The parser recurses once per nesting level, so text nested past Python's
    stack limit raises FormulaTooDeep.
    """
    p = _Parser(text)
    try:
        f = p.binary(Level.IMPLIES)
    except RecursionError:
        raise FormulaTooDeep("formula nests too deeply to parse") from None
    tok = p.peek()
    if tok.kind != "eof":
        raise p.fail(f"trailing input {tok.text!r}", {"end of input"})
    return f


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
                    k = 0
                    inner = node
                    while type(inner) is spec.cls:
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
