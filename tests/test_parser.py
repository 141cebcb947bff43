import functools
import hashlib
import random
import re

import pytest

from fuzzytl import parser
from fuzzytl.checks import random_formula
from fuzzytl.core import (
    OPERATORS,
    AlmostAlwaysB,
    AlmostUntilB,
    And,
    Atom,
    Bot,
    Bound,
    EventuallyB,
    Implies,
    Lasts,
    Level,
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
)
from fuzzytl.errors import ParseError, ValidationError
from fuzzytl.parser import format_formula, parse


def test_parses_bounded_almost_always():
    assert parse("AG[1440] a") == AlmostAlwaysB(1440, Atom("a"))


def test_parses_implication_with_within():
    assert parse("d -> W[1] c") == Implies(Atom("d"), Within(1, Atom("c")))


def test_until_binds_tighter_than_and():
    assert parse("p U q & r") == And(Until(Atom("p"), Atom("q")), Atom("r"))


def test_constants_and_weak_connectives():
    assert parse("true && false") == WeakAnd(Top(), Bot())
    assert parse("p || q | r") == Or(WeakOr(Atom("p"), Atom("q")), Atom("r"))


def test_next_sugar_nests():
    assert parse("X[3] p") == Next(Next(Next(Atom("p"))))
    assert parse("X[0] p") == Atom("p")
    assert parse("X p") == Next(Atom("p"))


def test_until_family_is_left_associative():
    assert parse("p U q AU r") == parse("(p U q) AU r")
    assert parse("p U[2] q") == UntilB(2, Atom("p"), Atom("q"))
    assert parse("p AU[2] q") == AlmostUntilB(2, Atom("p"), Atom("q"))


def test_implication_is_right_associative():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_scale_and_lasts():
    assert parse("O[2] p") == Scale(2, Atom("p"))
    assert parse("L[3] p") == Lasts(3, Atom("p"))


def test_keywords_are_not_atoms():
    with pytest.raises(ParseError):
        parse("U")
    with pytest.raises(ParseError):
        parse("p & true q")
    # but identifiers merely containing keyword letters are atoms
    assert parse("Until_ok") == Atom("Until_ok")
    assert parse("Fp") == Atom("Fp")


def test_bound_ceiling():
    parse("F[1000000] p")
    assert parse("F[0000003] p") == parse("F[3] p")
    with pytest.raises(ParseError):
        parse("F[1000001] p")
    # past 4300 digits int() itself refuses the string
    with pytest.raises(ParseError, match="exceeds the ceiling"):
        parse("F[" + "9" * 5000 + "] p")


def test_text_of_any_depth_parses():
    assert parse("!" * 1000 + "p") == functools.reduce(lambda f, _: Not(f), range(1000), Atom("p"))
    assert parse("(" * 300 + "p" + ")" * 300) == Atom("p")


@pytest.mark.parametrize(
    "grow",
    [
        Not,
        lambda f: Until(Atom("p"), f),  # printed p U (p U (...))
        lambda f: Implies(Atom("p"), f),  # printed p -> p -> ...
        lambda f: And(Atom("q"), f),  # printed q & (q & (...))
    ],
    ids=["not", "until", "implies", "and"],
)
def test_deep_formulas_round_trip(grow):
    f = functools.reduce(lambda g, _: grow(g), range(2 * 10**4), Atom("r"))
    assert parse(format_formula(f)) == f


def test_next_runs_split_at_the_bound_ceiling(monkeypatch):
    monkeypatch.setattr(parser, "BOUND_CEILING", 5)
    f = functools.reduce(lambda g, _: Next(g), range(12), Atom("p"))
    assert format_formula(f) == "X[5] X[5] X[2] p"
    assert parse(format_formula(f)) == f


def test_mandatory_bounds():
    for text in ("L p", "W p", "O p"):
        with pytest.raises(ParseError):
            parse(text)


def test_format_examples():
    assert format_formula(AlmostAlwaysB(5, Atom("p"))) == "AG[5] p"
    assert format_formula(Implies(Atom("p"), Implies(Atom("q"), Atom("r")))) == "p -> q -> r"
    assert format_formula(Until(And(Atom("p"), Atom("q")), Atom("r"))) == "(p & q) U r"
    assert format_formula(Not(EventuallyB(2, Not(Atom("p"))))) == "!F[2]!p"
    assert format_formula(Next(Next(Soon(Atom("p"))))) == "X[2] S p"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p &",
        "(p",
        "p)",
        "F[",
        "F[2 p",
        "p -> ",
        "p @ q",
        "AG[x] p",
        "!",
        "p U",
    ],
)
def test_rejected_inputs_carry_spans(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    span = err.value.span
    assert 0 <= span.start <= span.end <= len(text)
    assert tuple(span) == (span.start, span.end)


def test_round_trip_random_formulas():
    """Formatting then parsing reproduces the tree, 1000 times."""
    rng = random.Random(2024)
    for _ in range(1000):
        f = random_formula(rng, atoms=("p", "q", "longer_name"), depth=rng.randint(0, 8), n_eta=4)
        text = format_formula(f)
        assert parse(text) == f, text


def test_round_trip_is_stable():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, depth=5, n_eta=3)
        once = format_formula(f)
        assert format_formula(parse(once)) == once


def test_format_text_is_unchanged_by_the_iterative_walk():
    # digest of the recursive formatter's text on the same seeded set
    rng = random.Random(31)
    h = hashlib.sha256()
    for _ in range(500):
        f = random_formula(rng, atoms=("p", "q", "r_2"), depth=rng.randint(0, 7), max_bound=12, n_eta=4)
        h.update(format_formula(f).encode() + b"\n")
    assert h.hexdigest() == "5e382d271f5494e9e175810b51a913535eec7a3ec544d2acb8e5009c8ff465d1"


def test_format_deep_formulas_without_recursion():
    f = Atom("p")
    for _ in range(5000):
        f = Not(f)
    assert format_formula(f) == "!" * 5000 + "p"
    g = Atom("p")
    for _ in range(3000):
        g = And(Atom("q"), g)
    assert format_formula(g) == "q & (" * 2999 + "q & p" + ")" * 2999


@pytest.mark.parametrize("name", ["true", "U", "p q"])
def test_format_rejects_atoms_that_cannot_round_trip(name):
    with pytest.raises(ValidationError, match=re.escape(repr(name))):
        format_formula(And(Atom(name), Atom("q")))


def test_formula_start_is_the_tables_prefix_keywords():
    prefix = {
        spec.keyword + ("[" if spec.bound in (Bound.REQUIRED, Bound.INDEX) else "")
        for spec in OPERATORS.values()
        if spec.keyword is not None and spec.level >= Level.UNARY
    }
    assert prefix == {"true", "false", "!", "X", "S", "F", "G", "AG", "L[", "W[", "O["}
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert err.value.expected == {"atom", "("} | prefix


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|&&|\|\||->|\S")


def _mutants(rng, text):
    """The text, then one variant of each kind: a token dropped, a
    truncation, a parenthesis added or doubled, a stray character and a
    bound over the ceiling."""
    yield text
    start, end = rng.choice([m.span() for m in _TOKEN.finditer(text)])
    yield text[:start] + text[end:]
    yield text[: rng.randint(0, len(text))]
    parens = [m.start() for m in re.finditer(r"[()]", text)]
    i = rng.choice(parens) if parens and rng.random() < 0.5 else rng.randint(0, len(text))
    yield text[:i] + (text[i] if i in parens else rng.choice("()")) + text[i:]
    i = rng.randint(0, len(text))
    yield text[:i] + rng.choice(("@", "∧", "\0")) + text[i:]
    over = rng.choice((str(10**6 + rng.randint(1, 10**6)), "0" + "9" * rng.randint(7, 5000)))
    bounds = list(re.finditer(r"\[([0-9]+)\]", text))
    if bounds:
        m = rng.choice(bounds)
        yield text[: m.start(1)] + over + text[m.end(1):]
    else:
        yield f"X[{over}] {text}"


def _outcome(text):
    try:
        return repr(parse(text))
    except ParseError as exc:
        return f"{type(exc).__name__} {exc.args[0]!r} {tuple(exc.span)} {sorted(exc.expected)}"


def test_parse_outcomes_are_pinned():
    # every tree and every error (class, message, span, expected set) of
    # 15,600 seeded texts, formatted formulas over all 24 kinds and their
    # mutants, as the recursive-descent parser gave them
    rng = random.Random(24)
    h = hashlib.sha256()
    count = 0
    for _ in range(2600):
        f = random_formula(
            rng, atoms=("p", "q", "Until_ok", "r_2"), depth=rng.randint(0, 6),
            max_bound=10**6 if rng.random() < 0.1 else rng.choice((3, 60)), n_eta=rng.randint(1, 5),
        )
        for text in _mutants(rng, format_formula(f)):
            h.update(_outcome(text).encode() + b"\n")
            count += 1
    assert count == 15_600
    assert h.hexdigest() == "a9ca8ec12019534ad0bc220724ea06917c4fb09802e33008413cf76a1e37be97"
