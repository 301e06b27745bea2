"""Lexer/parser golden cases, error positions, and print/parse round-trips."""
from __future__ import annotations

import random

import pytest

from specguard.errors import SpecSyntaxError
from specguard.speclang.ast import (
    Binary,
    Bool,
    Call,
    InputRef,
    Num,
    OutputRef,
    Str,
    Unary,
    to_source,
)
from specguard.speclang.parser import MAX_NESTING, parse


def b(op, left, right):
    return Binary(op, left, right)


GOLDEN = [
    # literals
    ("1", Num(1.0)),
    ("1.5", Num(1.5)),
    (".5", Num(0.5)),
    ("2e3", Num(2000.0)),
    ("1.5E-2", Num(0.015)),
    ("true", Bool(True)),
    ("false", Bool(False)),
    ('"abc"', Str("abc")),
    ('"a\\"b"', Str('a"b')),
    ('"a\\nb"', Str("a\nb")),
    # references
    ("input.height", InputRef("height", None, None)),
    ("input.img[0][2]", InputRef("img", 0, 2)),
    ("output.label", OutputRef("label")),
    ("output.confidence", OutputRef("confidence")),
    # precedence: * over +
    ("1 + 2 * 3", b("+", Num(1.0), b("*", Num(2.0), Num(3.0)))),
    ("1 * 2 + 3", b("+", b("*", Num(1.0), Num(2.0)), Num(3.0))),
    ("(1 + 2) * 3", b("*", b("+", Num(1.0), Num(2.0)), Num(3.0))),
    # left associativity
    ("1 - 2 - 3", b("-", b("-", Num(1.0), Num(2.0)), Num(3.0))),
    ("8 / 4 / 2", b("/", b("/", Num(8.0), Num(4.0)), Num(2.0))),
    ("1 - 2 + 3", b("+", b("-", Num(1.0), Num(2.0)), Num(3.0))),
    # unary minus binds tighter than *
    ("-1 * 2", b("*", Unary("-", Num(1.0)), Num(2.0))),
    ("--1", Unary("-", Unary("-", Num(1.0)))),
    ("2 - -1", b("-", Num(2.0), Unary("-", Num(1.0)))),
    # comparisons over arithmetic
    ("1 + 1 < 3", b("<", b("+", Num(1.0), Num(1.0)), Num(3.0))),
    ("input.height <= 8", b("<=", InputRef("height", None, None), Num(8.0))),
    ("1 == 1", b("==", Num(1.0), Num(1.0))),
    ("1 != 2", b("!=", Num(1.0), Num(2.0))),
    ("2 >= 1", b(">=", Num(2.0), Num(1.0))),
    ("2 > 1", b(">", Num(2.0), Num(1.0))),
    # booleans: ! > && > ||
    ("true && false", b("&&", Bool(True), Bool(False))),
    ("true || false", b("||", Bool(True), Bool(False))),
    (
        "true || false && true",
        b("||", Bool(True), b("&&", Bool(False), Bool(True))),
    ),
    (
        "(true || false) && true",
        b("&&", b("||", Bool(True), Bool(False)), Bool(True)),
    ),
    ("!true", Unary("!", Bool(True))),
    ("!true && false", b("&&", Unary("!", Bool(True)), Bool(False))),
    # ! binds looser than comparison: !a < b is !(a < b)
    ("!1 < 2", Unary("!", b("<", Num(1.0), Num(2.0)))),
    ("!(1 < 2)", Unary("!", b("<", Num(1.0), Num(2.0)))),
    ("!!true", Unary("!", Unary("!", Bool(True)))),
    # and/or chains left-assoc
    (
        "true && true && false",
        b("&&", b("&&", Bool(True), Bool(True)), Bool(False)),
    ),
    (
        "false || false || true",
        b("||", b("||", Bool(False), Bool(False)), Bool(True)),
    ),
    # calls
    ("abs(-1)", Call("abs", (Unary("-", Num(1.0)),))),
    ("min(1, 2)", Call("min", (Num(1.0), Num(2.0)))),
    ("min(1, 2, 3)", Call("min", (Num(1.0), Num(2.0), Num(3.0)))),
    ("max(1, 2)", Call("max", (Num(1.0), Num(2.0)))),
    ("len(input.img)", Call("len", (InputRef("img", None, None),))),
    ("rows(input.img)", Call("rows", (InputRef("img", None, None),))),
    ("cols(input.img)", Call("cols", (InputRef("img", None, None),))),
    ("sum(input.img)", Call("sum", (InputRef("img", None, None),))),
    (
        "sum(input.img) / len(input.img)",
        b(
            "/",
            Call("sum", (InputRef("img", None, None),)),
            Call("len", (InputRef("img", None, None),)),
        ),
    ),
    # mixed
    (
        "input.height > 0 && input.height < 8",
        b(
            "&&",
            b(">", InputRef("height", None, None), Num(0.0)),
            b("<", InputRef("height", None, None), Num(8.0)),
        ),
    ),
    (
        'output.label == "pedestrian" && output.confidence >= 0.5',
        b(
            "&&",
            b("==", OutputRef("label"), Str("pedestrian")),
            b(">=", OutputRef("confidence"), Num(0.5)),
        ),
    ),
    ("(1 < 2) == (3 < 4)", b("==", b("<", Num(1.0), Num(2.0)), b("<", Num(3.0), Num(4.0)))),
    ("1 + input.img[1][2]", b("+", Num(1.0), InputRef("img", 1, 2))),
    ("-input.height", Unary("-", InputRef("height", None, None))),
    ("-(1 + 2)", Unary("-", b("+", Num(1.0), Num(2.0)))),
    ("((1))", Num(1.0)),
    ("2 * (3 - 1)", b("*", Num(2.0), b("-", Num(3.0), Num(1.0)))),
]


@pytest.mark.parametrize("source,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_parse(source, expected):
    assert parse(source) == expected


def test_golden_case_count_is_at_least_50():
    assert len(GOLDEN) >= 50


ERRORS = [
    ("", 1, 1),
    ("1 +", 1, 4),
    ("(1", 1, 3),
    ("1)", 1, 2),
    ("input.", 1, 7),
    ("input.img[0]", 1, 13),  # grids need both indices
    ("input.img[x][0]", 1, 11),
    ("output.score", 1, 8),
    ("1 < 2 < 3", 1, 7),  # comparisons do not chain
    ("foo", 1, 1),  # bare identifier
    ("input.img[0][1", 1, 15),
    ('"unterminated', 1, 1),
    ("1 @ 2", 1, 3),
    ("min()", 1, 5),
    ("abs(1", 1, 6),
    ("true &&", 1, 8),
    ("\n  1 +", 2, 6),
    ("1e", 1, 1),
]


@pytest.mark.parametrize("source,line,column", ERRORS, ids=[e[0] or "<empty>" for e in ERRORS])
def test_syntax_errors_carry_positions(source, line, column):
    with pytest.raises(SpecSyntaxError) as err:
        parse(source)
    assert err.value.line == line
    assert err.value.column == column
    assert f"{line}:{column}" in str(err.value)


def test_comparison_chain_message_names_the_fix():
    with pytest.raises(SpecSyntaxError) as err:
        parse("1 < 2 < 3")
    assert "parenthesize" in str(err.value)


# ---------------------------------------------------------------------------
# round-trip property: print then parse returns the same tree


def _gen_expr(rng: random.Random, depth: int):
    """Random well-formed expression tree; Num values are non-negative
    (negative literals print as unary minus)."""
    if depth <= 0:
        choice = rng.randrange(6)
        if choice == 0:
            return Num(float(rng.randrange(100)))
        if choice == 1:
            return Num(round(rng.uniform(0, 10), 3))
        if choice == 2:
            return Bool(rng.random() < 0.5)
        if choice == 3:
            return Str(rng.choice(["a", "b\nc", 'q"q', "\\", "x\ty"]))
        if choice == 4:
            if rng.random() < 0.5:
                return InputRef("img", rng.randrange(3), rng.randrange(3))
            return InputRef(rng.choice(["height", "width"]), None, None)
        return OutputRef(rng.choice(["label", "confidence"]))
    choice = rng.randrange(8)
    if choice == 0:
        return Unary(rng.choice(["-", "!"]), _gen_expr(rng, depth - 1))
    if choice == 1:
        return Call("abs", (_gen_expr(rng, depth - 1),))
    if choice == 2:
        n = rng.randrange(2, 4)
        return Call(
            rng.choice(["min", "max"]),
            tuple(_gen_expr(rng, depth - 1) for _ in range(n)),
        )
    op = rng.choice(["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||"])
    return Binary(op, _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))


def test_round_trip_property_on_1000_expressions():
    rng = random.Random(20260813)
    for i in range(1000):
        expr = _gen_expr(rng, rng.randrange(1, 5))
        source = to_source(expr)
        reparsed = parse(source)
        assert reparsed == expr, f"case {i}: {source!r}"
        assert to_source(reparsed) == source, f"case {i}: unstable print {source!r}"


def test_canonical_print_drops_redundant_parens():
    assert to_source(parse("(1 + 2) + 3")) == "1 + 2 + 3"
    assert to_source(parse("1 + (2 + 3)")) == "1 + (2 + 3)"  # right assoc differs
    assert to_source(parse("!(1 < 2)")) == "!1 < 2"
    assert to_source(parse("(1 < 2) == true")) == "(1 < 2) == true"


# ---------------------------------------------------------------------------
# nesting cap: deeper input is a positioned syntax error, not a RecursionError

NESTINGS = {
    "parentheses": [("(", ")")],
    "calls": [("abs(", ")")],
    "not": [("!", "")],
    "minus": [("-", "")],
    "mixed": [("(", ")"), ("!", ""), ("-", ""), ("abs(", ")")],
}


def _nested(kind, levels):
    """The openers of kind, cycled, levels deep around 1, then the closers."""
    pairs = [NESTINGS[kind][i % len(NESTINGS[kind])] for i in range(levels)]
    return "".join(o for o, _ in pairs) + "1" + "".join(c for _, c in reversed(pairs))


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_up_to_the_cap_parses_and_prints_back(kind):
    assert MAX_NESTING == 64
    tree = parse(_nested(kind, MAX_NESTING))
    assert parse(to_source(tree)) == tree


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_past_the_cap_is_a_syntax_error_at_the_opening_token(kind):
    source = _nested(kind, MAX_NESTING + 1)
    with pytest.raises(SpecSyntaxError) as err:
        parse(source)
    assert str(err.value).endswith(f"expression nests deeper than {MAX_NESTING} levels")
    opened = len(_nested(kind, MAX_NESTING).partition("1")[0])  # 64 levels' openers
    assert (err.value.line, err.value.column) == (1, opened + 1)
    assert source.startswith(err.value.token, opened)


@pytest.mark.parametrize("levels", [150, 10_000])
def test_far_past_the_cap_stops_at_the_first_level_too_deep(levels):
    with pytest.raises(SpecSyntaxError) as err:
        parse("\n (" + "(" * (levels - 1) + "1" + ")" * levels)
    assert (err.value.line, err.value.column, err.value.token) == (2, 2 + MAX_NESTING, "(")


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_sibling_levels_do_not_add_up(kind):
    term = _nested(kind, MAX_NESTING // 2)
    source = f"max({term}, {term})" + f" + min({term}, {term})" * (MAX_NESTING + 1)
    tree = parse(source)
    assert parse(to_source(tree)) == tree
