"""AST node types for the condition expression language, plus the canonical printer.

The language is a small typed expression language used for every condition in a
behavioural specification: preconditions, postconditions, per-label sufficient
and necessary conditions, partition predicates, and field_map transformations.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

Expression = Union["Num", "Str", "Bool", "InputRef", "OutputRef", "Unary", "Binary", "Call"]


class Node:
    """Base of every AST node.

    A node memoises what is derived from it (its compiled function, its
    source text) as instance attributes set with object.__setattr__, outside
    the dataclass fields: equality, hashing and repr never see them, and
    pickling keeps only the fields, so any memo is dropped.
    """

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Str(Node):
    value: str


@dataclass(frozen=True)
class Bool(Node):
    value: bool


@dataclass(frozen=True)
class InputRef(Node):
    """Reference to an input field: input.f, or input.g[r][c] for grids."""

    field: str
    row: int | None = None
    col: int | None = None


@dataclass(frozen=True)
class OutputRef(Node):
    """Reference to the prediction: output.label or output.confidence."""

    attr: str  # "label" | "confidence"


@dataclass(frozen=True)
class Unary(Node):
    op: str  # "-" | "!"
    operand: Expression


@dataclass(frozen=True)
class Binary(Node):
    op: str  # "||" "&&" "<" "<=" ">" ">=" "==" "!=" "+" "-" "*" "/"
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple[Expression, ...]


# Binding strength, loosest first. "!" binds looser than comparisons
# (!a < b means !(a < b)) while unary minus binds tighter than * and /.
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3
_LEVEL_CMP = 4
_LEVEL_ADD = 5
_LEVEL_MUL = 6
_LEVEL_NEG = 7
_LEVEL_ATOM = 8

_BINARY_LEVEL = {
    "||": _LEVEL_OR,
    "&&": _LEVEL_AND,
    "<": _LEVEL_CMP,
    "<=": _LEVEL_CMP,
    ">": _LEVEL_CMP,
    ">=": _LEVEL_CMP,
    "==": _LEVEL_CMP,
    "!=": _LEVEL_CMP,
    "+": _LEVEL_ADD,
    "-": _LEVEL_ADD,
    "*": _LEVEL_MUL,
    "/": _LEVEL_MUL,
}

_INF = float("inf")

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _level(expr: Expression) -> int:
    if isinstance(expr, Binary):
        return _BINARY_LEVEL[expr.op]
    if isinstance(expr, Unary):
        return _LEVEL_NOT if expr.op == "!" else _LEVEL_NEG
    return _LEVEL_ATOM


def _number_text(value: float) -> str:
    # Integral values print without a trailing ".0"; everything else uses
    # repr(), the shortest digits that round-trip through float(). An
    # infinite literal (the parser reads 1e999 as one) prints as 1e999.
    if value in (_INF, -_INF):
        return "1e999" if value > 0 else "-1e999"
    if value != value:
        return "nan"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _string_text(value: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(ch, ch) for ch in value) + '"'


def reads_output(expr: Expression, attr: str) -> bool:
    """Does expr hold OutputRef(attr) anywhere? An iterative walk, so a
    chain of any length is searched."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, OutputRef) and node.attr == attr:
            return True
        if isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack += (node.left, node.right)
        elif isinstance(node, Call):
            stack += node.args
    return False


def to_source(expr: Expression) -> str:
    """Render an AST back to source text, memoised on the node (and on no
    node below it, so a chain's text is held once, not once per prefix).

    Canonical for parser-produced trees: parse(to_source(parse(t))) is
    structurally equal to parse(t) for every grammatical t.
    """
    try:
        return expr._source
    except AttributeError:
        text = _render(expr)
    object.__setattr__(expr, "_source", text)
    return text


def _render(expr: Expression) -> str:
    if isinstance(expr, Num):
        return _number_text(expr.value)
    if isinstance(expr, Str):
        return _string_text(expr.value)
    if isinstance(expr, Bool):
        return "true" if expr.value else "false"
    if isinstance(expr, InputRef):
        if expr.row is None:
            return f"input.{expr.field}"
        return f"input.{expr.field}[{expr.row}][{expr.col}]"
    if isinstance(expr, OutputRef):
        return f"output.{expr.attr}"
    if isinstance(expr, Unary):
        level = _level(expr)
        inner = _render(expr.operand)
        if _level(expr.operand) < level:
            inner = f"({inner})"
        return expr.op + inner
    if isinstance(expr, Binary):
        level = _BINARY_LEVEL[expr.op]
        left = _render(expr.left)
        right = _render(expr.right)
        if level == _LEVEL_CMP:
            # Comparisons are non-associative: a cmp child on either side
            # must be parenthesized.
            if _level(expr.left) <= level:
                left = f"({left})"
            if _level(expr.right) <= level:
                right = f"({right})"
        else:
            if _level(expr.left) < level:
                left = f"({left})"
            if _level(expr.right) <= level:
                right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Call):
        args = ", ".join(_render(a) for a in expr.args)
        return f"{expr.func}({args})"
    raise TypeError(f"not an expression node: {expr!r}")
