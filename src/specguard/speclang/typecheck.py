"""Static type rules for condition expressions.

Every expression evaluates to one of four type tags: "number", "boolean",
"string", or "grid". Grids only appear as arguments to len/rows/cols/sum,
whose signatures come from the builtin table in builtins.py.

A tree built in Python can hold what no type rule judges and to_source
cannot render faithfully: a child that is not an expression node, an
operator the language does not have, a literal of the wrong Python type, a
field reference whose name is not a str or whose grid index is partial or
not made of ints. Such a tree gets only those shape errors. The checker
visits every child before it writes a message about the parent, so once
a shape error is found no message renders the tree.
"""
from __future__ import annotations

from ..errors import TypeCheckError
from .ast import Binary, Bool, Call, Expression, InputRef, Num, OutputRef, Str, Unary, to_source
from .builtins import BOOLEAN, BUILTINS, GRID, NUMBER, STRING
from .schema import BooleanType, CategoryType, GridType, IntegerType, NumberType, Schema

_ARITH_OPS = ("+", "-", "*", "/")
_ORDER_OPS = ("<", "<=", ">", ">=")
_EQ_OPS = ("==", "!=")
_LOGIC_OPS = ("&&", "||")


class _Checker:
    def __init__(self, schema: Schema, output_allowed: bool):
        self.schema = schema
        self.output_allowed = output_allowed
        self.errors: list[str] = []
        self.shape_errors: list[str] = []

    def fail(self, message: str) -> None:
        if message not in self.errors:
            self.errors.append(message)

    def malformed(self, message: str) -> None:
        if message not in self.shape_errors:
            self.shape_errors.append(message)

    def source(self, expr: Expression) -> str:
        """to_source(expr) for a message; a malformed tree's messages are
        dropped, so it is never rendered."""
        return "" if self.shape_errors else to_source(expr)

    def check(self, expr: Expression) -> str | None:
        """Return the expression's type tag, or None after recording errors."""
        if isinstance(expr, Num):
            if not isinstance(expr.value, (int, float)):
                self.malformed(f"number literal holds {expr.value!r}")
            return NUMBER
        if isinstance(expr, Str):
            if not isinstance(expr.value, str):
                self.malformed(f"string literal holds {expr.value!r}")
            return STRING
        if isinstance(expr, Bool):
            return BOOLEAN
        if isinstance(expr, InputRef):
            return self.check_input_ref(expr)
        if isinstance(expr, OutputRef):
            if not self.output_allowed:
                self.fail(f"output.{expr.attr} is not allowed in an input-only expression")
                return None
            return STRING if expr.attr == "label" else NUMBER
        if isinstance(expr, Unary):
            return self.check_unary(expr)
        if isinstance(expr, Binary):
            return self.check_binary(expr)
        if isinstance(expr, Call):
            return self.check_call(expr)
        self.malformed(f"not an expression node: {expr!r}")
        return None

    def check_input_ref(self, expr: InputRef) -> str | None:
        row, col = expr.row, expr.col
        if not isinstance(expr.field, str) or (
            (row is not None or col is not None) and not (type(row) is int and type(col) is int)
        ):
            self.malformed(f"malformed field reference {expr!r}")
            return None
        ftype = self.schema.fields.get(expr.field)
        if ftype is None:
            self.fail(f"unknown input field {expr.field!r}")
            return None
        if expr.row is not None:
            if not isinstance(ftype, GridType):
                self.fail(f"field {expr.field!r} is not a grid and cannot be indexed")
                return None
            if not (0 <= expr.row < ftype.rows and 0 <= expr.col < ftype.cols):
                self.fail(
                    f"index [{expr.row}][{expr.col}] is outside the "
                    f"{ftype.rows}x{ftype.cols} grid {expr.field!r}"
                )
                return None
            return NUMBER
        if isinstance(ftype, (NumberType, IntegerType)):
            return NUMBER
        if isinstance(ftype, BooleanType):
            return BOOLEAN
        if isinstance(ftype, CategoryType):
            return STRING
        return GRID

    def check_unary(self, expr: Unary) -> str | None:
        inner = self.check(expr.operand)
        if expr.op != "-" and expr.op != "!":
            self.malformed(f"unknown operator {expr.op!r}")
            return None
        want = NUMBER if expr.op == "-" else BOOLEAN
        if inner is not None and inner != want:
            self.fail(f"operator {expr.op!r} needs a {want}, got {inner} in {self.source(expr)!r}")
            return None
        return want if inner is not None else None

    def check_binary(self, expr: Binary) -> str | None:
        left = self.check(expr.left)
        right = self.check(expr.right)
        op = expr.op
        if op in _ARITH_OPS or op in _ORDER_OPS:
            ok = True
            for side, tag in (("left", left), ("right", right)):
                if tag is not None and tag != NUMBER:
                    self.fail(
                        f"operator {op!r} needs numbers, {side} side is {tag} "
                        f"in {self.source(expr)!r}"
                    )
                    ok = False
            if left is None or right is None or not ok:
                return None
            return NUMBER if op in _ARITH_OPS else BOOLEAN
        if op in _EQ_OPS:
            if left is None or right is None:
                return None
            if GRID in (left, right):
                self.fail(f"grids cannot be compared in {self.source(expr)!r}")
                return None
            if left != right:
                self.fail(f"cannot compare {left} with {right} in {self.source(expr)!r}")
                return None
            return BOOLEAN
        if op not in _LOGIC_OPS:
            self.malformed(f"unknown operator {op!r}")
            return None
        ok = True
        for side, tag in (("left", left), ("right", right)):
            if tag is not None and tag != BOOLEAN:
                self.fail(
                    f"operator {op!r} needs booleans, {side} side is {tag} "
                    f"in {self.source(expr)!r}"
                )
                ok = False
        if left is None or right is None or not ok:
            return None
        return BOOLEAN

    def check_call(self, expr: Call) -> str | None:
        name = expr.func
        if not isinstance(expr.args, (tuple, list)):
            self.malformed(f"{name}() arguments are not a sequence: {expr.args!r}")
            return None
        args = [self.check(a) for a in expr.args]
        builtin = BUILTINS.get(name)
        if builtin is None:
            self.fail(f"unknown function {name!r}")
            return None
        params = builtin.params
        if builtin.variadic:
            if len(args) < len(params):
                self.fail(f"{name}() needs at least two arguments in {self.source(expr)!r}")
                return None
            want = params[-1][0]
            for tag in args:
                if tag is not None and tag != want:
                    self.fail(f"{name}() arguments must be {want}s in {self.source(expr)!r}")
                    return None
        elif len(params[0]) > 1:
            # One parameter that admits several tags.
            if len(args) != 1:
                self.fail(f"{name}() takes one argument in {self.source(expr)!r}")
                return None
            if args[0] is not None and args[0] not in params[0]:
                accepted = " or ".join(params[0])
                self.fail(f"{name}() takes a {accepted}, got {args[0]} in {self.source(expr)!r}")
                return None
        else:
            if len(args) != len(params):
                self.fail(
                    f"{name}() takes {len(params)} argument(s), got {len(args)} "
                    f"in {self.source(expr)!r}"
                )
                return None
            ok = True
            for i, (got, (want,)) in enumerate(zip(args, params)):
                if got is not None and got != want:
                    self.fail(f"{name}() argument {i + 1} must be a {want}, got {got}")
                    ok = False
            if not ok:
                return None
        return None if None in args else builtin.result


def type_errors(expr: Expression, schema: Schema, output_allowed: bool) -> list[str]:
    """All type errors in expr; empty when it typechecks."""
    checker = _Checker(schema, output_allowed)
    checker.check(expr)
    return checker.shape_errors or checker.errors


def typecheck(expr: Expression, schema: Schema, output_allowed: bool) -> str:
    """Return the type tag of expr, raising TypeCheckError listing every error."""
    checker = _Checker(schema, output_allowed)
    tag = checker.check(expr)
    if checker.shape_errors or checker.errors:
        raise TypeCheckError(checker.shape_errors or checker.errors)
    assert tag is not None
    return tag
