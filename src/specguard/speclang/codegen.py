"""Python source for well-typed condition expressions.

The monitor compiles each spec into Python functions that decide, for a
record already checked against the schema, whether every condition comes
out clean (monitor.clean_functions). This module writes the expressions'
part of that source and compiles the result.

An Emitter is only given expressions that typecheck against its schema, and
the emitted source only ever sees field values that conform to it, held in
local variables the caller names: number and integer fields already made
floats, booleans as bool, categories as str and grids as lists of rows of
int/float cells. The prediction's label and confidence are the locals
``label`` (a str) and ``confidence`` (a float). Under that premise the
emitted source computes what speclang.evaluate computes, with the same
float arithmetic, tolerant numeric ==/!= and left-to-right short-circuiting
&& and ||; where the evaluator raises EvalError, the emitted source raises
too (division by zero raises ZeroDivisionError, a comparison the evaluator
always rejects raises EvalError). Callers treat any exception as "not
decided here" and ask the evaluator.

Spec data (field names, category values, labels, literals) never appears in
the source text: it enters through the constants tuple, as the names k0,
k1, ... bound when the function is made.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping, NoReturn, Sequence

from ..errors import EvalError
from .ast import Binary, Bool, Call, InputRef, Num, OutputRef, Str, Unary
from .builtins import BOOLEAN, BUILTINS, GRID, NUMBER, STRING
from .evaluate import EQ_TOLERANCE
from .schema import BooleanType, CategoryType, GridType, IntegerType, NumberType, Schema

# An int literal stays an int until an operator converts it, so == and !=
# see it as an int (the evaluator never converts there): its own tag.
_INT = "int"
_ARITH = ("+", "-", "*", "/")
_ORDER = ("<", "<=", ">", ">=")
_GRID_BUILTINS = ("len", "rows", "cols", "sum")


class Unsupported(Exception):
    """An expression the emitter does not translate."""


def _fails() -> NoReturn:
    raise EvalError("the evaluator reports an error here")


_NAMESPACE: dict[str, Any] = {"_fails": _fails}
_NAMESPACE.update((f"_{name}", BUILTINS[name].impl) for name in _GRID_BUILTINS)


def _field_tag(ftype: Any) -> str:
    if isinstance(ftype, (NumberType, IntegerType)):
        return NUMBER
    if isinstance(ftype, BooleanType):
        return BOOLEAN
    if isinstance(ftype, CategoryType):
        return STRING
    if isinstance(ftype, GridType):
        return GRID
    raise Unsupported(f"unknown field type {ftype!r}")


class Emitter:
    """Writes expressions over one schema as Python source; see the module
    docstring for what the source assumes and guarantees."""

    def __init__(self, schema: Schema, names: Mapping[str, str]) -> None:
        self.schema = schema
        self.names = names  # field name -> the local holding its value
        self.constants: list[Any] = []
        self.tolerance = self.constant(EQ_TOLERANCE)

    def constant(self, value: Any) -> str:
        """The name under which value reaches the generated source."""
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def condition(self, expr: Any) -> str:
        """Source of a boolean expression."""
        source, tag = self.expression(expr)
        if tag != BOOLEAN:
            raise Unsupported(f"not a boolean expression: {expr!r}")
        return source

    def any_of(self, exprs: Sequence[Any]) -> str:
        """Source that tries the conditions in order until one holds."""
        return "(" + " or ".join(self.condition(e) for e in exprs) + ")" if exprs else "False"

    def all_of(self, exprs: Sequence[Any]) -> str:
        """Source that tries the conditions in order until one fails."""
        return "(" + " and ".join(self.condition(e) for e in exprs) + ")" if exprs else "True"

    def _number(self, expr: Any) -> str:
        """Source of a number expression, as the float operators receive it."""
        if isinstance(expr, Num):
            return self.constant(float(self._literal(expr, (int, float))))
        source, tag = self.expression(expr)
        if tag != NUMBER:
            raise Unsupported(f"not a number expression: {expr!r}")
        return source

    def _literal(self, expr: Any, types: tuple[type, ...]) -> Any:
        value = expr.value
        if type(value) not in types:
            raise Unsupported(f"literal {value!r} is not a {types[0].__name__}")
        if type(value) is int:
            try:
                float(value)
            except OverflowError:
                raise Unsupported(f"literal {value} does not fit a float") from None
        return value

    def expression(self, expr: Any) -> tuple[str, str]:
        """(source, type tag) of any expression; an int literal's tag is "int"."""
        if isinstance(expr, Num):
            value = self._literal(expr, (int, float))
            return self.constant(value), _INT if type(value) is int else NUMBER
        if isinstance(expr, Str):
            return self.constant(self._literal(expr, (str,))), STRING
        if isinstance(expr, Bool):
            return self.constant(self._literal(expr, (bool,))), BOOLEAN
        if isinstance(expr, InputRef):
            return self._input_ref(expr)
        if isinstance(expr, OutputRef):
            if expr.attr == "label":
                return "label", STRING
            return "confidence", NUMBER
        if isinstance(expr, Unary):
            if expr.op == "-":
                return f"(-{self._number(expr.operand)})", NUMBER
            # Every other operator is logical negation, as in the evaluator.
            return f"(not {self.condition(expr.operand)})", BOOLEAN
        if isinstance(expr, Binary):
            return self._binary(expr)
        if isinstance(expr, Call):
            return self._call(expr)
        raise Unsupported(f"not an expression node: {expr!r}")

    def _input_ref(self, expr: InputRef) -> tuple[str, str]:
        try:
            local, ftype = self.names[expr.field], self.schema.fields[expr.field]
        except KeyError:
            raise Unsupported(f"unknown field {expr.field!r}") from None
        if expr.row is None:
            return local, _field_tag(ftype)
        row, col = self.constant(expr.row), self.constant(expr.col)
        return f"float({local}[{row}][{col}])", NUMBER

    def _binary(self, expr: Binary) -> tuple[str, str]:
        op = expr.op
        if op == "&&" or op == "||":
            word = "and" if op == "&&" else "or"
            left, right = self.condition(expr.left), self.condition(expr.right)
            return f"({left} {word} {right})", BOOLEAN
        if op in _ARITH or op in _ORDER:
            left, right = self._number(expr.left), self._number(expr.right)
            return f"({left} {op} {right})", NUMBER if op in _ARITH else BOOLEAN
        if op != "==" and op != "!=":
            return "_fails()", BOOLEAN  # the evaluator rejects unknown operators
        left, left_tag = self.expression(expr.left)
        right, right_tag = self.expression(expr.right)
        if left_tag != right_tag or left_tag == GRID:
            # In a well-typed expression only an int literal against a float
            # gets here: the evaluator cannot compare values of two types.
            return "_fails()", BOOLEAN
        if left_tag == NUMBER:
            same = f"abs({left} - {right}) <= {self.tolerance}"
            return (f"({same})" if op == "==" else f"(not ({same}))"), BOOLEAN
        return f"({left} {op} {right})", BOOLEAN

    def _call(self, expr: Call) -> tuple[str, str]:
        name = expr.func
        if name in ("abs", "min", "max"):
            # Python's own abs/min/max are what the builtin table runs.
            args = ", ".join(self._number(arg) for arg in expr.args)
            return f"{name}({args})", NUMBER
        if name in _GRID_BUILTINS and len(expr.args) == 1:
            source, _ = self.expression(expr.args[0])
            return f"_{name}({source})", NUMBER
        raise Unsupported(f"call {name!r} with {len(expr.args)} argument(s)")

    def functions(self, defs: Mapping[str, list[str]]) -> tuple[Callable[..., Any], ...]:
        """Compile ``def signature: body`` for each item of defs, in one
        source and one compile, with the constants bound; the functions come
        back in the order of defs."""
        names = "".join(f"k{i}, " for i in range(len(self.constants)))
        lines = ["def _make(_k):", f"    {names}= _k"]
        for signature, body in defs.items():
            lines.append(f"    def {signature}:")
            lines += [f"        {line}" for line in body]
        made = [signature.partition("(")[0] for signature in defs]
        lines.append(f"    return {', '.join(made)},")
        namespace = dict(_NAMESPACE)
        exec(compile("\n".join(lines), f"<generated {', '.join(made)}>", "exec"), namespace)
        return namespace["_make"](tuple(self.constants))
