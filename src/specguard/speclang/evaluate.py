"""Evaluator for condition expressions.

An expression is compiled on its first evaluation into a tree of Python
closures, one per AST node, each taking (inputs, output); the closure is
memoised on the root node, outside the dataclass fields, so equality,
hashing and repr are unaffected. Node types, operators and builtin
functions are dispatched once at compile time instead of on every
evaluation. Compiling never fails: a node that cannot be evaluated (an
unknown function or operator, a non-node) compiles to a closure that raises
the error when, and only if, it is reached.

Evaluation stays pure: it reads the input mapping and the optional
prediction and touches nothing else, so concurrent callers can share
expressions and schemas freely (two threads compiling the same node at
once build equivalent closures). Runtime failures (missing field, division
by zero, unbound output) raise EvalError rather than returning a default.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Protocol

from ..errors import EvalError
from .ast import Binary, Bool, Call, Expression, InputRef, Node, Num, OutputRef, Str, Unary
from .builtins import BUILTINS, GRID, NUMBER, as_number

# Two numbers compare equal when within this absolute tolerance. Keeps
# float-producing arithmetic (0.1 + 0.2) usable on the == / != operators.
EQ_TOLERANCE = 1e-9


class PredictionLike(Protocol):
    label: str
    confidence: Optional[float]


Closure = Callable[[Mapping[str, Any], Optional[PredictionLike]], Any]


def numbers_equal(a: float, b: float) -> bool:
    return abs(a - b) <= EQ_TOLERANCE


def evaluate(
    expr: Expression,
    inputs: Mapping[str, Any],
    output: PredictionLike | None = None,
) -> Any:
    """Evaluate expr against an input record and an optional prediction.

    Returns a bool, float, str, or grid (list of lists). Any reference to
    output.* with output=None raises EvalError, as do missing input fields,
    out-of-range grid indices, and division by zero.
    """
    try:
        run = expr._compiled
    except AttributeError:
        run = _compile_root(expr)
    return run(inputs, output)


def evaluate_condition(
    expr: Expression,
    inputs: Mapping[str, Any],
    output: PredictionLike | None = None,
) -> bool:
    """Evaluate expr and insist the result is a boolean."""
    try:
        run = expr._compiled
    except AttributeError:
        run = _compile_root(expr)
    value = run(inputs, output)
    if value is True or value is False:
        return value
    raise EvalError(f"condition evaluated to {value!r}, not a boolean")


def _compile_root(expr: Expression) -> Closure:
    run = _compile(expr)
    if isinstance(expr, Node):
        object.__setattr__(expr, "_compiled", run)
    return run


def _compile(expr: Any) -> Closure:
    if isinstance(expr, (Num, Str, Bool)):
        value = expr.value
        return lambda inputs, output: value
    if isinstance(expr, InputRef):
        return _compile_input_ref(expr)
    if isinstance(expr, OutputRef):
        return _compile_output_ref(expr.attr)
    if isinstance(expr, Unary):
        return _compile_unary(expr)
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, Call):
        return _compile_call(expr)
    return _fails(TypeError, f"not an expression node: {expr!r}")


def _fails(error: type[Exception], message: str) -> Closure:
    def fail(inputs: Mapping[str, Any], output: Any) -> Any:
        raise error(message)

    return fail


def _number(run: Closure, context: str) -> Closure:
    """run, with its result checked to be a number and made a float."""

    def number(inputs: Mapping[str, Any], output: Any) -> float:
        value = run(inputs, output)
        if value.__class__ is float:
            return value
        return as_number(value, context)

    return number


def _grid(run: Closure, message: str) -> Closure:
    """run, with its result checked to be a grid."""

    def grid(inputs: Mapping[str, Any], output: Any) -> list:
        value = run(inputs, output)
        if not isinstance(value, list):
            raise EvalError(message)
        return value

    return grid


def _boolean(value: Any, context: str) -> bool:
    if value is True or value is False:
        return value
    raise EvalError(f"{context}: expected a boolean, got {value!r}")


def _compile_input_ref(expr: InputRef) -> Closure:
    field, row, col = expr.field, expr.row, expr.col
    missing = f"input has no field {field!r}"
    if row is None:

        def scalar(inputs: Mapping[str, Any], output: Any) -> Any:
            if field not in inputs:
                raise EvalError(missing)
            value = inputs[field]
            if isinstance(value, int) and not isinstance(value, bool):
                return float(value)
            return value

        return scalar
    not_grid = f"field {field!r} is not a grid"
    outside = f"index [{row}][{col}] is outside grid {field!r}"
    context = f"grid cell {field}[{row}][{col}]"

    def cell(inputs: Mapping[str, Any], output: Any) -> float:
        if field not in inputs:
            raise EvalError(missing)
        value = inputs[field]
        if not isinstance(value, list):
            raise EvalError(not_grid)
        try:
            item = value[row][col]
        except (IndexError, TypeError) as exc:
            raise EvalError(outside) from exc
        return as_number(item, context)

    return cell


def _compile_output_ref(attr: str) -> Closure:
    unbound = f"output.{attr} referenced but no prediction is bound"
    if attr == "label":

        def label(inputs: Mapping[str, Any], output: Any) -> Any:
            if output is None:
                raise EvalError(unbound)
            return output.label

        return label

    def confidence(inputs: Mapping[str, Any], output: Any) -> float:
        if output is None:
            raise EvalError(unbound)
        if output.confidence is None:
            raise EvalError("output.confidence referenced but the prediction has none")
        return float(output.confidence)

    return confidence


def _compile_unary(expr: Unary) -> Closure:
    operand = _compile(expr.operand)
    if expr.op == "-":
        number = _number(operand, "unary '-'")
        return lambda inputs, output: -number(inputs, output)
    # Every other operator is logical negation, as in the parser's output.
    return lambda inputs, output: not _boolean(operand(inputs, output), "operator '!'")


def _compile_binary(expr: Binary) -> Closure:
    op = expr.op
    left = _compile(expr.left)
    right = _compile(expr.right)
    if op == "&&" or op == "||":
        return _compile_logic(op, left, right)
    if op == "==":
        return lambda inputs, output: _equal(left(inputs, output), right(inputs, output))
    if op == "!=":
        return lambda inputs, output: not _equal(left(inputs, output), right(inputs, output))
    # Both operands are evaluated, left first, before either is checked.
    context = f"operator {op!r}"
    apply = _NUMERIC_OPS.get(op)
    if apply is None:
        unknown = f"unknown operator {op!r}"

        def rejects(inputs: Mapping[str, Any], output: Any) -> Any:
            a = left(inputs, output)
            b = right(inputs, output)
            as_number(a, context)
            as_number(b, context)
            raise TypeError(unknown)

        return rejects
    def numeric(inputs: Mapping[str, Any], output: Any) -> Any:
        a = left(inputs, output)
        b = right(inputs, output)
        if a.__class__ is not float:
            a = as_number(a, context)
        if b.__class__ is not float:
            b = as_number(b, context)
        return apply(a, b)

    return numeric


def _compile_logic(op: str, left: Closure, right: Closure) -> Closure:
    context = f"operator {op!r}"
    settles = op == "||"  # the left value that is the result on its own
    passes = not settles

    def logic(inputs: Mapping[str, Any], output: Any) -> bool:
        a = left(inputs, output)
        if a is settles:
            return settles
        if a is not passes:
            raise EvalError(f"{context}: expected a boolean, got {a!r}")
        b = right(inputs, output)
        if b is True or b is False:
            return b
        raise EvalError(f"{context}: expected a boolean, got {b!r}")

    return logic


def _equal(left: Any, right: Any) -> bool:
    if isinstance(left, list) or isinstance(right, list):
        raise EvalError("grids cannot be compared")
    if type(left) is not type(right):
        raise EvalError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, float):
        return numbers_equal(left, right)
    return left == right


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


_NUMERIC_OPS: dict[str, Callable[[float, float], Any]] = {
    "+": float.__add__,
    "-": float.__sub__,
    "*": float.__mul__,
    "/": _divide,
    "<": float.__lt__,
    "<=": float.__le__,
    ">": float.__gt__,
    ">=": float.__ge__,
}


def _compile_call(expr: Call) -> Closure:
    name = expr.func
    builtin = BUILTINS.get(name)
    if builtin is None:
        return _fails(EvalError, f"unknown function {name!r}")
    params = builtin.params
    if builtin.variadic:
        nodes = expr.args
    elif len(expr.args) < len(params):
        # A call that was never type-checked fails as indexing its missing
        # argument does; extra arguments are never evaluated.
        return _fails(IndexError, "tuple index out of range")
    else:
        nodes = expr.args[: len(params)]
    args = []
    for i, node in enumerate(nodes):
        run = _compile(node)
        tags = params[min(i, len(params) - 1)]
        if tags == (NUMBER,):
            run = _number(run, f"{name}()")
        elif tags == (GRID,):
            run = _grid(run, f"{name}() needs a grid argument")
        args.append(run)
    impl = builtin.impl
    return lambda inputs, output: impl(*[run(inputs, output) for run in args])
