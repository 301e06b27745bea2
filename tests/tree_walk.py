"""Reference evaluator for the compiled one in specguard.speclang.evaluate.

A direct walk over the AST that dispatches on node types on every
evaluation. It defines the semantics the generated functions must keep
(speclang.codegen, exact mode): results, EvalError texts, left-to-right
evaluation and short-circuiting. test_evaluate.py checks the two against
each other on random expressions. It recurses, so it walks only trees of
modest depth.
"""
from __future__ import annotations

from typing import Any, Mapping

from specguard.errors import EvalError
from specguard.speclang.ast import (
    Binary,
    Bool,
    Call,
    Expression,
    InputRef,
    Num,
    OutputRef,
    Str,
    Unary,
)
from specguard.speclang.evaluate import EQ_TOLERANCE


def _num(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvalError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _bool(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise EvalError(f"{context}: expected a boolean, got {value!r}")
    return value


def numbers_equal(a: float, b: float) -> bool:
    return abs(a - b) <= EQ_TOLERANCE


def evaluate(
    expr: Expression,
    inputs: Mapping[str, Any],
    output: Any = None,
) -> Any:
    """Evaluate expr against an input record and an optional prediction.

    Returns a bool, float, str, or grid (list of lists). Any reference to
    output.* with output=None raises EvalError, as do missing input fields,
    out-of-range grid indices, and division by zero.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Str):
        return expr.value
    if isinstance(expr, Bool):
        return expr.value
    if isinstance(expr, InputRef):
        if expr.field not in inputs:
            raise EvalError(f"input has no field {expr.field!r}")
        value = inputs[expr.field]
        if expr.row is None:
            if isinstance(value, int) and not isinstance(value, bool):
                return float(value)
            return value
        if not isinstance(value, list):
            raise EvalError(f"field {expr.field!r} is not a grid")
        try:
            cell = value[expr.row][expr.col]
        except (IndexError, TypeError) as exc:
            raise EvalError(
                f"index [{expr.row}][{expr.col}] is outside grid {expr.field!r}"
            ) from exc
        return _num(cell, f"grid cell {expr.field}[{expr.row}][{expr.col}]")
    if isinstance(expr, OutputRef):
        if output is None:
            raise EvalError(f"output.{expr.attr} referenced but no prediction is bound")
        if expr.attr == "label":
            return output.label
        if output.confidence is None:
            raise EvalError("output.confidence referenced but the prediction has none")
        return float(output.confidence)
    if isinstance(expr, Unary):
        if expr.op == "-":
            return -_num(evaluate(expr.operand, inputs, output), "unary '-'")
        return not _bool(evaluate(expr.operand, inputs, output), "operator '!'")
    if isinstance(expr, Binary):
        return _evaluate_binary(expr, inputs, output)
    if isinstance(expr, Call):
        return _evaluate_call(expr, inputs, output)
    raise TypeError(f"not an expression node: {expr!r}")


def _evaluate_binary(expr: Binary, inputs: Mapping[str, Any], output: Any) -> Any:
    op = expr.op
    if op == "&&":
        if not _bool(evaluate(expr.left, inputs, output), "operator '&&'"):
            return False
        return _bool(evaluate(expr.right, inputs, output), "operator '&&'")
    if op == "||":
        if _bool(evaluate(expr.left, inputs, output), "operator '||'"):
            return True
        return _bool(evaluate(expr.right, inputs, output), "operator '||'")
    left = evaluate(expr.left, inputs, output)
    right = evaluate(expr.right, inputs, output)
    if op in ("==", "!="):
        if isinstance(left, list) or isinstance(right, list):
            raise EvalError("grids cannot be compared")
        if type(left) is not type(right):
            raise EvalError(f"cannot compare {left!r} with {right!r}")
        if isinstance(left, float):
            same = numbers_equal(left, right)
        else:
            same = left == right
        return same if op == "==" else not same
    lnum = _num(left, f"operator {op!r}")
    rnum = _num(right, f"operator {op!r}")
    if op == "+":
        return lnum + rnum
    if op == "-":
        return lnum - rnum
    if op == "*":
        return lnum * rnum
    if op == "/":
        if rnum == 0.0:
            raise EvalError("division by zero")
        return lnum / rnum
    if op == "<":
        return lnum < rnum
    if op == "<=":
        return lnum <= rnum
    if op == ">":
        return lnum > rnum
    if op == ">=":
        return lnum >= rnum
    raise TypeError(f"unknown operator {op!r}")


def _grid_arg(expr: Call, inputs: Mapping[str, Any], output: Any) -> list:
    value = evaluate(expr.args[0], inputs, output)
    if not isinstance(value, list):
        raise EvalError(f"{expr.func}() needs a grid argument")
    return value


def _evaluate_call(expr: Call, inputs: Mapping[str, Any], output: Any) -> Any:
    name = expr.func
    if name == "abs":
        return abs(_num(evaluate(expr.args[0], inputs, output), "abs()"))
    if name in ("min", "max"):
        values = [_num(evaluate(a, inputs, output), f"{name}()") for a in expr.args]
        return min(values) if name == "min" else max(values)
    if name == "len":
        value = evaluate(expr.args[0], inputs, output)
        if isinstance(value, str):
            return float(len(value))
        if isinstance(value, list):
            return float(sum(len(row) for row in value))
        raise EvalError("len() needs a grid or string argument")
    if name == "rows":
        return float(len(_grid_arg(expr, inputs, output)))
    if name == "cols":
        grid = _grid_arg(expr, inputs, output)
        return float(len(grid[0])) if grid else 0.0
    if name == "sum":
        grid = _grid_arg(expr, inputs, output)
        total = 0.0
        for r, row in enumerate(grid):
            for c, cell in enumerate(row):
                total += _num(cell, f"sum() cell [{r}][{c}]")
        return total
    raise EvalError(f"unknown function {name!r}")


def evaluate_condition(
    expr: Expression,
    inputs: Mapping[str, Any],
    output: Any = None,
) -> bool:
    """Evaluate expr and insist the result is a boolean."""
    value = evaluate(expr, inputs, output)
    if not isinstance(value, bool):
        raise EvalError(f"condition evaluated to {value!r}, not a boolean")
    return value
