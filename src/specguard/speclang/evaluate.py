"""Evaluator for condition expressions.

An expression is compiled on its first evaluation into one Python function
of (inputs, output), written by speclang.codegen in its exact mode, and the
function is memoised on the root node outside the dataclass fields, so
equality, hashing, repr and pickling are unaffected. Compiling never fails
on a malformed tree: a node that cannot be evaluated raises its error when,
and only if, it is reached.

Evaluation stays pure: it reads the input mapping and the optional
prediction and touches nothing else, so concurrent callers can share
expressions freely (two threads compiling the same node at once build
equivalent functions). Runtime failures (missing field, division by zero,
unbound output) raise EvalError rather than returning a default.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Protocol

from ..errors import EvalError
from .ast import Expression, Node
from .builtins import EQ_TOLERANCE, numbers_equal  # noqa: F401  (part of this module's API)
from .codegen import Emitter


class PredictionLike(Protocol):
    label: str
    confidence: Optional[float]


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


def _compile_root(expr: Expression) -> Callable[[Mapping[str, Any], Any], Any]:
    emit, lines = Emitter(), []
    value, _ = emit.expression(expr, lines)
    run = emit.function("run(inputs, output)", lines + [f"return {value}"])
    if isinstance(expr, Node):
        object.__setattr__(expr, "_compiled", run)
    return run
