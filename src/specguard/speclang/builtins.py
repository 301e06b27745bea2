"""The builtin functions of the condition language, one table for the type
checker and the compiler, and the numeric rules every evaluation shares.

Every expression has one of four type tags: "number", "boolean", "string",
or "grid". Grids only appear as arguments to len/rows/cols/sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import EvalError

NUMBER = "number"
BOOLEAN = "boolean"
STRING = "string"
GRID = "grid"

# Two numbers compare equal when within this absolute tolerance. Keeps
# float-producing arithmetic (0.1 + 0.2) usable on the == / != operators.
EQ_TOLERANCE = 1e-9


def numbers_equal(a: float, b: float) -> bool:
    return abs(a - b) <= EQ_TOLERANCE


def as_number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvalError(f"{context}: expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Builtin:
    """A builtin's signature and implementation.

    params holds the tags each argument may have, so len(params) is the
    arity. A variadic builtin takes at least len(params) arguments, each typed
    like the last parameter. The evaluator hands impl the arguments in order
    (a variadic impl, like min and max, takes fewer than two of them as one
    tuple); an argument whose parameter has the single tag NUMBER or GRID is
    checked (and numbers made floats) as soon as it is evaluated, and impl
    checks a parameter that admits several tags itself.
    """

    params: tuple[tuple[str, ...], ...]
    result: str
    impl: Callable[..., Any]
    variadic: bool = False


def _len(value: Any) -> float:
    if isinstance(value, str):
        return float(len(value))
    if isinstance(value, list):
        return float(sum(len(row) for row in value))
    raise EvalError("len() needs a grid or string argument")


def _sum(grid: list) -> float:
    total = 0.0
    for r, row in enumerate(grid):
        for c, cell in enumerate(row):
            total += as_number(cell, f"sum() cell [{r}][{c}]")
    return total


BUILTINS: dict[str, Builtin] = {
    "abs": Builtin(((NUMBER,),), NUMBER, abs),
    "min": Builtin(((NUMBER,), (NUMBER,)), NUMBER, min, variadic=True),
    "max": Builtin(((NUMBER,), (NUMBER,)), NUMBER, max, variadic=True),
    "len": Builtin(((GRID, STRING),), NUMBER, _len),
    "rows": Builtin(((GRID,),), NUMBER, lambda grid: float(len(grid))),
    "cols": Builtin(((GRID,),), NUMBER, lambda grid: float(len(grid[0])) if grid else 0.0),
    "sum": Builtin(((GRID,),), NUMBER, _sum),
}
