"""The compiler of condition expressions: Python source, then functions.

An Emitter writes an expression as three-address code (Aho, Lam, Sethi and
Ullman, *Compilers*, 2nd ed., ch. 6): flat statements, each computing one
AST node into a local, from one iterative walk. An operator reuses its
operands' locals, so a chain keeps one. A chain of && or || is one and/or
expression, except that an operand needing more than one statement runs
under a guard, the local holding the chain's result so far: ``if t0: t1 =
...``. No statement nests deeper than that one ``if`` (CPython allows only
20 statically nested blocks), so an expression of any depth compiles.

Exact mode, Emitter(), writes the code speclang.evaluate runs over the
mapping ``inputs`` and the prediction ``output``. Every read and operator
goes through the helpers below, so it computes what the language defines
(tests/tree_walk.py is the reference): each value and EvalError text, the
TypeError or IndexError of a malformed Python-built tree only when its node
is reached, both operands evaluated left to right before either is checked,
and && and || short-circuiting.

Typed mode, Emitter(schema, names), writes the fast paths of the monitor
(monitor.clean_line_function) and the gated pattern
(patterns.gated_decide_function), through speccore.spec.spec_function. It
is only given expressions that typecheck against the schema (the callers
have run spec.require_well_formed), over locals (named by names) that hold
conforming values: number and integer fields as floats, booleans as bool,
categories as str, grids as lists of rows of int/float cells, and the
prediction as the locals ``label`` (a str) and ``confidence`` (a float). It
then computes what the exact mode computes, without the checks, and raises
some exception wherever the exact mode raises EvalError. Callers treat any
exception as "not decided here" and take the exact path.

Spec data (field names, category values, labels, literals) and the helpers
never appear in the source text: they enter as the globals k0, k1, ...
"""
from __future__ import annotations

from functools import partial, reduce
from typing import Any, Callable, Generator, Mapping, Optional, Sequence

from ..errors import EvalError
from .ast import Binary, Bool, Call, InputRef, Num, OutputRef, Str, Unary
from .builtins import BOOLEAN, BUILTINS, EQ_TOLERANCE, GRID, NUMBER, STRING, as_number
from .builtins import numbers_equal
from .schema import BooleanType, CategoryType, GridType, IntegerType, NumberType, Schema

# An int literal stays an int until an operator converts it, so == and !=
# see it as an int (the exact mode never converts there): its own tag.
_INT = "int"
_ARITH = ("+", "-", "*", "/")
_ORDER = ("<", "<=", ">", ">=")
_FIELD_TAGS = {NumberType: NUMBER, IntegerType: NUMBER, BooleanType: BOOLEAN, CategoryType: STRING,
               GridType: GRID}

# A statement is folded into its reader only while it holds fewer
# parentheses than this, so no expression nests as deeply as the 200
# parentheses CPython's parser refuses.
_FOLD_PARENS = 100

# A node's value: the local or constant that holds it, and its type tag. In
# the exact mode NUMBER means a float, BOOLEAN a bool, None not known.
Value = tuple[str, Optional[str]]


class Unsupported(Exception):
    """An expression the typed mode does not translate."""


def any_of(exprs: Sequence[Any]) -> Any:
    """The conditions joined by ||, tried in order until one holds."""
    return reduce(partial(Binary, "||"), exprs) if exprs else Bool(False)


def all_of(exprs: Sequence[Any]) -> Any:
    """The conditions joined by &&, tried in order until one fails."""
    return reduce(partial(Binary, "&&"), exprs) if exprs else Bool(True)


# The exact mode's helpers: the reads, and the checks an operator makes
# beyond float arithmetic.


def _read(inputs: Mapping[str, Any], field: str) -> Any:
    if field not in inputs:
        raise EvalError(f"input has no field {field!r}")
    value = inputs[field]
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _cell(inputs: Mapping[str, Any], field: str, row: int, col: int) -> Any:
    """The cell as it is stored; the caller checks it is a number."""
    value = _read(inputs, field)
    if not isinstance(value, list):
        raise EvalError(f"field {field!r} is not a grid")
    try:
        return value[row][col]
    except (IndexError, TypeError) as exc:
        raise EvalError(f"index [{row}][{col}] is outside grid {field!r}") from exc


def _output(output: Any, attr: str) -> Any:
    if output is None:
        raise EvalError(f"output.{attr} referenced but no prediction is bound")
    if attr == "label":
        return output.label
    if output.confidence is None:
        raise EvalError("output.confidence referenced but the prediction has none")
    return float(output.confidence)


def _boolean(value: Any, context: str) -> bool:
    if value is True or value is False:
        return value
    raise EvalError(f"{context}: expected a boolean, got {value!r}")


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


class Emitter:
    """Writes expressions as Python statements; see the module docstring.
    Emitter() is the exact mode. Emitter(schema, names) is the typed mode,
    where names maps each field to the local that holds its value."""

    def __init__(self, schema: Optional[Schema] = None, names: Optional[Mapping[str, str]] = None):
        self.exact = schema is None
        self.schema = schema
        self.names = names or {}
        self.constants: list[Any] = []
        self._named: dict[Any, str] = {}
        self._floats: dict[str, str] = {}  # typed: an int literal's name -> its float's
        self._temps: set[str] = set()
        self._free: list[str] = []
        self._lines: list[str] = []

    def constant(self, value: Any) -> str:
        """The name under which value reaches the generated source."""
        key = value if value.__class__ is str else id(value)  # constants keeps value alive
        if key not in self._named:
            self._named[key] = f"k{len(self.constants)}"
            self.constants.append(value)
        return self._named[key]

    def condition(self, expr: Any, lines: list[str]) -> str:
        """expression(expr, lines) of a boolean expression, without its tag."""
        value, tag = self.expression(expr, lines)
        if tag != BOOLEAN:
            raise Unsupported(f"not a boolean expression: {expr!r}")
        return value

    def expression(self, expr: Any, lines: list[str]) -> Value:
        """Append to lines the statements that compute expr, and return an
        expression of its value, to be read once before the next call, and
        its tag.

        The walk keeps one generator per node on an explicit stack: a node
        yields (child, guard) for each child it needs, is sent the child's
        Value, and returns its own.
        """
        self._lines, self._free = lines, sorted(self._temps)
        stack, value = [self._node(expr, None)], None
        while stack:
            try:
                child, guard = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(self._node(child, guard))
                value = None
        return self._take(None, value[0]), value[1]

    def function(self, signature: str, body: list[str]) -> Callable[..., Any]:
        """Compile ``def signature: body``, with the constants as its globals."""
        name = signature.partition("(")[0]
        source = "\n".join([f"def {signature}:", *(f"    {line}" for line in body)])
        namespace = {f"k{i}": value for i, value in enumerate(self.constants)}
        exec(compile(source, f"<generated {name}>", "exec"), namespace)
        return namespace[name]

    def _emit(self, guard: Optional[str], statement: str) -> None:
        self._lines.append(statement if guard is None else f"if {guard}: {statement}")

    def _temp(self) -> str:
        if self._free:
            return self._free.pop()
        self._temps.add(f"t{len(self._temps)}")
        return f"t{len(self._temps) - 1}"

    def _release(self, name: str) -> None:
        if name in self._temps:
            self._free.append(name)

    def _assign(self, guard: Optional[str], rhs: str, tag: Optional[str], *operands: str) -> Value:
        """A local computed as rhs under guard; rhs reads operands for the
        last time, so their locals are free for it."""
        for name in operands:
            self._release(name)
        target = self._temp()
        self._emit(guard, f"{target} = {rhs}")
        return target, tag

    def _raise(self, guard: Optional[str], error: type, message: str) -> Value:
        self._emit(guard, f"raise {self.constant(error)}({self.constant(message)})")
        return "None", None  # never read: no statement after it runs

    def _float(self, value: Value, context: str) -> str:
        """An expression of value checked to be a number and made a float."""
        name, tag = value
        if tag == NUMBER:
            return name
        if self.exact:
            check = f"{self.constant(as_number)}({name}, {self.constant(context)})"
            return f"({name} if {name}.__class__ is float else {check})"
        if tag == _INT:
            return self._floats[name]
        raise Unsupported(f"not a number: {context}")

    def _bool(self, value: Value, context: str) -> str:
        """An expression of value checked to be a boolean."""
        name, tag = value
        if tag == BOOLEAN:
            return name
        if self.exact:
            check = f"{self.constant(_boolean)}({name}, {self.constant(context)})"
            return f"({name} if {name} is True or {name} is False else {check})"
        raise Unsupported(f"not a boolean: {context}")

    def _node(self, expr: Any, guard: Optional[str]) -> Generator[Any, Value, Value]:
        if isinstance(expr, Binary) and (expr.op == "&&" or expr.op == "||"):
            return (yield from self._logic(expr, guard))
        if isinstance(expr, Binary):
            left = yield expr.left, guard
            right = yield expr.right, guard
            return self._binary(expr.op, left, right, guard)
        if isinstance(expr, Unary):
            operand = yield expr.operand, guard
            if expr.op == "-":
                rhs, tag = "-" + self._take(guard, self._float(operand, "unary '-'")), NUMBER
            else:  # every other operator is logical negation, as in the parser's output
                rhs, tag = "not " + self._take(guard, self._bool(operand, "operator '!'")), BOOLEAN
            return self._assign(guard, rhs, tag, operand[0])
        if isinstance(expr, Call):
            return (yield from self._call(expr, guard))
        if isinstance(expr, (Num, Str, Bool)):
            if not self.exact:
                return self._literal(expr)
            value = expr.value
            return self.constant(value), {float: NUMBER, bool: BOOLEAN}.get(value.__class__)
        if isinstance(expr, InputRef):
            return self._input(expr, guard)
        if isinstance(expr, OutputRef):
            if not self.exact:
                return ("label", STRING) if expr.attr == "label" else ("confidence", NUMBER)
            read = f"{self.constant(_output)}(output, {self.constant(expr.attr)})"
            return self._assign(guard, read, None if expr.attr == "label" else NUMBER)
        if not self.exact:
            raise Unsupported(f"not an expression node: {expr!r}")
        return self._raise(guard, TypeError, f"not an expression node: {expr!r}")

    def _literal(self, expr: Any) -> Value:
        value = expr.value
        kinds: tuple[type, ...] = (int, float)
        if not isinstance(expr, Num):
            kinds = (str,) if isinstance(expr, Str) else (bool,)
        if type(value) not in kinds:
            raise Unsupported(f"literal {value!r} is not a {kinds[0].__name__}")
        name = self.constant(value)
        if type(value) is not int:
            return name, {float: NUMBER, str: STRING, bool: BOOLEAN}[type(value)]
        try:
            self._floats[name] = self.constant(float(value))
        except OverflowError:
            raise Unsupported(f"literal {value} does not fit a float") from None
        return name, _INT

    def _input(self, expr: InputRef, guard: Optional[str]) -> Value:
        k = self.constant
        if self.exact:
            if expr.row is None:
                return self._assign(guard, f"{k(_read)}(inputs, {k(expr.field)})", None)
            read = f"{k(_cell)}(inputs, {k(expr.field)}, {k(expr.row)}, {k(expr.col)})"
            cell = self._assign(guard, read, None)
            context = f"grid cell {expr.field}[{expr.row}][{expr.col}]"
            return self._assign(guard, self._float(cell, context), NUMBER, cell[0])
        try:
            local, ftype = self.names[expr.field], self.schema.fields[expr.field]
        except KeyError:
            raise Unsupported(f"unknown field {expr.field!r}") from None
        if ftype.__class__ not in _FIELD_TAGS:
            raise Unsupported(f"unknown field type {ftype!r}")
        if expr.row is None:
            return local, _FIELD_TAGS[ftype.__class__]
        return self._assign(guard, f"float({local}[{k(expr.row)}][{k(expr.col)}])", NUMBER)

    def _logic(self, expr: Binary, guard: Optional[str]) -> Generator[Any, Value, Value]:
        """The operands of a subtree of one operator, as a chain a op b op
        c ..., in one loop. Operands whose code is one statement join one
        and/or expression; a longer one runs under the result so far (&&
        goes on while it holds, || while it fails), which is assigned
        first. Under a guard, the result is False (&&) or True (||) where
        the guard fails."""
        op, operands, todo = expr.op, [], [expr]
        while todo:
            node = todo.pop()
            if isinstance(node, Binary) and node.op == op:
                todo += [node.right, node.left]
            else:
                operands.append(node)
        context, word = f"operator {op!r}", " and " if op == "&&" else " or "
        first = yield operands[0], guard
        joined = [self._take(guard, self._bool(first, context))]
        if guard is not None:
            joined = [f"{guard} and {joined[0]}" if op == "&&" else f"not ({guard}) or {joined[0]}"]
        self._release(first[0])
        result = self._temp()
        reached = result if op == "&&" else f"not {result}"
        for node in operands[1:]:
            mark = len(self._lines)
            right = yield node, reached
            value = self._take(reached, self._bool(right, context))
            self._release(right[0])
            if len(self._lines) > mark:  # statements that read the result
                self._lines.insert(mark, f"{result} = {word.join(joined)}")
                joined = [result]
            joined.append(value)
        self._emit(None, f"{result} = {word.join(joined)}")
        return result, BOOLEAN

    def _take(self, guard: Optional[str], name: str) -> str:
        """The right-hand side of the last statement, taken off the lines,
        when that statement computed the local name under guard (or is a
        chain's result folded with guard, which goes); else name. Either is
        read once, where name would be, and only where guard holds."""
        heads = [f"{name} = "]
        if guard is not None:
            folded = [f"{name} = {guard} and ", f"{name} = not ({guard}) or "]
            heads = [f"if {guard}: {name} = ", *folded]
        last = self._lines[-1] if name in self._temps and self._lines else ""
        for head in heads:
            if last.startswith(head) and last.count("(") < _FOLD_PARENS:
                self._lines.pop()
                return f"({last[len(head):]})"
        return name

    def _binary(self, op: str, left: Value, right: Value, guard: Optional[str]) -> Value:
        operands = left[0], right[0]
        if op == "==" or op == "!=":
            (a, a_tag), (b, b_tag) = left, right
            if self.exact or a_tag != b_tag or a_tag == GRID:
                same = f"{self.constant(_equal)}({a}, {b})"
            elif a_tag == NUMBER:
                same = f"abs({a} - {b}) <= {self.constant(EQ_TOLERANCE)}"
            else:
                return self._assign(guard, f"{a} {op} {b}", BOOLEAN, *operands)
            # _equal gives what == gives on the values, a bool on builtin types
            tag = None if self.exact and op == "==" else BOOLEAN
            return self._assign(guard, same if op == "==" else f"not {same}", tag, *operands)
        context = f"operator {op!r}"
        a, b = self._float(left, context), self._float(right, context)
        if op == "/":
            return self._assign(guard, f"{self.constant(_divide)}({a}, {b})", NUMBER, *operands)
        if op in _ARITH or op in _ORDER:
            tag = NUMBER if op in _ARITH else BOOLEAN
            return self._assign(guard, f"{a} {op} {b}", tag, *operands)
        self._emit(guard, f"{a}, {b}")  # both operands are checked, left first
        return self._raise(guard, TypeError, f"unknown operator {op!r}")

    def _call(self, expr: Call, guard: Optional[str]) -> Generator[Any, Value, Value]:
        builtin = BUILTINS.get(expr.func)
        if builtin is None:
            return self._raise(guard, EvalError, f"unknown function {expr.func!r}")
        params = builtin.params
        if builtin.variadic:
            nodes = expr.args
        elif len(expr.args) < len(params):
            # A call that was never type-checked fails as indexing its missing
            # argument does; extra arguments are never evaluated.
            return self._raise(guard, IndexError, "tuple index out of range")
        else:
            nodes = expr.args[: len(params)]
        args = []
        for i, node in enumerate(nodes):
            arg = yield node, guard
            tags = params[min(i, len(params) - 1)]
            if tags == (NUMBER,) and arg[1] != NUMBER:
                arg = self._assign(guard, self._float(arg, f"{expr.func}()"), NUMBER, arg[0])
            elif tags == (GRID,) and arg[1] != GRID:
                test = f"not isinstance({arg[0]}, list)"
                message = self.constant(f"{expr.func}() needs a grid argument")
                test = test if guard is None else f"{guard} and {test}"
                self._lines.append(f"if {test}: raise {self.constant(EvalError)}({message})")
            args.append(arg[0])
        listed = ", ".join(args)
        if builtin.variadic and len(args) < 2:  # one tuple, as min and max take it
            listed = "(" + "".join(f"{arg}, " for arg in args) + ")"
        # every builtin of result NUMBER returns a float
        tag = NUMBER if builtin.result == NUMBER else None
        return self._assign(guard, f"{self.constant(builtin.impl)}({listed})", tag, *args)
