"""Evaluator golden cases, a differential check against an independently
written second evaluator on randomly generated typed expressions, and a
property pinning the compiled evaluator to the reference tree walk
(tree_walk.py) on well-typed and ill-typed expressions alike."""
from __future__ import annotations

import math
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walk
from specguard.errors import EvalError
from specguard.speccore.records import Prediction
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
from specguard.speclang.builtins import BUILTINS
from specguard.speclang.evaluate import evaluate, evaluate_condition, numbers_equal
from specguard.speclang.parser import parse

PED = Prediction("pedestrian", 0.9)

GOLDEN = [
    ("1 + 2 * 3", {}, None, 7.0),
    ("(1 + 2) * 3", {}, None, 9.0),
    ("10 / 4", {}, None, 2.5),
    ("-2 * 3", {}, None, -6.0),
    ("abs(-5)", {}, None, 5.0),
    ("min(3, 1, 2)", {}, None, 1.0),
    ("max(3, 1, 2)", {}, None, 3.0),
    ("1 < 2", {}, None, True),
    ("2 <= 2", {}, None, True),
    ("3 > 4", {}, None, False),
    ("0.1 + 0.2 == 0.3", {}, None, True),  # tolerant numeric equality
    ("0.1 + 0.2 != 0.3", {}, None, False),
    ("1 == 1.0000001", {}, None, False),
    ('"a" == "a"', {}, None, True),
    ('"a" != "b"', {}, None, True),
    ("true && false", {}, None, False),
    ("true || false", {}, None, True),
    ("!false", {}, None, True),
    ("input.height + 1", {"height": 7}, None, 8.0),
    ("input.height > 0 && input.height < 8", {"height": 7.5}, None, True),
    ("input.img[1][2]", {"img": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}, None, 5.0),
    ("sum(input.img)", {"img": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}, None, 36.0),
    ("rows(input.img)", {"img": [[0, 1], [2, 3], [4, 5]]}, None, 3.0),
    ("cols(input.img)", {"img": [[0, 1], [2, 3], [4, 5]]}, None, 2.0),
    ("len(input.img)", {"img": [[0, 1], [2, 3], [4, 5]]}, None, 6.0),
    ('len("abcd")', {}, None, 4.0),
    ('output.label == "pedestrian"', {}, PED, True),
    ("output.confidence >= 0.5", {}, PED, True),
    ("output.confidence * 2", {}, PED, 1.8),
]


@pytest.mark.parametrize("source,inputs,output,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden(source, inputs, output, expected):
    got = evaluate(parse(source), inputs, output)
    if isinstance(expected, bool):
        assert got is expected
    else:
        assert got == pytest.approx(expected)


def test_integer_inputs_come_back_as_floats():
    assert evaluate(parse("input.count"), {"count": 3}) == 3.0
    assert isinstance(evaluate(parse("input.count"), {"count": 3}), float)


def test_short_circuit_skips_the_right_operand():
    assert evaluate(parse("false && 1 / 0 > 0"), {}) is False
    assert evaluate(parse("true || 1 / 0 > 0"), {}) is True
    with pytest.raises(EvalError):
        evaluate(parse("true && 1 / 0 > 0"), {})


ERRORS = [
    ("1 / 0", {}, None, "division by zero"),
    ("input.missing", {}, None, "no field"),
    ("input.img[0][5]", {"img": [[1, 2], [3, 4]]}, None, "outside grid"),
    ("output.label == \"x\"", {}, None, "no prediction is bound"),
    ("1 + true", {}, None, "expected a number"),
    ("!5", {}, None, "expected a boolean"),
    ('1 == "a"', {}, None, "cannot compare"),
    ("input.img == input.img", {"img": [[1]]}, None, "grids cannot be compared"),
    ("len(5)", {}, None, "grid or string"),
    ("sum(input.height)", {"height": 2}, None, "needs a grid"),
]


@pytest.mark.parametrize("source,inputs,output,fragment", ERRORS, ids=[e[0] for e in ERRORS])
def test_eval_errors(source, inputs, output, fragment):
    with pytest.raises(EvalError, match=fragment):
        evaluate(parse(source), inputs, output)


def test_confidence_on_confidence_free_prediction_raises():
    with pytest.raises(EvalError, match="prediction has none"):
        evaluate(parse("output.confidence > 0"), {}, Prediction("pedestrian", None))


def test_evaluate_condition_rejects_non_boolean_results():
    with pytest.raises(EvalError, match="not a boolean"):
        evaluate_condition(parse("1 + 2"), {})
    assert evaluate_condition(parse("1 < 2"), {}) is True


# ---------------------------------------------------------------------------
# Differential testing against a second, independently written evaluator.

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _oracle(expr, inputs, output):
    """Reference evaluator, written in a table-driven style on purpose."""
    kind = type(expr).__name__
    if kind in ("Num", "Str", "Bool"):
        return expr.value
    if kind == "InputRef":
        value = inputs[expr.field]
        if expr.row is not None:
            return float(value[expr.row][expr.col])
        return float(value) if isinstance(value, int) and not isinstance(value, bool) else value
    if kind == "OutputRef":
        return output.label if expr.attr == "label" else float(output.confidence)
    if kind == "Unary":
        inner = _oracle(expr.operand, inputs, output)
        return (-inner) if expr.op == "-" else (not inner)
    if kind == "Call":
        args = [_oracle(a, inputs, output) for a in expr.args]
        if expr.func == "abs":
            return abs(args[0])
        if expr.func == "min":
            return min(args)
        if expr.func == "max":
            return max(args)
        if expr.func == "sum":
            return float(sum(sum(row) for row in args[0]))
        if expr.func == "rows":
            return float(len(args[0]))
        if expr.func == "cols":
            return float(len(args[0][0]))
        if expr.func == "len":
            grid = args[0]
            if isinstance(grid, str):
                return float(len(grid))
            return float(sum(len(r) for r in grid))
        raise AssertionError(expr.func)
    op = expr.op
    if op == "&&":
        return _oracle(expr.left, inputs, output) and _oracle(expr.right, inputs, output)
    if op == "||":
        return _oracle(expr.left, inputs, output) or _oracle(expr.right, inputs, output)
    left = _oracle(expr.left, inputs, output)
    right = _oracle(expr.right, inputs, output)
    if op in _ARITH:
        return float(_ARITH[op](left, right))
    if op == "/":
        if right == 0.0:
            raise ZeroDivisionError
        return left / right
    if op in _ORDER:
        return _ORDER[op](left, right)
    same = abs(left - right) <= 1e-9 if isinstance(left, float) else left == right
    return same if op == "==" else not same


def _gen_number(rng: random.Random, depth: int):
    if depth <= 0:
        pick = rng.randrange(4)
        if pick == 0:
            return Num(float(rng.randrange(-6, 7)))
        if pick == 1:
            return InputRef("height", None, None)
        if pick == 2:
            return InputRef("img", rng.randrange(3), rng.randrange(3))
        return OutputRef("confidence")
    pick = rng.randrange(6)
    if pick == 0:
        return Unary("-", _gen_number(rng, depth - 1))
    if pick == 1:
        return Call("abs", (_gen_number(rng, depth - 1),))
    if pick == 2:
        return Call(
            rng.choice(["min", "max"]),
            tuple(_gen_number(rng, depth - 1) for _ in range(rng.randrange(2, 4))),
        )
    if pick == 3:
        return Call(rng.choice(["sum", "rows", "cols", "len"]), (InputRef("img", None, None),))
    op = rng.choice(["+", "-", "*", "/"])
    return Binary(op, _gen_number(rng, depth - 1), _gen_number(rng, depth - 1))


def _gen_boolean(rng: random.Random, depth: int):
    if depth <= 0:
        if rng.random() < 0.4:
            return Bool(rng.random() < 0.5)
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return Binary(op, _gen_number(rng, 1), _gen_number(rng, 1))
    pick = rng.randrange(4)
    if pick == 0:
        return Unary("!", _gen_boolean(rng, depth - 1))
    if pick == 1:
        return Binary(
            "==" if rng.random() < 0.5 else "!=",
            OutputRef("label"),
            Str(rng.choice(["pedestrian", "not_pedestrian"])),
        )
    op = rng.choice(["&&", "||"])
    return Binary(op, _gen_boolean(rng, depth - 1), _gen_boolean(rng, depth - 1))


def _random_inputs(rng: random.Random):
    return {
        "height": round(rng.uniform(-4, 9), 2),
        "img": [[rng.randrange(0, 4) for _ in range(3)] for _ in range(3)],
    }


def test_differential_numeric_expressions():
    rng = random.Random(813)
    mismatches = 0
    for _ in range(400):
        expr = _gen_number(rng, rng.randrange(1, 4))
        inputs = _random_inputs(rng)
        output = Prediction("pedestrian", round(rng.uniform(0, 1), 3))
        try:
            want = _oracle(expr, inputs, output)
        except ZeroDivisionError:
            with pytest.raises(EvalError, match="division by zero"):
                evaluate(expr, inputs, output)
            continue
        got = evaluate(expr, inputs, output)
        if not numbers_equal(got, want):
            mismatches += 1
    assert mismatches == 0


def test_differential_boolean_expressions():
    rng = random.Random(814)
    for _ in range(400):
        expr = _gen_boolean(rng, rng.randrange(1, 4))
        inputs = _random_inputs(rng)
        output = Prediction(rng.choice(["pedestrian", "not_pedestrian"]), 0.5)
        try:
            want = bool(_oracle(expr, inputs, output))
        except ZeroDivisionError:
            # both evaluators walk left-to-right, so both must fail here
            with pytest.raises(EvalError, match="division by zero"):
                evaluate(expr, inputs, output)
            continue
        assert evaluate(expr, inputs, output) is want, (expr, inputs)


# ---------------------------------------------------------------------------
# The compiled evaluator against the reference tree walk.

_NUMBER_OPS = ["+", "-", "*", "/"]
_COMPARE_OPS = ["<", "<=", ">", ">=", "==", "!="]
_LABELS = ["pedestrian", "cyclist"]

_numbers = st.sampled_from([0, 1, -2, 0.5, 0.1, 0.2, 0.3, 2.5, 3.0]).map(Num)
_grid_refs = st.builds(InputRef, st.just("img"), st.integers(0, 1), st.integers(0, 1))


def _typed_number(children):
    return st.one_of(
        st.builds(Unary, st.just("-"), children),
        st.builds(Binary, st.sampled_from(_NUMBER_OPS), children, children),
        st.builds(Call, st.just("abs"), st.tuples(children)),
        st.builds(
            Call,
            st.sampled_from(["min", "max"]),
            st.lists(children, min_size=2, max_size=3).map(tuple),
        ),
        st.builds(
            Call, st.sampled_from(["len", "rows", "cols", "sum"]), st.just((InputRef("img"),))
        ),
        st.builds(Call, st.just("len"), st.tuples(st.just(InputRef("zone")))),
    )


_typed_numbers = st.recursive(
    st.one_of(
        _numbers,
        st.sampled_from([InputRef("height"), InputRef("count"), OutputRef("confidence")]),
        _grid_refs,
    ),
    _typed_number,
    max_leaves=6,
)
_strings = st.one_of(
    st.sampled_from(_LABELS + [""]).map(Str),
    st.sampled_from([InputRef("zone"), OutputRef("label")]),
)


def _typed_boolean(children):
    return st.one_of(
        st.builds(Unary, st.just("!"), children),
        st.builds(Binary, st.sampled_from(["&&", "||"]), children, children),
        st.builds(Binary, st.sampled_from(["==", "!="]), children, children),
    )


_typed_booleans = st.recursive(
    st.one_of(
        st.booleans().map(Bool),
        st.just(InputRef("flag")),
        st.builds(Binary, st.sampled_from(_COMPARE_OPS), _typed_numbers, _typed_numbers),
        st.builds(Binary, st.sampled_from(["==", "!="]), _strings, _strings),
    ),
    _typed_boolean,
    max_leaves=4,
)


def _any_node(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["-", "!", "~"]), children),
        st.builds(
            Binary,
            st.sampled_from(_NUMBER_OPS + _COMPARE_OPS + ["&&", "||", "%"]),
            children,
            children,
        ),
        st.builds(
            Call,
            st.sampled_from(sorted(BUILTINS) + ["nope"]),
            st.lists(children, max_size=3).map(tuple),
        ),
    )


# Anything goes: wrong operand types, unknown operators and functions, wrong
# arities, missing fields, bad grid indices, and values that are not nodes.
_untyped = st.recursive(
    st.one_of(
        _numbers,
        _strings,
        st.booleans().map(Bool),
        st.sampled_from(["height", "count", "flag", "zone", "img", "absent"]).map(InputRef),
        st.builds(
            InputRef, st.sampled_from(["img", "height"]), st.integers(-1, 2), st.integers(-1, 2)
        ),
        st.just(OutputRef("confidence")),
        st.just(Num(10**400)),  # not representable as a float
        st.sampled_from([5, None]),
        _typed_numbers,
    ),
    _any_node,
    max_leaves=8,
)

_cells = st.one_of(st.integers(-2, 3), st.floats(-3, 3, allow_nan=False))
_typed_inputs = st.fixed_dictionaries(
    {
        "height": st.one_of(st.floats(-3, 3, allow_nan=False), st.just(0.0)),
        "count": st.integers(-2, 3),
        "flag": st.booleans(),
        "zone": st.sampled_from(["", "lane", "walkway"]),
        "img": st.lists(st.lists(_cells, min_size=2, max_size=2), min_size=2, max_size=2),
    }
)
_any_value = st.one_of(
    _cells,
    st.booleans(),
    st.sampled_from(["", "lane"]),
    st.lists(st.lists(_cells, max_size=2), max_size=2),
    st.lists(_cells, max_size=2),
)
_any_inputs = st.dictionaries(
    st.sampled_from(["height", "count", "flag", "zone", "img"]), _any_value
)
_outputs = st.one_of(
    st.none(),
    st.builds(Prediction, st.sampled_from(_LABELS), st.one_of(st.none(), st.floats(0, 1))),
)


def _outcome(evaluator, expr, inputs, output):
    try:
        value = evaluator(expr, inputs, output)
    except Exception as exc:  # the property compares failures too
        return ("raises", type(exc), str(exc))
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    return ("value", type(value), value)


def _assert_same_as_tree_walk(expr, inputs, output):
    assert _outcome(evaluate, expr, inputs, output) == _outcome(
        tree_walk.evaluate, expr, inputs, output
    )
    assert _outcome(evaluate_condition, expr, inputs, output) == _outcome(
        tree_walk.evaluate_condition, expr, inputs, output
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(_typed_booleans, _typed_numbers), _typed_inputs, _outputs)
def test_compiled_matches_tree_walk_on_well_typed_expressions(expr, inputs, output):
    _assert_same_as_tree_walk(expr, inputs, output)


@settings(max_examples=300, deadline=None)
@given(_untyped, st.one_of(_typed_inputs, _any_inputs), _outputs)
def test_compiled_matches_tree_walk_on_ill_typed_expressions(expr, inputs, output):
    _assert_same_as_tree_walk(expr, inputs, output)


@pytest.mark.parametrize(
    "expr",
    [
        parse("false && 1 / input.x > 0"),
        parse("true || 1 / input.x > 0"),
        parse("true && 1 / input.x > 0"),
        parse("false || input.absent > 0"),
        parse("!(false && nope(1))"),
        parse("max(input.x, input.img[1][0]) < 6 && len(input.zone) > 0"),
        parse("sum(input.img) == 4 || rows(input.img) != cols(input.img)"),
        parse("input.x * 0.1 + 0.2 == 0.3"),
        Binary("%", Num(1), Str("a")),
        Binary("%", Num(1), InputRef("x")),
        Call("abs", ()),
        Call("max", ()),
        Binary("&&", Bool(False), 5),
        Binary("&&", Bool(False), Binary(">", InputRef("x"), Num(10**400))),
        Binary(">", InputRef("absent"), Num(10**400)),
        Binary(">", InputRef("x"), Num(10**400)),
    ],
    ids=repr,
)
@pytest.mark.parametrize("output", [None, PED])
def test_short_circuit_grid_and_call_examples_match_tree_walk(expr, output):
    inputs = {"x": 1, "img": [[1, 2], [0.5, 0.5]], "zone": "lane"}
    _assert_same_as_tree_walk(expr, inputs, output)


def test_memoised_node_equals_and_hashes_like_a_fresh_parse():
    source = "input.height > 1.2 && max(input.width, input.height) < 6"
    used = parse(source)
    assert evaluate_condition(used, {"height": 1.5, "width": 0.5}) is True
    assert to_source(used) is to_source(used) == source
    fresh = parse(source)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    object.__setattr__(used, "_other_memo", lambda: None)  # lambdas do not pickle
    assert pickle.loads(pickle.dumps(used)) == fresh


# ---------------------------------------------------------------------------
# Chains far longer than a recursive evaluator could walk. Their expected
# values come from loops, since tree_walk.py recurses.

LONG = 10_000
_MISSING = Binary(">", InputRef("absent"), Num(0.0))  # raises EvalError when reached


def _left_chain(op, terms):
    expr = terms[0]
    for term in terms[1:]:
        expr = Binary(op, expr, term)
    return expr


def _assert_evaluates_to(expr, inputs, want):
    assert evaluate(expr, inputs) == want
    if isinstance(want, bool):
        assert evaluate_condition(expr, inputs) is want


@pytest.mark.parametrize("stop", [None, 0, 6_999, LONG - 1])
def test_a_long_and_chain_short_circuits_where_a_loop_would(stop):
    inputs = {"x": 1.5}
    terms = [Binary("<", InputRef("x"), Num(float(i + 2))) for i in range(LONG)]
    if stop is not None:
        terms[stop] = Binary(">", InputRef("x"), Num(2.0))  # false
        terms[stop + 1 :] = [_MISSING] * (LONG - stop - 1)
    _assert_evaluates_to(_left_chain("&&", terms), inputs, stop is None)
    terms[-1] = _MISSING
    if stop is None:
        with pytest.raises(EvalError, match="no field 'absent'"):
            evaluate_condition(_left_chain("&&", terms), inputs)


@pytest.mark.parametrize("stop", [None, 0, 6_999, LONG - 1])
def test_a_long_or_chain_short_circuits_where_a_loop_would(stop):
    inputs = {"x": 1.5}
    terms = [Binary(">", InputRef("x"), Num(float(i + 2))) for i in range(LONG)]
    if stop is not None:
        terms[stop] = Binary("<", InputRef("x"), Num(2.0))  # true
        terms[stop + 1 :] = [_MISSING] * (LONG - stop - 1)
    _assert_evaluates_to(_left_chain("||", terms), inputs, stop is not None)


def test_a_long_sum_adds_left_to_right_as_a_loop_does():
    inputs = {"x": 0.1, "n": 3}
    terms = [[InputRef("x"), InputRef("n"), Num(i * 0.37)][i % 3] for i in range(LONG)]
    values = [[0.1, 3.0, i * 0.37][i % 3] for i in range(LONG)]
    total = values[0]
    for value in values[1:]:
        total = total + value
    _assert_evaluates_to(_left_chain("+", terms), inputs, total)
    chain = Binary("<", _left_chain("+", terms), Num(total + 1.0))
    _assert_evaluates_to(chain, inputs, True)


@pytest.mark.parametrize("stop", [None, "decides", "raises"])
@pytest.mark.parametrize("seed", range(2))
def test_a_deep_right_nested_and_or_mix_matches_a_loop(stop, seed):
    rng = random.Random(seed)
    depth = 1_000
    ops = [rng.choice(["&&", "||"]) for _ in range(depth - 1)]
    inputs = {"flag": rng.random() < 0.5}
    # Each atom lets evaluation go on (true under &&, false under ||) but
    # the one at 900 when stop says so; the last one is the value then.
    goes_on = [Bool(op == "&&") for op in ops]
    atoms = [
        InputRef("flag") if inputs["flag"] is atom.value and rng.random() < 0.5 else atom
        for atom in goes_on
    ]
    atoms.append(Bool(rng.random() < 0.5))
    if stop is not None:
        atoms[900] = Bool(ops[900] == "||") if stop == "decides" else _MISSING
    expr = atoms[-1]
    for atom, op in zip(reversed(atoms[:-1]), reversed(ops)):
        expr = Binary(op, atom, expr)
    # a0 op0 (a1 op1 (...)): settled by the first atom whose value decides
    # its operator, reading left to right; a reached _MISSING raises.
    want = None
    for i, atom in enumerate(atoms):
        if atom is _MISSING:
            want = EvalError
            break
        value = inputs["flag"] if isinstance(atom, InputRef) else atom.value
        if i == depth - 1 or value is (ops[i] == "||"):
            want = value
            break
    if want is EvalError:
        with pytest.raises(EvalError, match="no field 'absent'"):
            evaluate(expr, inputs)
        with pytest.raises(EvalError, match="no field 'absent'"):
            evaluate_condition(expr, inputs)
    else:
        _assert_evaluates_to(expr, inputs, want)


def test_deep_unary_chains_compile_and_evaluate():
    negated, minus = Binary(">", InputRef("x"), Num(0.0)), InputRef("x")
    for _ in range(1_001):
        negated, minus = Unary("!", negated), Unary("-", minus)
    assert evaluate_condition(negated, {"x": 1}) is False
    assert evaluate(minus, {"x": 1}) == -1.0
