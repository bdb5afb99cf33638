"""Expression grammar: tokenizer, parser, evaluator, Lipschitz sampling."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbvp import DomainError, evaluate, expr, lipschitz_estimate, parse
from fracbvp.errors import EvaluationError, ParseError, UnknownIdentifierError
from fracbvp.expr import Expr, to_source

from conftest import oracle_evaluate


# builders that join steps: a literal, a variable, an operation on operands
def num(x):
    return Expr([("num", x)])


def var(name):
    return Expr([("var", name)])


def op(key, *operands):
    return Expr([*(step for x in operands for step in x), (key, len(operands))])


# round-trip corpus: every production, every function, assorted shapes
EXPRESSION_CORPUS = (
    "0",
    "1",
    "42",
    "3.25",
    "0.5",
    ".5",
    "5.",
    "1e3",
    "2.5e-2",
    "1.25E+2",
    "pi",
    "t",
    "u",
    "v",
    "-t",
    "--u",
    "-(t+u)",
    "t+u",
    "t-u",
    "t*v",
    "t/u",
    "t^u",
    "2+3*4",
    "(2+3)*4",
    "2^3^2",
    "-2^2",
    "2^-1",
    "2-3-4",
    "12/4/3",
    "1+2-3+4-5",
    "t*u/v*2",
    "sin(t)",
    "cos(pi*t)",
    "exp(2*t)",
    "ln(1+t)",
    "sqrt(abs(t-u))",
    "abs(-5)",
    "sin(cos(exp(t)))",
    "sin(t)^2",
    "sin(t^2)",
    "exp(t)+3*exp(2*t)",
    "1/(1+u^2)",
    "(t+u)*(t-u)",
    "((((t))))",
    "3+t+5*u+v",
    "sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)",
    "u*v-v*u",
    "2*pi*sqrt(t+1)",
    "-sin(-t)",
    "t^2^-1",
)


def test_corpus_has_fifty_entries():
    assert len(EXPRESSION_CORPUS) == 50
    assert len(set(EXPRESSION_CORPUS)) == 50


def test_corpus_round_trip():
    for src in EXPRESSION_CORPUS:
        tree = parse(src)
        again = parse(to_source(tree))
        assert again == tree, src


def test_corpus_round_trip_values():
    t, u, v = 0.3, -0.7, 1.9
    for src in EXPRESSION_CORPUS:
        tree = parse(src)
        try:
            want = evaluate(tree, t, u, v)
        except EvaluationError:
            continue  # domain-limited entries, fine either way
        got = evaluate(parse(to_source(tree)), t, u, v)
        assert got == want, src


def test_precedence_and_associativity():
    cases = (
        ("2+3*4", 14.0),
        ("2^3^2", 512.0),
        ("-2^2", -4.0),
        ("2*3^2", 18.0),
        ("(2+3)*4", 20.0),
        ("2-3-4", -5.0),
        ("12/4/3", 1.0),
        ("2^-1", 0.5),
        ("2^2^-1", math.sqrt(2.0)),
    )
    for src, want in cases:
        assert evaluate(parse(src), 0.0, 0.0, 0.0) == pytest.approx(want, abs=1e-15), src


def test_variables_and_whitespace():
    assert evaluate(parse("3+t+5*u+v"), 1.0, 2.0, 3.0) == 17.0
    assert evaluate(parse("  3 + t\t+ 5 *u+ v "), 1.0, 2.0, 3.0) == 17.0
    assert evaluate(parse("- t ^ 2"), 3.0, 0.0, 0.0) == -9.0


def test_number_forms():
    assert evaluate(parse("1e3"), 0, 0, 0) == 1000.0
    assert evaluate(parse("2.5e-2"), 0, 0, 0) == 0.025
    assert evaluate(parse(".5"), 0, 0, 0) == 0.5
    assert evaluate(parse("5."), 0, 0, 0) == 5.0


def test_pi_constant():
    assert evaluate(parse("cos(pi)"), 0, 0, 0) == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(ParseError):
        parse("pi(2)")


def test_function_values():
    assert evaluate(parse("sin(t)"), 0.4, 0, 0) == pytest.approx(math.sin(0.4))
    assert evaluate(parse("cos(t)"), 0.4, 0, 0) == pytest.approx(math.cos(0.4))
    assert evaluate(parse("exp(t)"), 0.4, 0, 0) == pytest.approx(math.exp(0.4))
    assert evaluate(parse("ln(t)"), 0.4, 0, 0) == pytest.approx(math.log(0.4))
    assert evaluate(parse("sqrt(t)"), 0.4, 0, 0) == pytest.approx(math.sqrt(0.4))
    assert evaluate(parse("abs(0-t)"), 0.4, 0, 0) == pytest.approx(0.4)


def test_parse_error_offsets():
    cases = (
        ("3+*t", 3),
        ("2**3", 3),
        ("2 $ 3", 3),
        ("(1+2", 5),
        ("", 1),
        ("1e400", 1),
        ("sin(t+1e999)", 7),
        ("u+é", 3),  # offsets count characters; the byte offset would be 4
        ("u+²", 3),  # a literal's digits are ASCII 0-9 only
        ("٣", 1),
        (".5.3", 3),  # a literal has one fraction: ".5" then ".3"
    )
    for src, offset in cases:
        with pytest.raises(ParseError) as info:
            parse(src)
        assert info.value.offset == offset, src
        assert info.value.expected  # never empty


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", ""), ("u^", "")])
def test_nesting_deeper_than_the_limit_is_a_parse_error(opening, closing):
    # each "(", function argument, "-" and "^" opens one level of nesting;
    # the deepest one allowed parses within Python's recursion limit
    deep = opening * expr.MAX_DEPTH + "u" + closing * expr.MAX_DEPTH
    parse(deep)
    with pytest.raises(ParseError) as info:
        parse(opening + deep + closing)
    offset = len(opening) * (expr.MAX_DEPTH + 1) + 1  # the first token one level too deep
    message = f"expression nests too deeply at offset {offset}"
    assert (str(info.value), info.value.offset, info.value.expected) == (message, offset, ())


def test_a_function_name_needs_its_parenthesis():
    with pytest.raises(ParseError) as info:
        parse("sin t")
    assert (info.value.offset, info.value.expected) == (5, ("'('",))


def test_a_source_that_is_not_a_string_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse(3)
    assert (str(info.value), info.value.offset) == ("expression source must be a string", 1)


def test_unknown_identifier_offsets():
    with pytest.raises(UnknownIdentifierError) as info:
        parse("sin(w)")
    assert info.value.offset == 5
    with pytest.raises(UnknownIdentifierError) as info:
        parse("foo")
    assert info.value.offset == 1


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("t)")


EVALUATION_ERRORS = (
    ("1/t", 0.0, "division by zero"),
    ("ln(t)", 0.0, "ln of a non-positive value"),
    ("ln(0-1)", 1.0, "ln of a non-positive value"),
    ("sqrt(0-1)", 1.0, "sqrt of a negative value"),
    ("(0-2)^0.5", 1.0, "fractional power of a negative base"),
    ("0^-1", 1.0, "zero raised to a negative power"),
    ("10^400", 1.0, "overflow in power"),
    ("exp(800)", 1.0, "overflow in exp"),
    ("exp(exp(exp(exp(t))))", 1.0, "overflow in exp"),
    ("1e300*1e300", 1.0, "non-finite result from '*'"),
    ("1e308+1e308", 1.0, "non-finite result from '+'"),
    ("0-1e308-1e308", 1.0, "non-finite result from '-'"),
    ("0/t", 0.0, "division by zero"),
    ("(-t)^-1", 0.0, "zero raised to a negative power"),
    ("1e300/1e-300", 1.0, "non-finite result from '/'"),
    # with finite operands a power fails an earlier check; inf*0 raises the
    # invalid flag
    ("t^2*0", math.inf, "non-finite result from '^'"),
    # both operands fail at t = 0: the first in evaluation order wins
    ("1/t+ln(t)", 0.0, "division by zero"),
    ("ln(t)+1/t", 0.0, "ln of a non-positive value"),
)


def test_evaluation_errors():
    for src, t, message in EVALUATION_ERRORS:
        tree = parse(src)
        for call in (evaluate, oracle_evaluate):
            with pytest.raises(EvaluationError) as info:
                call(tree, t, 0.0, 0.0)
            assert str(info.value) == message, src
        # an array call names the first point where a scalar call fails
        ts = np.array([0.5, 0.5, t, t])
        first = next(
            j for j, tj in enumerate(ts) if _outcome(lambda: oracle_evaluate(tree, tj, 0, 0))[1]
        )
        with pytest.raises(EvaluationError) as info:
            evaluate(tree, ts, np.zeros(4), np.zeros(4))
        assert (str(info.value), info.value.index) == (message, first), src


def test_every_table_check_fails_a_corpus_entry():
    # each (mask, message) check of each expr._OPS row is the first failure
    # of some EVALUATION_ERRORS entry, in a float call and in an array call
    messages = [message for row in expr._OPS.values() for _, message in row.checks]
    assert len(messages) == len(set(messages)) == 12
    for message in messages:
        src, t = next((src, t) for src, t, want in EVALUATION_ERRORS if want == message)
        tree = parse(src)
        with pytest.raises(EvaluationError) as info:
            evaluate(tree, t, 0.0, 0.0)
        assert str(info.value) == message, src
        ts = np.array([0.5, 0.5, t, t])
        first = next(j for j, tj in enumerate(ts) if _outcome(lambda: evaluate(tree, tj, 0, 0))[1])
        with pytest.raises(EvaluationError) as info:
            evaluate(tree, ts, np.zeros(4), np.zeros(4))
        assert (str(info.value), info.value.index) == (message, first), src


def test_grammar_doc_lists_the_table():
    path = Path(__file__).resolve().parents[1] / "docs" / "expression-grammar.md"
    doc = path.read_text(encoding="utf-8")
    (functions,) = [line for line in doc.splitlines() if line.startswith("- `FUNCTION` is one of")]
    assert tuple(re.findall(r"`(\w+)`", functions.split("one of")[1])) == expr.FUNCTIONS
    evaluation = doc.split("## Evaluation")[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", evaluation, flags=re.M)
    documented = {
        {"-x": "neg"}.get(op, op): re.findall(r"`([^`]+)`", checks) for op, checks in rows
    }
    assert documented == {op: [msg for _, msg in row.checks] for op, row in expr._OPS.items()}


def test_example_rhs_zero_at_origin():
    tree = parse("sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)")
    assert evaluate(tree, 0.0, 0.0, 0.0) == 0.0


def test_tree_shapes():
    tree = parse("-2^2")
    assert tree == op("neg", op("^", num(2.0), num(2.0)))
    assert tree == (("num", 2.0), ("num", 2.0), ("^", 2), ("neg", 1))
    tree = parse("2^3^2")
    assert tree == op("^", num(2.0), op("^", num(3.0), num(2.0)))
    assert parse("sin(t)") == op("sin", var("t"))


# steps that are not a program leaving one value, and the refusal of each
MALFORMED_STEPS = (
    ([], "steps leave 0 values, not one"),
    ([("var", "u"), ("var", "v")], "steps leave 2 values, not one"),
    ([("+", 2)], "step ('+', 2) has too few operands"),
    # a stack underflow that still leaves one value at the end
    ([("var", "u"), ("+", 2), ("var", "v")], "step ('+', 2) has too few operands"),
    ([("var", "u"), ("zz", 1)], "not an expression step: ('zz', 1)"),
    ([("var", "u"), ("sin", 2)], "not an expression step: ('sin', 2)"),
    ([("var", "u"), ("var", "v"), ("+", 1)], "not an expression step: ('+', 1)"),
    ([("var", "u"), ("neg", True)], "not an expression step: ('neg', True)"),
    ([("var", "w")], "not an expression step: ('var', 'w')"),
    ([("num", 1)], "not an expression step: ('num', 1)"),
    ([("num", True)], "not an expression step: ('num', True)"),
    ([("num", np.float64(1.0))], "not an expression step: ('num', np.float64(1.0))"),
    ([("num", "1.0")], "not an expression step: ('num', '1.0')"),
    (["u"], "not an expression step: 'u'"),
    ([("var",)], "not an expression step: ('var',)"),
    ([("var", "u", 0)], "not an expression step: ('var', 'u', 0)"),
    ([["var", "u"]], "not an expression step: ['var', 'u']"),
)


def test_expr_accepts_only_a_program_of_finite_literals():
    for steps, message in MALFORMED_STEPS:
        with pytest.raises(TypeError) as info:
            Expr(steps)
        assert str(info.value) == message, steps
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError) as info:
            op("+", var("u"), num(value))
        assert str(info.value) == f"literal {value!r} is not finite and has no source"


def test_a_non_node_is_a_type_error():
    # evaluate and to_source take an Expr, not its steps in another container
    steps = list(parse("u+1"))
    for bad in ("u", 1.0, steps, tuple(steps)):
        with pytest.raises(TypeError) as info:
            evaluate(bad, 0.0, 0.0, 0.0)
        assert str(info.value) == f"not an expression: {bad!r}"
        with pytest.raises(TypeError) as info:
            to_source(bad)
        assert str(info.value) == f"not an expression: {bad!r}"


def test_to_source_prints_literals_it_can_read_back():
    # a hand-built negative literal keeps its value as a negation
    square = op("^", num(-1.0), num(2.0))
    assert to_source(square) == "((-1.0) ^ 2.0)"
    assert evaluate(parse(to_source(square)), 0, 0, 0) == evaluate(square, 0, 0, 0) == 1.0
    assert to_source(num(-0.0)) == "(-0.0)"


def test_to_source_is_stable():
    for src in EXPRESSION_CORPUS:
        once = to_source(parse(src))
        assert to_source(parse(once)) == once


def _arity(key):
    return expr._OPS[key].fmt.count("{}")


def test_parsed_nodes_have_their_operations_arity():
    # every parsed expression passes Expr's check: each operation has its arity
    for src in EXPRESSION_CORPUS:
        tree = parse(src)
        assert Expr(tree) == tree, src
        for key, payload in tree:
            if key in expr._OPS:
                assert payload == _arity(key), (src, key)


# leaves print as themselves; a negative literal would print as a negation
TREES = st.recursive(
    st.sampled_from(expr.VARIABLES).map(var)
    | st.floats(min_value=0.0, allow_infinity=False).map(num),
    lambda operand: st.sampled_from(sorted(expr._OPS)).flatmap(
        lambda key: st.tuples(*[operand] * _arity(key)).map(lambda args: op(key, *args))
    ),
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_random_trees_round_trip(tree):
    assert parse(to_source(tree)) == tree


def test_a_sum_of_any_length_evaluates_and_prints():
    # the parser builds a sum with a loop; as a tree it is as deep as it is long
    tree = parse("+".join(["u"] * 5000))
    assert to_source(tree) == "(" * 4999 + "u" + " + u)" * 4999
    chain = Expr([("var", "u")] + [("var", "u"), ("+", 2)] * 4999)
    assert tree == chain and hash(tree) == hash(chain)
    assert tree != Expr([*chain[:-2], ("var", "v"), ("+", 2)])
    assert evaluate(tree, 0.0, 1.0, 0.0) == 5000.0
    with pytest.raises(EvaluationError) as info:
        evaluate(tree, np.zeros(3), np.array([0.0, 1.0, math.inf]), np.zeros(3))
    assert (str(info.value), info.value.index) == ("non-finite result from '+'", 2)


def test_lipschitz_estimate_linear_state_terms():
    assert abs(lipschitz_estimate(parse("3*u+0.5*v")) - 3.0) <= 1e-6
    assert lipschitz_estimate(parse("sin(t)")) <= 1e-12
    assert abs(lipschitz_estimate(parse("u")) - 1.0) <= 1e-9


# entries that reach each domain check and the overflow checks from
# points in [-10, 10]
DOMAIN_EXPRESSIONS = (
    "exp(80*u)",
    "10^(40*t)",
    "ln(t*u)",
    "sqrt(v)",
    "u^(t/2)",
    "t^(0-abs(u))",
    "1/(t-u)",
    "1/t+ln(u)",
    "ln(u)+1/t",
)

POINT = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, -1e-300)),
    st.floats(-10.0, 10.0),
)


def _outcome(call):
    try:
        return call(), None
    except EvaluationError as exc:
        return None, exc


def _subexpression(e, end):
    """The sub-expression whose last step is e[end - 1]: the shortest run of
    steps ending there that leaves one value."""
    start, need = end, 1
    while need:
        start -= 1
        key, payload = e[start]
        need += (0 if key in ("num", "var") else payload) - 1
    return Expr(e[start:end])


def _nodes(e):
    """Every sub-expression, one per step."""
    return [_subexpression(e, end) for end in range(1, len(e) + 1)]


def _operands(e):
    """The operands of the last step, left to right."""
    key, payload = e[-1]
    out, end = [], len(e) - 1
    for _ in range(0 if key in ("num", "var") else payload):
        out.insert(0, _subexpression(e, end))
        end -= len(out[0])
    return out


def _with_operands(e, values):
    """The last step with its operands replaced by literals; a leaf as is."""
    return Expr([*(("num", x) for x in values), e[-1]])


def _assert_nodes_match_oracle(tree, t, u, v):
    # Node by node, so that an ill-conditioned composition cannot amplify
    # the ulp-level differences between numpy and the math module: each
    # node's array value must match the oracle applied to that node with the
    # evaluator's own operand values.
    for node in _nodes(tree):
        operands = [evaluate(x, t, u, v) for x in _operands(node)]
        want = [
            oracle_evaluate(_with_operands(node, [float(x[j]) for x in operands]), t[j], u[j], v[j])
            for j in range(len(t))
        ]
        got = evaluate(node, t, u, v)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300), (to_source(tree), to_source(node))


def _first_failure(tree, t, u, v, fn):
    """Values of fn at every point, or the lowest failing index and its error."""
    values = []
    for j in range(len(t)):
        val, exc = _outcome(lambda: fn(tree, float(t[j]), float(u[j]), float(v[j])))
        if exc is not None:
            return None, (j, type(exc), str(exc))
        values.append(val)
    return np.array(values), None


@settings(max_examples=300, deadline=None)
@given(src=st.sampled_from(EXPRESSION_CORPUS + DOMAIN_EXPRESSIONS), data=st.data())
def test_array_evaluate_matches_scalar_calls_and_oracle(src, data):
    size = data.draw(st.integers(1, 12))
    t, u, v = (
        np.array(data.draw(st.lists(POINT, min_size=size, max_size=size)))
        for _ in range(3)
    )
    tree = parse(src)
    got, exc = _outcome(lambda: evaluate(tree, t, u, v))
    scalar, scalar_fail = _first_failure(tree, t, u, v, evaluate)
    _, oracle_fail = _first_failure(tree, t, u, v, oracle_evaluate)
    if exc is None:
        assert scalar_fail is None and oracle_fail is None, src
        assert got.shape == t.shape
        assert got.tobytes() == scalar.tobytes(), src  # bit for bit
        _assert_nodes_match_oracle(tree, t, u, v)
    else:
        assert (exc.index, type(exc), str(exc)) == scalar_fail == oracle_fail, src


@pytest.mark.parametrize(
    "src, want",
    [("(0-2)^3", -8.0), ("(0-2)^2", 4.0), ("0^0", 1.0), ("2^-1", 0.5)],
)
def test_power_values(src, want):
    tree = parse(src)
    assert evaluate(tree, 0.0, 0.0, 0.0) == want == oracle_evaluate(tree, 0.0, 0.0, 0.0)
    assert evaluate(tree, np.zeros(3), np.zeros(3), np.zeros(3)).tolist() == [want] * 3


# square bases: both signs, zeros, subnormals and the overflow edge at
# sqrt(DBL_MAX) ~ 1.34e154
_ROOT_MAX = math.sqrt(np.finfo(float).max)
SQUARE_BASE = st.one_of(
    st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, _ROOT_MAX, -_ROOT_MAX)
        + (math.nextafter(_ROOT_MAX, math.inf), math.nextafter(-_ROOT_MAX, -math.inf))
    ),
    st.floats(-2e154, 2e154),
    st.floats(-1e-300, 1e-300),
    st.floats(1.3e154, 1.4e154) | st.floats(-1.4e154, -1.3e154),
)
# source -> the subtree it squares, from t and u
SQUARES = {
    "u^2": lambda t, u: u,
    "(u-t)^2": lambda t, u: u - t,
    "sin(t)^2": lambda t, u: np.sin(t),
    "u^(t-t+2)": lambda t, u: u,  # its exponent evaluates to 2 everywhere
}


@settings(max_examples=300, deadline=None)
@given(src=st.sampled_from(sorted(SQUARES)), data=st.data())
def test_squares_are_the_base_times_itself(src, data):
    size = data.draw(st.integers(1, 12))
    t, u = (
        np.array(data.draw(st.lists(SQUARE_BASE, min_size=size, max_size=size)))
        for _ in range(2)
    )
    v = np.zeros(size)
    base = SQUARES[src](t, u)
    with np.errstate(all="ignore"):
        want = base * base
        overflow = np.flatnonzero(np.isinf(np.power(base, 2.0)))
    tree = parse(src)
    got, exc = _outcome(lambda: evaluate(tree, t, u, v))
    if overflow.size:
        # numpy's power loop overflows at the same points as the product
        assert np.array_equal(overflow, np.flatnonzero(np.isinf(want))), src
        assert exc is not None and (str(exc), exc.index) == ("overflow in power", overflow[0]), src
        assert _first_failure(tree, t, u, v, evaluate)[1] == (
            overflow[0],
            EvaluationError,
            "overflow in power",
        ), src
    else:
        assert exc is None, src
        assert got.tobytes() == want.tobytes(), src  # bit for bit
        assert _first_failure(tree, t, u, v, evaluate)[0].tobytes() == want.tobytes(), src


def test_power_with_some_exponents_two_uses_numpys_power(monkeypatch):
    calls = []
    power = np.power
    monkeypatch.setattr(np, "power", lambda a, b: calls.append(1) or power(a, b))
    t, u = np.array([0.3, 1.7, 2.5, 0.9]), np.array([2.0, 3.0, 2.0, 0.5])
    got = evaluate(parse("t^u"), t, u, u)
    assert len(calls) == 1
    assert got.tobytes() == np.power(t, u).tobytes()


def test_square_of_a_negation_is_the_square():
    x = np.array([-3.5, -0.0, 0.0, 1e-160, -7.25e153, 2.5e-310, 0.1, -1.0 / 3.0])
    z = np.zeros_like(x)
    neg = evaluate(parse("(-u)^2"), z, x, z)
    assert neg.tobytes() == evaluate(parse("u^2"), z, x, z).tobytes() == (x * x).tobytes()


def test_evaluate_scalar_returns_float_and_arrays_keep_shape():
    tree = parse("t*u+v")
    assert type(evaluate(tree, 1.0, 2.0, 3.0)) is float
    t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    out = evaluate(tree, t, t, t)
    assert out.shape == (2, 3)
    assert evaluate(parse("2"), t, t, t).tolist() == [[2.0] * 3] * 2


def test_evaluate_rejects_inputs_of_different_shapes():
    # a float with arrays, or arrays of two shapes, would broadcast
    tree = parse("u^t")
    one, row = np.ones(3), np.ones((1, 3))
    for t, u, v, shapes in (
        (0.5, one, one, "(), (3,), (3,)"),
        (one, one, row, "(3,), (3,), (1, 3)"),
        (one, np.ones(6).reshape(2, 3), one, "(3,), (2, 3), (3,)"),
    ):
        with pytest.raises(DomainError) as info:
            evaluate(tree, t, u, v)
        assert str(info.value) == f"t, u and v must be floats or arrays of one shape, got {shapes}"
    # numpy scalars and 0-d arrays are floats
    assert evaluate(tree, np.float64(0.5), np.array(4.0), 1) == 2.0


def test_evaluate_result_does_not_alias_inputs():
    u = np.arange(4.0)
    out = evaluate(parse("u"), np.zeros(4), u, np.zeros(4))
    out[0] = 7.0
    assert u[0] == 0.0


def test_lipschitz_estimate_reports_first_failure_in_loop_order():
    # sqrt(5-u) first fails at t=0, u=5, probe u+du; ln(1-t) fails only at
    # t=1, later in the (t, u, v, probe) order although earlier in the tree
    with pytest.raises(EvaluationError) as info:
        lipschitz_estimate(parse("ln(1-t)+sqrt(5-u)"))
    assert str(info.value) == (
        "right-hand side failed on the sampled state lattice at "
        "(t, u, v) = (0, 5.000006, -10): sqrt of a negative value"
    )
    with pytest.raises(EvaluationError) as info:
        lipschitz_estimate(parse("ln(t)+sqrt(5-u)"))
    assert str(info.value) == (
        "right-hand side failed on the sampled state lattice at "
        "(t, u, v) = (0, -9.999989, -10): ln of a non-positive value"
    )


def _oracle_lipschitz(tree, t_samples=65, bound=10.0):
    # the scalar (t, u, v) loop on the oracle walk
    lattice = [-bound, -0.5 * bound, 0.0, 0.5 * bound, bound]
    best = 0.0
    for i in range(t_samples):
        t = i / (t_samples - 1)
        for u in lattice:
            du = 1e-6 * (1.0 + abs(u))
            for v in lattice:
                dv = 1e-6 * (1.0 + abs(v))
                fu = oracle_evaluate(tree, t, u + du, v) - oracle_evaluate(tree, t, u - du, v)
                fv = oracle_evaluate(tree, t, u, v + dv) - oracle_evaluate(tree, t, u, v - dv)
                best = max(best, abs(fu / (2 * du)), abs(fv / (2 * dv)))
    return best


@pytest.mark.parametrize(
    "src",
    ["sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)", "sin(u)*cos(v)", "u*v/(1+u^2)"],
)
def test_lipschitz_estimate_matches_scalar_loop(src):
    # a 1-ulp change in f moves a central difference by ~eps*|f|/2e-6
    tree = parse(src)
    assert lipschitz_estimate(tree) == pytest.approx(_oracle_lipschitz(tree), rel=1e-8)


@pytest.mark.parametrize(
    "src, t, u, message, index",
    [
        # 1/(t+1) is 0 at t = inf and raises no floating-point flag
        ("1/(t+1)", [0.5, math.inf], [0.0, 0.0], "non-finite result from '+'", 1),
        ("exp(0-t)", [math.inf], [0.0], "non-finite result from '-'", 0),
        ("u*0", [0.5], [math.inf], "non-finite result from '*'", 0),
    ],
)
def test_non_finite_inputs_raise_at_the_first_non_finite_result(src, t, u, message, index):
    with pytest.raises(EvaluationError) as info:
        evaluate(parse(src), np.array(t), np.array(u), np.zeros(len(t)))
    assert (str(info.value), info.value.index) == (message, index)


def test_non_finite_inputs_pass_through_unary_nodes():
    t = np.array([math.inf, math.nan])
    assert np.isnan(evaluate(parse("sin(t)"), t, np.zeros(2), np.zeros(2))).all()
    assert evaluate(parse("t"), math.inf, 0.0, 0.0) == math.inf


def test_every_evaluation_error_raises_a_floating_point_flag():
    # with finite inputs each failing check shows up as an IEEE exception
    # flag, so the unmasked run never returns where the masked run fails
    for src, t, _ in EVALUATION_ERRORS:
        env = {name: np.array([t if name == "t" else 0.0]) for name in "tuv"}
        with np.errstate(**expr._FLAGS), pytest.raises(FloatingPointError):
            expr._run(parse(src), env, None)

