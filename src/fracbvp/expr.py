"""Closed-world expression language for right-hand sides f(t, u, v).

Grammar (EBNF; see docs/expression-grammar.md for the full description):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "pi" | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")" ;

with VARIABLE one of t, u, v and FUNCTION one of sin, cos, exp, ln, sqrt,
abs.  "^" is right-associative and binds tighter than unary minus, which
binds tighter than "*" and "/", which bind tighter than "+" and "-".
Whitespace is insignificant.  There is no implicit multiplication.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError, ParseError, UnknownIdentifierError

VARIABLES = ("t", "u", "v")


class _Op(NamedTuple):
    fn: Callable[..., np.ndarray]  # numpy function of the operand arrays
    fmt: str  # to_source's text, with the operands' text in the {}
    # (mask of the operands and the result r, message), in the order they run
    checks: tuple[tuple[Callable[..., np.ndarray], str], ...] = ()


def _non_finite(op: str) -> tuple[Callable[..., np.ndarray], str]:
    return (lambda a, b, r: ~np.isfinite(r)), f"non-finite result from {op!r}"


# Every operation of the language, keyed by operator; "neg" is unary minus.
_OPS = {
    "sin": _Op(np.sin, "sin({})"),
    "cos": _Op(np.cos, "cos({})"),
    "exp": _Op(
        np.exp, "exp({})", ((lambda x, r: np.isinf(r) & np.isfinite(x), "overflow in exp"),)
    ),
    "ln": _Op(np.log, "ln({})", ((lambda x, r: x <= 0.0, "ln of a non-positive value"),)),
    "sqrt": _Op(np.sqrt, "sqrt({})", ((lambda x, r: x < 0.0, "sqrt of a negative value"),)),
    "abs": _Op(np.abs, "abs({})"),
    "neg": _Op(np.negative, "(-{})"),
    "+": _Op(np.add, "({} + {})", (_non_finite("+"),)),
    "-": _Op(np.subtract, "({} - {})", (_non_finite("-"),)),
    "*": _Op(np.multiply, "({} * {})", (_non_finite("*"),)),
    "/": _Op(
        np.divide, "({} / {})", ((lambda a, b, r: b == 0.0, "division by zero"), _non_finite("/"))
    ),
    "^": _Op(
        # a square is a*a, which is correctly rounded; numpy's power loop is
        # not, and is many times slower on negative bases
        lambda a, b: a * a if (b == 2.0).all() else np.power(a, b),
        "({} ^ {})",
        (
            (lambda a, b, r: (a == 0.0) & (b < 0.0), "zero raised to a negative power"),
            (lambda a, b, r: (a < 0.0) & (b != np.floor(b)), "fractional power of a negative base"),
            (lambda a, b, r: np.isinf(r) & np.isfinite(a) & np.isfinite(b), "overflow in power"),
            _non_finite("^"),
        ),
    ),
}
# a function is an operation printed as its name applied to its operand
FUNCTIONS = tuple(op for op, row in _OPS.items() if row.fmt == op + "({})")


class Expr(tuple):
    """A right-hand side as its post-order steps (key, payload): (op, arity)
    applies an operation of _OPS to the last ``arity`` values, ("var",
    name) reads one of VARIABLES and ("num", x) is a finite float literal.
    ==, hash() and repr() are the tuple's.  Anything that is not such a
    program, leaving one value, raises TypeError; a non-finite literal,
    which has no source, raises :class:`DomainError`."""

    __slots__ = ()

    def __new__(cls, steps):
        self = super().__new__(cls, steps)
        depth = 0  # the values a run would hold
        for step in self:
            key, payload = step if type(step) is tuple and len(step) == 2 else (None, None)
            if key == "num":
                ok, arity = type(payload) is float, 0
            elif key == "var":
                ok, arity = payload in VARIABLES, 0
            else:
                arity = _OPS[key].fmt.count("{}") if key in _OPS else None
                ok = type(payload) is int and payload == arity
            if not ok:
                raise TypeError(f"not an expression step: {step!r}")
            if arity > depth:
                raise TypeError(f"step {step!r} has too few operands")
            if key == "num" and not math.isfinite(payload):
                raise DomainError(f"literal {payload!r} is not finite and has no source")
            depth += 1 - arity
        if depth != 1:
            raise TypeError(f"steps leave {depth} values, not one")
        return self


_ATOM_EXPECTED = ("number", "'pi'", "variable", "function", "'('", "'-'")
# ASCII digits only: \d and str.isdigit would also take "٣"
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# after its first letter an identifier runs over \w: str.isalnum() and "_"
_WORD_TAIL = re.compile(r"\w*")
# binary operators from loosest to tightest; each level associates left
_LEVELS = (("+", "-"), ("*", "/"))
# nesting levels the parser accepts; each costs it at most 7 Python frames
MAX_DEPTH = 100


class _Token(NamedTuple):
    kind: str  # "num", "ident", "op", "end"
    text: str
    offset: int  # 1-based character offset in the source


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        number = _NUMBER.match(source, i)
        if number is not None:
            kind, i = "num", number.end()
        elif c.isalpha():
            kind, i = "ident", _WORD_TAIL.match(source, i + 1).end()
        elif c in "+-*/^()":
            kind, i = "op", i + 1
        else:
            message = f"unexpected character {c!r} at offset {start + 1}"
            raise ParseError(message, start + 1, _ATOM_EXPECTED)
        tokens.append(_Token(kind, source[start:i], start + 1))
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    """Recursive descent that meets each operation's operands before the
    operation, so it appends post-order steps to ``steps`` as it goes."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # the levels of nesting now open
        self.steps: list[tuple] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def match_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        shown = tok.text if tok.kind != "end" else "end of input"
        return ParseError(
            f"unexpected {shown!r} at offset {tok.offset}; "
            f"expected one of: {', '.join(expected)}",
            tok.offset,
            expected,
        )

    def parse(self) -> Expr:
        self.expr()
        if self.peek().kind != "end":
            raise self.fail(("operator", "end of input"))
        return Expr(self.steps)

    def expr(self, level: int = 0) -> None:
        if level == len(_LEVELS):
            return self.unary()
        self.expr(level + 1)
        while (tok := self.match_op(*_LEVELS[level])) is not None:
            self.expr(level + 1)
            self.steps.append((tok.text, 2))

    def unary(self) -> None:
        # every level of nesting passes here: "(", a function's argument, "-", "^"
        if self.depth > MAX_DEPTH:
            offset = self.peek().offset
            raise ParseError(f"expression nests too deeply at offset {offset}", offset, ())
        self.depth += 1
        if self.match_op("-") is not None:
            self.unary()
            self.steps.append(("neg", 1))
        else:
            self.power()
        self.depth -= 1

    def power(self) -> None:
        self.atom()
        if self.match_op("^") is not None:
            # right-associative; unary here lets exponents carry their sign
            self.unary()
            self.steps.append(("^", 2))

    def atom(self) -> None:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                message = f"numeric literal {tok.text!r} at offset {tok.offset} is not finite"
                raise ParseError(message, tok.offset, ("finite number",))
            self.steps.append(("num", value))
        elif tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "pi":
                self.steps.append(("num", math.pi))
            elif name in VARIABLES:
                self.steps.append(("var", name))
            elif name in FUNCTIONS:
                if self.peek().text != "(":
                    raise self.fail(("'('",))
                self.atom()  # the parenthesized argument
                self.steps.append((name, 1))
            else:
                message = f"unknown identifier {name!r} at offset {tok.offset}"
                expected = ("variable t, u, v", "function", "'pi'")
                raise UnknownIdentifierError(message, tok.offset, expected)
        elif self.match_op("(") is not None:
            self.expr()
            if self.match_op(")") is None:
                raise self.fail(("')'",))
        else:
            raise self.fail(_ATOM_EXPECTED)


def parse(source: str) -> Expr:
    """Parse source text into an :class:`Expr`, its post-order steps.

    Raises :class:`ParseError` with a 1-based character offset and the set of
    acceptable tokens; unknown names raise :class:`UnknownIdentifierError`.
    Nesting deeper than MAX_DEPTH levels raises :class:`ParseError`.
    """
    if not isinstance(source, str):
        raise ParseError("expression source must be a string", 1, ())
    return _Parser(source).parse()


# For finite inputs, every check of a masked run implies one of these
# IEEE 754 exception flags; underflow alone is never a failure.
_FLAGS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}


def _run(e: Expr, env: dict[str, np.ndarray] | None, fails: list | None):
    """Run the steps on a stack.  A leaf pushes its variable from ``env`` or
    its literal in the shape of ``env["t"]``; an operation pops its operands
    and pushes its ``fn`` of them, or with ``env=None`` every step pushes
    its text.  Each check that flags a point is appended to ``fails`` in the
    order the checks run; ``fails=None`` skips them, for a run under _FLAGS."""
    stack: list = []
    for key, payload in e:
        if key == "var":
            out = payload if env is None else env[payload]
        elif key == "num" and env is not None:
            out = np.full(env["t"].shape, payload)
        elif key == "num":
            text = repr(payload)
            out = f"({text})" if text[0] == "-" else text
        else:
            fn, fmt, checks = _OPS[key]
            args = stack[-payload:]
            del stack[-payload:]
            out = fmt.format(*args) if env is None else fn(*args)
            if fails is not None:
                for check, message in checks:
                    mask = check(*args, out)
                    if mask.any():
                        fails.append((message, mask))
        stack.append(out)
    return stack.pop()


def evaluate(
    e: Expr, t: float | np.ndarray, u: float | np.ndarray, v: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate the expression at the point (t, u, v), or at every point of arrays.

    Floats give a float; equal-shape arrays give an array of that shape, one
    numpy operation per step.  Anything else, a float with arrays or arrays
    of two shapes, raises :class:`DomainError` naming the three shapes;
    nothing is broadcast.  An ``e`` that is not an :class:`Expr` raises
    TypeError.  A failing domain check of an operation raises
    :class:`EvaluationError` (docs/expression-grammar.md lists the checks);
    for arrays it names the lowest failing flat index (``.index``) and
    carries the message of that point's first failing operation in
    evaluation order, as a scalar call there would.

    Floating-point flags detect a failure; masks explain it.  With finite
    inputs the steps run once with no checks, under numpy's IEEE divide,
    overflow and invalid flags set to raise, which every failing check then
    raises.  Only a raised flag or a non-finite input runs them again with
    every check as a mask.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    t, u, v = (np.asarray(x, dtype=float) for x in (t, u, v))
    if not t.shape == u.shape == v.shape:
        shapes = ", ".join(str(x.shape) for x in (t, u, v))
        raise DomainError(f"t, u and v must be floats or arrays of one shape, got {shapes}")
    # always 1-d inside: numpy computes 0-d x^2, x^0.5 and x^-1 by special
    # cases that can differ from its array loop by an ulp
    env = {"t": t.reshape(-1), "u": u.reshape(-1), "v": v.reshape(-1)}
    out = None
    # with an infinite input a step can fail with no flag: 1/(t+1) is 0
    if all(np.isfinite(x).all() for x in env.values()):
        with suppress(FloatingPointError), np.errstate(**_FLAGS):
            out = _run(e, env, None)
    if out is None:
        fails: list[tuple[str, np.ndarray]] = []
        with np.errstate(all="ignore"):
            out = _run(e, env, fails)
        if fails:
            index = min(int(np.flatnonzero(mask)[0]) for _, mask in fails)
            message = next(msg for msg, mask in fails if mask[index])
            raise EvaluationError(message, index)
    if t.ndim == 0:
        return float(out[0])
    if e[-1][0] == "var":  # the result is an input
        out = out.copy()
    return out.reshape(t.shape)


def to_source(e: Expr) -> str:
    """Print an expression of any length back to fully parenthesized source.

    For an :class:`Expr` returned by :func:`parse`, parse(to_source(x)) == x
    when the text nests no deeper than MAX_DEPTH.  A negative literal prints
    in parentheses, so it reads back as a negation of the same value.  An
    ``e`` that is not an :class:`Expr` raises TypeError.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _run(e, None, None)
