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
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import DomainError, EvaluationError, ParseError, UnknownIdentifierError

VARIABLES = ("t", "u", "v")


class _Text(str):
    """A piece of a node's repr that is printed as it is."""


class _Node:
    """==, hash() and repr() of a tree node, each walking the tree with an
    explicit stack, so that a tree of any depth compares, hashes and prints
    (a parsed sum is as deep as it is long).  The results are the frozen
    dataclass ones: == compares the fields in order as tuples do, so an
    identical pair is equal (a NaN literal equals itself), equal trees hash
    equal, and repr gives the same text."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                a, b = a._fields(), b._fields()
            if type(a) is tuple and type(b) is tuple and len(a) == len(b):
                todo += zip(reversed(a), reversed(b))  # popped left to right
            elif not a == b:
                return False
        return True

    def _pieces(self) -> list:
        """The repr as a flat list: its text as _Text, each leaf as itself."""
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if isinstance(x, _Node):
                items = [_Text(x.__class__.__qualname__ + "(")]
                for i, f in enumerate(fields(x)):
                    items += (_Text(", " * (i > 0) + f.name + "="), getattr(x, f.name))
                todo += reversed([*items, _Text(")")])
            elif type(x) is tuple:
                items = [y for z in x for y in (_Text(", "), z)][1:]
                todo += reversed([_Text("("), *items, _Text(",)" if len(x) == 1 else ")")])
            else:
                out.append(x)
        return out

    def __hash__(self):
        return hash(tuple(self._pieces()))

    def __repr__(self):
        return "".join(x if type(x) is _Text else repr(x) for x in self._pieces())


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Op(_Node):
    op: str  # the operation's key in _OPS
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Op]


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

_ATOM_EXPECTED = ("number", "'pi'", "variable", "function", "'('", "'-'")
# ASCII digits only: \d and str.isdigit would also take "٣"
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# after its first letter an identifier runs over \w: str.isalnum() and "_"
_WORD_TAIL = re.compile(r"\w*")
# binary operators from loosest to tightest; each level associates left
_LEVELS = (("+", "-"), ("*", "/"))
# nesting levels the parser accepts; each costs it at most 7 Python frames
MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
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
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # the levels of nesting now open

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
        node = self.expr()
        if self.peek().kind != "end":
            raise self.fail(("operator", "end of input"))
        return node

    def expr(self, level: int = 0) -> Expr:
        if level == len(_LEVELS):
            return self.unary()
        node = self.expr(level + 1)
        while (tok := self.match_op(*_LEVELS[level])) is not None:
            node = Op(tok.text, (node, self.expr(level + 1)))
        return node

    def unary(self) -> Expr:
        # every level of nesting passes here: "(", a function's argument, "-", "^"
        if self.depth > MAX_DEPTH:
            offset = self.peek().offset
            raise ParseError(f"expression nests too deeply at offset {offset}", offset, ())
        self.depth += 1
        node = Op("neg", (self.unary(),)) if self.match_op("-") is not None else self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        node = self.atom()
        if self.match_op("^") is not None:
            # right-associative; unary here lets exponents carry their sign
            return Op("^", (node, self.unary()))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                message = f"numeric literal {tok.text!r} at offset {tok.offset} is not finite"
                raise ParseError(message, tok.offset, ("finite number",))
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "pi":
                return Num(math.pi)
            if name in VARIABLES:
                return Var(name)
            if name in FUNCTIONS:
                if self.peek().text != "(":
                    raise self.fail(("'('",))
                return Op(name, (self.atom(),))  # the parenthesized argument
            message = f"unknown identifier {name!r} at offset {tok.offset}"
            expected = ("variable t, u, v", "function", "'pi'")
            raise UnknownIdentifierError(message, tok.offset, expected)
        if self.match_op("(") is not None:
            node = self.expr()
            if self.match_op(")") is None:
                raise self.fail(("')'",))
            return node
        raise self.fail(_ATOM_EXPECTED)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree.

    Raises :class:`ParseError` with a 1-based character offset and the set of
    acceptable tokens; unknown names raise :class:`UnknownIdentifierError`.
    Nesting deeper than MAX_DEPTH levels raises :class:`ParseError`.
    """
    if not isinstance(source, str):
        raise ParseError("expression source must be a string", 1, ())
    return _Parser(source).parse()


# For finite inputs and literals, every check of a masked run implies one of
# these IEEE 754 exception flags; underflow alone is never a failure.
_FLAGS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}

# the last tree compiled, its tape and its leftmost non-finite literal
_memo: tuple = (None, [], None)


def _compile(e: Expr) -> tuple[list[tuple], float | None]:
    """The tree's tape and its leftmost non-finite literal, or None.

    The tape lists the nodes in post-order as (fn, fmt, checks, arity)
    steps: an operation's _OPS row and operand count, or a leaf of arity 0
    that reads its variable from ``env`` or fills an array with its literal.
    An explicit stack builds it, so any depth compiles.  The last tree's
    tape is found again by identity, as hashing a tree costs a pass over it.
    """
    global _memo
    tree, tape, bad = _memo
    if tree is e:
        return tape, bad
    tape, bad, todo = [], None, [e]
    while todo:  # the root, then right before left: post-order reversed
        node = todo.pop()
        if isinstance(node, Op) and len(node.args) == _OPS[node.op].fmt.count("{}"):
            tape.append((*_OPS[node.op], len(node.args)))
            todo += node.args
        elif isinstance(node, Var):
            tape.append((itemgetter(node.name), node.name, (), 0))
        elif isinstance(node, Num):
            x, text = node.value, repr(node.value)
            fill = lambda env, x=x: np.full(env["t"].shape, x)  # noqa: E731
            tape.append((fill, f"({text})" if text[0] == "-" else text, (), 0))
            bad = bad if math.isfinite(x) else x  # the last one met is the leftmost
        else:
            raise TypeError(f"not an expression node: {node!r}")
    tape.reverse()
    _memo = (e, tape, bad)
    return tape, bad


def _run(tape: list[tuple], env: dict[str, np.ndarray] | None, fails: list | None):
    """Run a tape on a stack: each step pops its operands (a leaf's one
    operand is ``env``) and pushes its ``fn`` of them, or with ``env=None``
    its ``fmt`` filled with them.  Every check that flags a point is
    appended to ``fails`` in the order the checks run; ``fails=None`` skips
    the checks, for a run under _FLAGS."""
    stack: list = []
    for fn, fmt, checks, arity in tape:
        cut = len(stack) - arity
        args = stack[cut:] if arity else [env]
        del stack[cut:]
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
    """Evaluate the tree at the point (t, u, v), or at every point of arrays.

    Floats give a float; equal-shape arrays give an array of that shape, one
    numpy operation per tape step, for a tree of any depth.  Anything else,
    a float with arrays or arrays of two shapes, raises :class:`DomainError`
    naming the three shapes; nothing is broadcast.  Raises
    :class:`EvaluationError` when a domain check of an operation fails
    (docs/expression-grammar.md lists them).  For arrays the error names the
    lowest failing flat index (``.index``) and carries the message of that
    point's first failing operation in evaluation order, as a scalar call
    there would.

    Floating-point flags detect a failure; masks explain it.  With finite
    inputs and literals the tape runs once with no checks, under numpy's
    IEEE divide, overflow and invalid flags set to raise, which every
    failing check then raises.  Only a raised flag or a non-finite input or
    literal runs it again with every check as a mask.
    """
    tape, bad = _compile(e)
    t, u, v = (np.asarray(x, dtype=float) for x in (t, u, v))
    if not t.shape == u.shape == v.shape:
        shapes = ", ".join(str(x.shape) for x in (t, u, v))
        raise DomainError(f"t, u and v must be floats or arrays of one shape, got {shapes}")
    # always 1-d inside: numpy computes 0-d x^2, x^0.5 and x^-1 by special
    # cases that can differ from its array loop by an ulp
    env = {"t": t.reshape(-1), "u": u.reshape(-1), "v": v.reshape(-1)}
    out = None
    # with an infinite input a node can fail with no flag: 1/(t+1) is 0
    if bad is None and all(np.isfinite(x).all() for x in env.values()):
        with suppress(FloatingPointError), np.errstate(**_FLAGS):
            out = _run(tape, env, None)
    if out is None:
        fails: list[tuple[str, np.ndarray]] = []
        with np.errstate(all="ignore"):
            out = _run(tape, env, fails)
        if fails:
            index = min(int(np.flatnonzero(mask)[0]) for _, mask in fails)
            message = next(msg for msg, mask in fails if mask[index])
            raise EvaluationError(message, index)
    if t.ndim == 0:
        return float(out[0])
    if isinstance(e, Var):
        out = out.copy()
    return out.reshape(t.shape)


def to_source(e: Expr) -> str:
    """Print a tree of any depth back to fully parenthesized source.

    For a tree returned by :func:`parse`, parse(to_source(x)) is structurally
    equal to x when the text nests no deeper than MAX_DEPTH.  A negative
    literal prints in parentheses, so it reads back as a negation of the same
    value.  A non-finite literal has no source and raises :class:`DomainError`.
    """
    tape, bad = _compile(e)
    if bad is not None:
        raise DomainError(f"literal {bad!r} is not finite and has no source")
    return _run(tape, None, None)
