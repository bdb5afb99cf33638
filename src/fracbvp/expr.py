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
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import DomainError, EvaluationError, ParseError, UnknownIdentifierError

VARIABLES = ("t", "u", "v")
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_ATOM_EXPECTED = ("number", "'pi'", "variable", "function", "'('", "'-'")
# a NUMBER's digits are ASCII; str.isdigit would also take "²" or "٣"
_DIGITS = frozenset("0123456789")


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
        if c in _DIGITS or (c == "." and i + 1 < n and source[i + 1] in _DIGITS):
            i += 1
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j + 1
                    while i < n and source[i] in _DIGITS:
                        i += 1
            tokens.append(_Token("num", source[start:i], start + 1))
            continue
        if c.isalpha():
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("ident", source[start:i], start + 1))
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, start + 1))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {c!r} at offset {start + 1}",
            start + 1,
            _ATOM_EXPECTED,
        )
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

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
        tok = self.peek()
        if tok.kind != "end":
            raise self.fail(("operator", "end of input"))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (tok := self.match_op("+", "-")) is not None:
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.match_op("*", "/")) is not None:
            node = BinOp(tok.text, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.match_op("-") is not None:
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.match_op("^") is not None:
            # right-associative; unary here lets exponents carry their sign
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(
                    f"numeric literal {tok.text!r} at offset {tok.offset} is not finite",
                    tok.offset,
                    ("finite number",),
                )
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "pi":
                return Num(math.pi)
            if name in VARIABLES:
                return Var(name)
            if name in FUNCTIONS:
                if self.match_op("(") is None:
                    raise self.fail(("'('",))
                arg = self.expr()
                if self.match_op(")") is None:
                    raise self.fail(("')'",))
                return Call(name, arg)
            raise UnknownIdentifierError(
                f"unknown identifier {name!r} at offset {tok.offset}",
                tok.offset,
                ("variable t, u, v", "function", "'pi'"),
            )
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
    """
    if not isinstance(source, str):
        raise ParseError("expression source must be a string", 1, ())
    return _Parser(source).parse()


_UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# For finite inputs and literals, every check of the masked walk implies one
# of these IEEE 754 exception flags; underflow alone is never a failure.
_FLAGS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}


@dataclass(frozen=True, eq=False)
class _Folded:
    """A subtree free of u and v, replaced by its samples at fixed t nodes."""

    values: np.ndarray = field(repr=False)


def _check(fails: list, mask: np.ndarray, message: str) -> None:
    if mask.any():
        fails.append((message, mask))


def _walk(e: Expr, env: dict[str, np.ndarray], fails: list | None) -> np.ndarray:
    # Post-order walk, one numpy operation per node.  Every check that flags
    # some point is appended to ``fails`` in the order the checks run;
    # ``fails=None`` skips the checks, for a walk under _FLAGS.  The result
    # may be an array of ``env`` or of a _Folded leaf.
    if isinstance(e, BinOp):
        a = _walk(e.left, env, fails)
        b = _walk(e.right, env, fails)
        # a square is a*a, which is correctly rounded; numpy's power loop is
        # not, and is many times slower on negative bases
        out = a * a if e.op == "^" and (b == 2.0).all() else _BINARY[e.op](a, b)
        if fails is not None:
            if e.op == "/":
                _check(fails, b == 0.0, "division by zero")
            elif e.op == "^":
                _check(fails, (a == 0.0) & (b < 0.0), "zero raised to a negative power")
                _check(
                    fails, (a < 0.0) & (b != np.floor(b)), "fractional power of a negative base"
                )
                overflow = np.isinf(out) & np.isfinite(a) & np.isfinite(b)
                _check(fails, overflow, "overflow in power")
            _check(fails, ~np.isfinite(out), f"non-finite result from {e.op!r}")
        return out
    if isinstance(e, Call):
        x = _walk(e.arg, env, fails)
        out = _UNARY[e.func](x)
        if fails is not None:
            if e.func == "exp":
                _check(fails, np.isinf(out) & np.isfinite(x), "overflow in exp")
            elif e.func == "ln":
                _check(fails, x <= 0.0, "ln of a non-positive value")
            elif e.func == "sqrt":
                _check(fails, x < 0.0, "sqrt of a negative value")
        return out
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, _Folded):
        if e.values.shape != env["t"].shape:
            raise DomainError(
                f"folded samples have shape {e.values.shape}, "
                f"the evaluation has shape {env['t'].shape}"
            )
        return e.values
    if isinstance(e, Neg):
        return -_walk(e.operand, env, fails)
    if isinstance(e, Num):
        if fails is None and not math.isfinite(e.value):
            raise FloatingPointError("non-finite literal")
        return np.full(env["t"].shape, e.value)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(
    e: Expr, t: float | np.ndarray, u: float | np.ndarray, v: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate the tree at the point (t, u, v), or at every point of arrays.

    Floats give a float; equal-shape arrays give an array of that shape, one
    numpy operation per tree node.  Raises :class:`EvaluationError` on
    division by zero, ln of a non-positive value, sqrt of a negative value,
    zero to a negative power, fractional powers of negative bases, and
    floating-point overflow.  For arrays the error names the lowest failing
    flat index (``.index``) and carries the message of that point's first
    failing operation in evaluation order, as a scalar call there would.

    Floating-point flags detect a failure; masks explain it.  When t, u and
    v are all finite the tree is walked once with no checks, under numpy's
    IEEE divide, overflow and invalid flags set to raise: for finite inputs
    every failing check raises one of them.  Only a raised flag, a
    non-finite input or a non-finite literal runs the walk again with every
    check as a mask, which then raises the error above or returns its value.
    """
    t, u, v = (np.asarray(x, dtype=float) for x in (t, u, v))
    if not t.shape == u.shape == v.shape:
        t, u, v = np.broadcast_arrays(t, u, v)
    # always 1-d inside: numpy computes 0-d x^2, x^0.5 and x^-1 by special
    # cases that can differ from its array loop by an ulp
    env = {"t": t.reshape(-1), "u": u.reshape(-1), "v": v.reshape(-1)}
    out = None
    # with an infinite input a node can fail with no flag: 1/(t+1) is 0
    if all(np.isfinite(x).all() for x in env.values()):
        try:
            with np.errstate(**_FLAGS):
                out = _walk(e, env, None)
        except FloatingPointError:
            pass
    if out is None:
        fails: list[tuple[str, np.ndarray]] = []
        with np.errstate(all="ignore"):
            out = _walk(e, env, fails)
        if fails:
            index = min(int(np.flatnonzero(mask)[0]) for _, mask in fails)
            message = next(msg for msg, mask in fails if mask[index])
            raise EvaluationError(message, index)
    if t.ndim == 0:
        return float(out[0])
    if isinstance(e, (Var, _Folded)):
        out = out.copy()
    return out.reshape(t.shape)


def fold_invariants(e: Expr, t: np.ndarray) -> Expr:
    """Fold the tree for repeated evaluation at the same t nodes.

    Each maximal subtree that does not mention u or v becomes a private leaf
    holding its samples at ``t``, so evaluating the result at ``t`` (and any
    u, v) does only the work that changes.  A subtree is folded only when
    its evaluation at ``t`` succeeds with finite values; the result then
    gives bit-identical values and raises exactly the errors of ``e``.  The
    result is for evaluation at ``t`` alone: its leaves check only that the
    number of points matches (:class:`DomainError` otherwise), and
    :func:`to_source` cannot print them.
    """
    t = np.asarray(t, dtype=float).reshape(-1)

    def leaf(x: Expr) -> Expr:
        try:
            values = evaluate(x, t, t, t)
        except EvaluationError:
            return x
        return _Folded(values) if np.isfinite(values).all() else x

    def fold(x: Expr) -> tuple[Expr, bool]:
        # (x with its maximal u,v-free subtrees folded, whether x is u,v-free)
        if isinstance(x, Var):
            return x, x.name == "t"
        if isinstance(x, Num):
            return x, True
        if isinstance(x, Neg):
            parts = {"operand": x.operand}
        elif isinstance(x, BinOp):
            parts = {"left": x.left, "right": x.right}
        else:
            parts = {"arg": x.arg}
        done = {name: fold(child) for name, child in parts.items()}
        if all(free for _, free in done.values()):
            return x, True
        kids = {name: leaf(child) if free else child for name, (child, free) in done.items()}
        return replace(x, **kids), False

    folded, free = fold(e)
    return leaf(folded) if free else folded


def to_source(e: Expr) -> str:
    """Print a tree back to parseable source.

    Fully parenthesized, so operator precedence never changes the shape:
    parse(to_source(x)) is structurally equal to x.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_source(e.operand)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def lipschitz_estimate(e: Expr, t_samples: int = 65, bound: float = 10.0) -> float:
    """Sampled bound on max(|df/du|, |df/dv|) over [0,1] x [-bound, bound]^2.

    Central differences with step 1e-6 * (1 + |coordinate|) at every point of
    a t grid crossed with a 5-point lattice per state axis.  This is an
    estimate, not a certified constant: it can undershoot the true Lipschitz
    constant between samples.
    """
    if t_samples < 16:
        raise DomainError(f"need at least 16 t samples, got {t_samples}")
    if not (math.isfinite(bound) and bound > 0.0):
        raise DomainError(f"state bound must be > 0, got {bound!r}")
    ts = np.arange(t_samples) / (t_samples - 1)
    lattice = np.array([-bound, -0.5 * bound, 0.0, 0.5 * bound, bound])
    u, v = np.meshgrid(lattice, lattice, indexing="ij")
    du, dv = 1e-6 * (1.0 + np.abs(u)), 1e-6 * (1.0 + np.abs(v))
    # axes (t, u, v, probe); C order is the order of the nested scalar loop
    # t -> u -> v -> (u+du, u-du, v+dv, v-dv), so the first failing point
    # reported is the one that loop would have hit first
    f = evaluate(
        e,
        ts[:, None, None, None],
        np.stack([u + du, u - du, u, u], axis=-1),
        np.stack([v, v, v + dv, v - dv], axis=-1),
    )
    fu = (f[..., 0] - f[..., 1]) / (2 * du)
    fv = (f[..., 2] - f[..., 3]) / (2 * dv)
    return float(max(np.max(np.abs(fu)), np.max(np.abs(fv))))
