"""Shared fixtures for the test suite.

The worked problem used throughout: alpha = 3/2, beta = xi = 1/2,
f(t, u, v) = sin(t)^2 / (11 (e^{2t} + 3 e^t + 1)) * (3 + t + 5u + v),
Lipschitz constant k = 1/11 in the pair norm.
"""

import math

import numpy as np
import pytest

from fracbvp import ProblemParams, ProblemSpec, parse, picard_solve
from fracbvp.errors import EvaluationError
from fracbvp.expr import BinOp, Call, Neg, Num, Var

EXAMPLE_RHS = "sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)"
EXAMPLE_K = 1.0 / 11.0


@pytest.fixture(scope="session")
def example_params():
    return ProblemParams(1.5, 0.5, 0.5)


@pytest.fixture(scope="session")
def example_spec(example_params):
    return ProblemSpec(example_params, parse(EXAMPLE_RHS))


@pytest.fixture(scope="session")
def example_solution(example_spec):
    # converged pair plus iteration report, reused by several tests
    return picard_solve(example_spec, 513, tol=1e-10)


def left_moments_row(alpha, grid, i):
    """Reference row i of the left-kernel moment matrix, built cell by cell:

        w_j = integral_0^{t_i} (t_i - s)^(alpha-1) phi_j(s) ds.
    """
    w = np.zeros(grid.n)
    if i == 0:
        return w
    r = np.arange(i, 0, -1, dtype=float)  # r = i - m over cells m = 0..i-1
    ra, rb = r**alpha, (r - 1.0) ** alpha
    ra1, rb1 = r ** (alpha + 1.0), (r - 1.0) ** (alpha + 1.0)
    scale = grid.h**alpha
    p0 = scale * (ra - rb) / alpha
    p_up = scale * (r * (ra - rb) / alpha - (ra1 - rb1) / (alpha + 1.0))
    w[:i] += p0 - p_up
    w[1 : i + 1] += p_up
    return w


def _oracle_pow(base, exponent):
    if base == 0.0 and exponent < 0.0:
        raise EvaluationError("zero raised to a negative power")
    if base < 0.0 and exponent != math.floor(exponent):
        raise EvaluationError("fractional power of a negative base")
    try:
        return math.pow(base, exponent)
    except OverflowError:
        raise EvaluationError("overflow in power") from None


def oracle_evaluate(e, t, u, v):
    """Reference scalar evaluation: a recursive walk on Python floats and
    the math module that raises at the first failing operation."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "u": u, "v": v}[e.name]
    if isinstance(e, Neg):
        return -oracle_evaluate(e.operand, t, u, v)
    if isinstance(e, BinOp):
        a = oracle_evaluate(e.left, t, u, v)
        b = oracle_evaluate(e.right, t, u, v)
        if e.op == "+":
            out = a + b
        elif e.op == "-":
            out = a - b
        elif e.op == "*":
            out = a * b
        elif e.op == "/":
            if b == 0.0:
                raise EvaluationError("division by zero")
            out = a / b
        else:
            out = _oracle_pow(a, b)
        if not math.isfinite(out):
            raise EvaluationError(f"non-finite result from {e.op!r}")
        return out
    if isinstance(e, Call):
        x = oracle_evaluate(e.arg, t, u, v)
        if e.func == "sin":
            return math.sin(x)
        if e.func == "cos":
            return math.cos(x)
        if e.func == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise EvaluationError("overflow in exp") from None
        if e.func == "ln":
            if x <= 0.0:
                raise EvaluationError("ln of a non-positive value")
            return math.log(x)
        if e.func == "sqrt":
            if x < 0.0:
                raise EvaluationError("sqrt of a negative value")
            return math.sqrt(x)
        return abs(x)
    raise TypeError(f"not an expression node: {e!r}")
