"""Shared fixtures for the test suite.

The worked problem used throughout: alpha = 3/2, beta = xi = 1/2,
f(t, u, v) = sin(t)^2 / (11 (e^{2t} + 3 e^t + 1)) * (3 + t + 5u + v),
Lipschitz constant k = 1/11 in the pair norm.
"""

import math

import numpy as np
import pytest

from fracbvp import (
    DomainError,
    GridFunction,
    ProblemParams,
    ProblemSpec,
    SolutionPair,
    gamma,
    parse,
    picard_solve,
)
from fracbvp.cli import EXAMPLE_K, EXAMPLE_RHS
from fracbvp.errors import EvaluationError
from fracbvp.greens import _companion_terms, _value, green_branch_value


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


def frac_integral_monomial(alpha, p, t):
    """Closed form I^alpha applied to s^p:

        I^a t^p = Gamma(p+1)/Gamma(p+1+a) * t^(p+a).
    """
    return gamma(p + 1.0) / gamma(p + 1.0 + alpha) * t ** (p + alpha)


def caputo_monomial(gamma_ord, p, t):
    """Closed form Caputo derivative of s^p for orders in (0, 1]:

        D^g t^p = Gamma(p+1)/Gamma(p+1-g) * t^(p-g)   for p >= 1,
        D^g 1   = 0.

    Powers in (0, 1) are rejected: there the derivative is unbounded at the
    origin and the closed form above does not apply on the whole interval.
    """
    if 0.0 < p < 1.0:
        raise DomainError(f"monomial power must be 0 or >= 1, got {p!r}")
    if p == 0.0:
        return 0.0
    return gamma(p + 1.0) / gamma(p + 1.0 - gamma_ord) * t ** (p - gamma_ord)


def companion_eval(p, t, s):
    """Companion kernel value H(t, s) at t, s in [0, 1], from the library's
    term table; its order-1 left term 1_{s<t} is empty at t = 0, so
    H(0, s) = 0 for alpha < 2."""
    return float(_value(_companion_terms(p), float(t), float(s)))


def zero_pair(grid):
    z = np.zeros(grid.n)
    return SolutionPair(GridFunction(grid, z), GridFunction(grid, z))


def pair_norm(a):
    return max(float(np.max(np.abs(a.u.values))), float(np.max(np.abs(a.v.values))))


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


def _oracle_op(op, *args):
    """One operation on Python floats, raising as its domain checks do."""
    if op == "neg":
        return -args[0]
    if len(args) == 2:
        a, b = args
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        elif op == "/":
            if b == 0.0:
                raise EvaluationError("division by zero")
            out = a / b
        else:
            out = _oracle_pow(a, b)
        if not math.isfinite(out):
            raise EvaluationError(f"non-finite result from {op!r}")
        return out
    (x,) = args
    if op == "sin":
        return math.sin(x)
    if op == "cos":
        return math.cos(x)
    if op == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvaluationError("overflow in exp") from None
    if op == "ln":
        if x <= 0.0:
            raise EvaluationError("ln of a non-positive value")
        return math.log(x)
    if op == "sqrt":
        if x < 0.0:
            raise EvaluationError("sqrt of a negative value")
        return math.sqrt(x)
    return abs(x)


def oracle_evaluate(e, t, u, v):
    """Reference scalar evaluation: a stack run over the post-order steps on
    Python floats and the math module, raising at the first failing
    operation.  It reads each step's arity from the step, never the
    library's operation table."""
    point = {"t": t, "u": u, "v": v}
    stack = []
    for key, payload in e:
        if key == "num":
            stack.append(payload)
        elif key == "var":
            stack.append(point[payload])
        else:
            args = stack[len(stack) - payload :]
            del stack[len(stack) - payload :]
            stack.append(_oracle_op(key, *args))
    (out,) = stack
    return out


# Reference G* scan: per t, the kernel's sign changes are bracketed on an
# n-node s grid, refined by scalar bisection, and the fixed-branch
# antiderivative is summed piece by piece.  It assumes nothing about how
# many sign changes there are.
_ORACLE_BISECTION_STEPS = 60
# Probe abscissa used instead of s = 1, where the kernel may be unbounded:
# the largest float below 1, so a sign change as close to 1 as a float can
# resolve is still bracketed (as alpha - beta -> 0 it sits at 1 - s of
# about alpha - beta).
_ORACLE_PROBE_GAP = 2.0**-53


def _oracle_coeffs(p, t):
    a, b, xi = p.alpha, p.beta, p.xi
    ratio = xi / (gamma(a) * (1.0 - xi))
    sing = gamma(2.0 - b) * (xi + (1.0 - xi) * t) / (gamma(a - b) * (1.0 - xi))
    return ratio, sing


def _oracle_branch_piece(p, t, a_pt, b_pt, left):
    """Exact integral of the fixed-branch kernel over [a_pt, b_pt]."""
    a, b = p.alpha, p.beta
    ratio, sing = _oracle_coeffs(p, t)
    rema, remb = 1.0 - a_pt, 1.0 - b_pt
    val = ratio * (rema**a - remb**a) / a
    val -= sing * (rema ** (a - b) - remb ** (a - b)) / (a - b)
    if left:
        val += ((t - a_pt) ** a - max(t - b_pt, 0.0) ** a) / (a * gamma(a))
    return val


def _oracle_probe(p, t, s, left):
    return float(green_branch_value(p, t, min(s, 1.0 - _ORACLE_PROBE_GAP), left))


def _oracle_bisect_root(p, t, lo, hi, left):
    f_lo = _oracle_probe(p, t, lo, left)
    for _ in range(_ORACLE_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        f_mid = _oracle_probe(p, t, mid, left)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_abs_mass(p, t, s_nodes):
    """integral_0^1 |G(t, s)| ds, exact between bracketed sign changes."""
    total = 0.0
    for lo, hi, left in ((0.0, t, True), (t, 1.0, False)):
        if hi <= lo:
            continue
        pts = np.unique(np.clip(s_nodes, lo, hi))
        probe = np.minimum(pts, 1.0 - _ORACLE_PROBE_GAP)
        vals = np.asarray(green_branch_value(p, t, probe, left))
        cuts = [lo]
        for k in range(len(pts) - 1):
            if vals[k] == 0.0 and lo < pts[k] < hi:
                cuts.append(float(pts[k]))
            elif vals[k] * vals[k + 1] < 0.0:
                cuts.append(_oracle_bisect_root(p, t, float(pts[k]), float(pts[k + 1]), left))
        cuts.append(hi)
        for a_pt, b_pt in zip(cuts[:-1], cuts[1:]):
            if b_pt > a_pt:
                total += abs(_oracle_branch_piece(p, t, a_pt, b_pt, left))
    return total


def oracle_gstar(p, n, m):
    """Reference scalar G* scan: the max of :func:`oracle_abs_mass` over m
    uniform t nodes, with sign changes bracketed on n uniform s nodes."""
    s_nodes = np.linspace(0.0, 1.0, n)
    return max(oracle_abs_mass(p, float(t), s_nodes) for t in np.linspace(0.0, 1.0, m))


def oracle_sign_change(p, t):
    """Reference sign change s*(t) of G(t, .) for an array of t: 60 halvings
    of [0, t] on the left branch, run on all t at once, and the closed form
    1 - (B(t)/A)^(1/beta) on the right branch (g(t) >= 0).

    g(s) = G(t, s) / (1-s)^(alpha-beta-1) strictly decreases on [0, 1); after
    60 halvings the bracket is below 1e-18.  At t = 1, r = 1 - s = 0 gives
    0/0 in g, read as "not positive", which is the limit -B(1) < 0.
    """
    a, b = p.alpha, p.beta
    t = np.asarray(t, dtype=float)
    ga = gamma(a)
    ratio, sing = _oracle_coeffs(p, t)

    def g(s):
        rem = 1.0 - s
        return rem**b * ((np.maximum(t - s, 0.0) / rem) ** (a - 1.0) / ga + ratio) - sing

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi = np.zeros_like(t), t
        for _ in range(_ORACLE_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            pos = g(mid) > 0.0
            lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
        on_right = (1.0 - t) ** b * ratio - sing >= 0.0
        closed = 1.0 - (sing / ratio) ** (1.0 / b)
        return np.where(g(0.0) <= 0.0, 0.0, np.where(on_right, closed, 0.5 * (lo + hi)))


def oracle_csv_rows(rows):
    """Reference CSV lines: each value formatted on its own by
    ``format(x, ".15g")``, split by commas, each line ended by a newline."""
    return "".join(",".join(format(float(x), ".15g") for x in row) + "\n" for row in rows)


def oracle_solution_csv(grid_nodes, u, v):
    """Reference ``solution.csv`` writer: each value formatted on its own as
    the shortest decimal capped at 15 significant digits."""
    return "t,u,v\n" + oracle_csv_rows(zip(grid_nodes, u, v))


def oracle_green_csv(params, m_t, m_s):
    """Reference ``green.csv`` writer: G on the m_t x m_s lattice, one
    ``t,s,G`` row per node with t running fastest; the s = 1 rows are
    dropped, under a comment line, when the kernel is unbounded there."""
    singular = params.alpha - params.beta < 1.0
    header = "# s=1 rows omitted: kernel unbounded there (alpha-beta < 1)\n" if singular else ""
    rows = [
        (t, s, green_branch_value(params, float(t), float(s), True))
        for s in np.linspace(0.0, 1.0, m_s)
        if not (singular and s == 1.0)
        for t in np.linspace(0.0, 1.0, m_t)
    ]
    return header + "t,s,G\n" + oracle_csv_rows(rows)
