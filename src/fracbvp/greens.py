"""Kernels mapping a forcing y to the solution pair of the linear problem.

For orders 1 < alpha <= 2, 0 < beta < 1 and ratio parameter 0 < xi < 1, the
linear two-point problem

    D^alpha u(t) = y(t),   u(0) = xi u(1),   D^beta u(0) = xi D^beta u(1)

has the representation u(t) = integral_0^1 G(t, s) y(s) ds with

    G(t, s) = 1_{s<=t} (t-s)^(alpha-1)/Gamma(alpha)
              + xi (1-s)^(alpha-1) / (Gamma(alpha) (1-xi))
              - Gamma(2-beta) (xi + (1-xi) t) / (Gamma(alpha-beta) (1-xi))
                * (1-s)^(alpha-beta-1),

and the reduced derivative v = D^(alpha-1) u has the companion kernel

    H(t, s) = 1_{s<=t}
              - Gamma(2-beta) t^(2-alpha) / (Gamma(3-alpha) Gamma(alpha-beta))
                * (1-s)^(alpha-beta-1).

Both kernels are weakly singular at s = 1 when alpha - beta < 1, yet their
moments against hat functions are finite, so grid weights exist for every
admissible parameter triple.

On a uniform grid each kernel's weights are a :class:`KernelOperator`: the
1_{s<=t} terms give a lower-triangular Toeplitz matrix (apart from column
0), and the (1-s) terms a rank-2 (G) or rank-1 (H) update, so the weights
take O(n) memory and apply in O(n log n).  :func:`green_operator` and
:func:`companion_operator` are the only place the weight formulas live; the
dense n x n matrices of :func:`green_weight_matrix` and
:func:`companion_weight_matrix` are their expansions, kept as a small-n
reference for tests.

For each t, G(t, .) changes sign at most once, from + to -.  With r = 1-s,
A = xi/(Gamma(alpha)(1-xi)) and B(t) the coefficient of the singular term,

    g(s) = G(t, s) / r^(alpha-beta-1)
         = r^beta [((t-s)_+ / r)^(alpha-1) / Gamma(alpha) + A] - B(t)

on both branches, and g strictly decreases on [0, 1): r^beta strictly
decreases, d/ds (t-s)/(1-s) = (t-1)/(1-s)^2 <= 0, and the bracket is at
least A > 0.  So integral_0^1 |G(t, s)| ds has a closed form in the one
sign change s*(t), which is how :func:`gstar` scans all t in one array
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .fracops import (
    Grid,
    gamma,
    left_kernel_toeplitz,
    lower_toeplitz_apply,
    right_kernel_moments,
    toeplitz_spectrum,
)

@dataclass(frozen=True)
class ProblemParams:
    """Orders and ratio parameter of the boundary value problem."""

    alpha: float
    beta: float
    xi: float

    def __post_init__(self) -> None:
        a, b, x = self.alpha, self.beta, self.xi
        if not (math.isfinite(a) and 1.0 < a <= 2.0):
            raise DomainError(f"alpha must lie in (1, 2], got {a!r}")
        if not (math.isfinite(b) and 0.0 < b < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {b!r}")
        if not (math.isfinite(x) and 0.0 < x < 1.0):
            raise DomainError(f"xi must lie in (0, 1), got {x!r}")


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Quadrature weights of a kernel on a grid, held in O(n) memory.

    The n x n weight matrix is

        W = T + (first - column) e_0^T + sum_k outer(left_k, right_k),

    where T[i, j] = column[i - j] for j <= i is lower-triangular Toeplitz,
    ``first`` replaces T's column 0, and ``factors`` holds the (left, right)
    pairs of a low-rank update.  The spectrum of ``column`` is computed once,
    at construction, so ``W @ x`` costs one forward and one inverse FFT plus
    a dot product per factor; :meth:`dense` expands W for small-n reference
    checks.
    """

    column: np.ndarray
    first: np.ndarray
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_spectrum", toeplitz_spectrum(self.column))

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.column)
        return (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = lower_toeplitz_apply(self.column, x, self._spectrum)  # type: ignore[attr-defined]
        out += (self.first - self.column) * x[0]
        for left, right in self.factors:
            out += left * (right @ x)
        return out

    def dense(self) -> np.ndarray:
        """The n x n matrix W; O(n^2) memory, for reference checks."""
        n = len(self.column)
        # row i of T is the reversed, zero-padded column read from offset n-1-i
        padded = np.concatenate((np.zeros(n - 1), self.column))[::-1]
        out = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1].copy()
        out[:, 0] = self.first
        for left, right in self.factors:
            out += np.outer(left, right)
        return out


def _ratio_coeff(p: ProblemParams) -> float:
    """Coefficient of the (1-s)^(alpha-1) term common to both branches."""
    return p.xi / (gamma(p.alpha) * (1.0 - p.xi))


def _singular_coeff(p: ProblemParams, t: float | np.ndarray) -> float | np.ndarray:
    """Coefficient of the (1-s)^(alpha-beta-1) term; grows affinely in t."""
    return (
        gamma(2.0 - p.beta)
        * (p.xi + (1.0 - p.xi) * t)
        / (gamma(p.alpha - p.beta) * (1.0 - p.xi))
    )


def _companion_coeff(p: ProblemParams) -> float:
    return gamma(2.0 - p.beta) / (gamma(3.0 - p.alpha) * gamma(p.alpha - p.beta))


def _check_point(name: str, x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def green_branch_value(p: ProblemParams, t: float, s, left: bool):
    """Kernel value using a fixed branch formula; accepts scalar or array s.

    ``left=True`` selects the branch valid for s <= t (it adds the
    (t-s)^(alpha-1) term); ``left=False`` the branch for s >= t.  Both
    formulas are real-analytic in s below 1, so either can be continued past
    s = t.
    """
    a, b = p.alpha, p.beta
    s = np.asarray(s, dtype=float) if not np.isscalar(s) else float(s)
    rem = 1.0 - s
    val = _ratio_coeff(p) * rem ** (a - 1.0) - _singular_coeff(p, t) * rem ** (
        a - b - 1.0
    )
    if left:
        gap = np.maximum(t - s, 0.0) if not np.isscalar(s) else max(t - s, 0.0)
        val = val + gap ** (a - 1.0) / gamma(a)
    return val


def green_eval(p: ProblemParams, t: float, s: float) -> float:
    """Pointwise kernel value G(t, s).

    Points with s <= t use the left branch (the tie at s = t is immaterial:
    the branches agree there).  Raises :class:`SingularityError` at s = 1
    when alpha - beta < 1, where the kernel is unbounded.
    """
    t = _check_point("t", t)
    s = _check_point("s", s)
    if s == 1.0 and p.alpha - p.beta < 1.0:
        raise SingularityError(
            "kernel is unbounded at s = 1 for alpha - beta < 1"
        )
    return float(green_branch_value(p, t, s, left=s <= t))


def companion_eval(p: ProblemParams, t: float, s: float) -> float:
    """Pointwise companion kernel value H(t, s).

    The indicator part covers s in [0, t]; at t = 0 that interval carries no
    mass, so the indicator is taken empty there and H(0, s) = 0 whenever
    alpha < 2.  Raises :class:`SingularityError` at s = 1 when
    alpha - beta < 1.
    """
    t = _check_point("t", t)
    s = _check_point("s", s)
    if s == 1.0 and p.alpha - p.beta < 1.0:
        raise SingularityError(
            "companion kernel is unbounded at s = 1 for alpha - beta < 1"
        )
    indicator = 1.0 if (s <= t and t > 0.0) else 0.0
    # 0^0 = 1 here keeps the alpha = 2 case (t-independent coefficient) right.
    return indicator - _companion_coeff(p) * t ** (2.0 - p.alpha) * (1.0 - s) ** (
        p.alpha - p.beta - 1.0
    )


def green_operator(p: ProblemParams, grid: Grid) -> KernelOperator:
    """Exact hat-function moments of G(t_i, .) for every grid node t_i.

    Every term of the kernel has a closed-form moment, so applying the
    weights to samples of y reproduces integral_0^1 G(t_i, s) y(s) ds exactly
    whenever y is piecewise linear on the grid.  Weights are finite even when
    the kernel itself is unbounded at s = 1.  The left term gives the Toeplitz
    part; the two (1-s) terms give a rank-2 update.
    """
    a, b = p.alpha, p.beta
    column, first = left_kernel_toeplitz(a, grid)
    return KernelOperator(
        column / gamma(a),
        first / gamma(a),
        (
            (np.ones(grid.n), _ratio_coeff(p) * right_kernel_moments(a, grid)),
            (-_singular_coeff(p, grid.nodes), right_kernel_moments(a - b, grid)),
        ),
    )


def companion_operator(p: ProblemParams, grid: Grid) -> KernelOperator:
    """Exact hat-function moments of H(t_i, .) for every grid node t_i.

    The indicator term is the trapezoid rule on [0, t_i]: Toeplitz column
    [h/2, h, h, ...] with column 0 equal to h/2 below row 0.  At t_0 = 0 with
    alpha < 2 the row is identically zero, matching D^(alpha-1) u(0) = 0 for
    every forcing.
    """
    a, b = p.alpha, p.beta
    h = grid.h
    column = np.full(grid.n, h)
    column[0] = 0.5 * h
    first = np.full(grid.n, 0.5 * h)
    first[0] = 0.0
    coeff = _companion_coeff(p) * grid.nodes ** (2.0 - a)
    return KernelOperator(column, first, ((-coeff, right_kernel_moments(a - b, grid)),))


def green_weight_matrix(p: ProblemParams, grid: Grid) -> np.ndarray:
    """Dense n x n expansion of :func:`green_operator`; a small-n reference."""
    return green_operator(p, grid).dense()


def companion_weight_matrix(p: ProblemParams, grid: Grid) -> np.ndarray:
    """Dense n x n expansion of :func:`companion_operator`; a small-n reference."""
    return companion_operator(p, grid).dense()


def gstar_coarse_bound(p: ProblemParams) -> float:
    """Analytic upper bound for gstar obtained by maximizing each term.

    Bounds (t-s)^(alpha-1) by (1-s)^(alpha-1), takes the singular-term
    coefficient at t = 1, and integrates both envelopes:

        1/((1-xi) Gamma(alpha+1)) + Gamma(2-beta)/((1-xi) Gamma(alpha-beta+1)).
    """
    a, b = p.alpha, p.beta
    return (1.0 / gamma(a + 1.0) + gamma(2.0 - b) / gamma(a - b + 1.0)) / (1.0 - p.xi)


def green_sign_change(p: ProblemParams, t) -> np.ndarray:
    """The point s* in [0, 1] where G(t, .) changes sign, for an array of t.

    G(t, s) >= 0 for s <= s* and G(t, s) <= 0 for s >= s* (see the module
    docstring for the proof), with s* = 0 when G(t, .) is nowhere
    positive.  On the right branch the root is closed form; on the left it
    is found by one bisection run on all t at once.
    """
    a, b = p.alpha, p.beta
    t = np.asarray(t, dtype=float)
    ga, ratio, sing = gamma(a), _ratio_coeff(p), _singular_coeff(p, t)

    def g(s):  # G(t, s) / (1-s)^(alpha-beta-1); strictly decreasing in s
        rem = 1.0 - s
        return rem**b * ((np.maximum(t - s, 0.0) / rem) ** (a - 1.0) / ga + ratio) - sing

    # r = 0 (only at t = 1) gives 0/0 in g, read as "not positive", which
    # is the limit -B(1) < 0; an overflowing closed form is never selected.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi = np.zeros_like(t), t
        # after 60 halvings of [0, t] the bracket is below 1e-18, and M(t)
        # depends on s* only to second order (dM/ds* = 2 G(t, s*) = 0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pos = g(mid) > 0.0
            lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
        on_right = (1.0 - t) ** b * ratio - sing >= 0.0  # g(t) >= 0
        closed = 1.0 - (sing / ratio) ** (1.0 / b)
        return np.where(g(0.0) <= 0.0, 0.0, np.where(on_right, closed, 0.5 * (lo + hi)))


def green_abs_mass(p: ProblemParams, t) -> np.ndarray:
    """M(t) = integral_0^1 |G(t, s)| ds for an array of t, in closed form.

    With s* from :func:`green_sign_change` and the kernel's antiderivative
    P(t, x) = integral_0^x G(t, s) ds, M(t) = 2 P(t, s*) - P(t, 1).  The
    terms (1 - r^mu)/mu of P are formed as -expm1(mu log r)/mu, so they keep
    full precision as alpha - beta -> 0.
    """
    a, mu = p.alpha, p.alpha - p.beta
    t = np.asarray(t, dtype=float)
    ga, ratio, sing = gamma(a), _ratio_coeff(p), _singular_coeff(p, t)

    def primitive(x):
        log_rem = np.log1p(-x)  # -inf at x = 1, where expm1 gives -1
        return (
            (t**a - np.maximum(t - x, 0.0) ** a) / (a * ga)
            - ratio * np.expm1(a * log_rem) / a
            + sing * np.expm1(mu * log_rem) / mu
        )

    with np.errstate(divide="ignore"):
        return 2.0 * primitive(green_sign_change(p, t)) - primitive(1.0)


def gstar(p: ProblemParams, n: int = 2049, m: int = 513) -> float:
    """sup over t of integral_0^1 |G(t, s)| ds, scanned on m uniform t nodes.

    Each scan value is the closed-form mass of :func:`green_abs_mass`,
    exact up to roundoff because G(t, .) changes sign at most once, from +
    to -.  Proof: with r = 1 - s, g(s) = G(t, s) / r^(alpha-beta-1) equals

        r^beta [((t-s)_+ / r)^(alpha-1) / Gamma(alpha) + A] - B(t)

    on both branches, A = xi/(Gamma(alpha)(1-xi)) > 0.  r^beta strictly
    decreases, (t-s)/(1-s) has derivative (t-1)/(1-s)^2 <= 0, and the
    bracket is at least A > 0, so g strictly decreases on [0, 1).

    The result is the maximum over the scan nodes, a lower bound on the
    supremum.  ``n`` no longer affects the value; it is kept, and still
    checked, for the signature's sake.
    """
    if n < 2 or m < 2:
        raise DomainError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    return float(np.max(green_abs_mass(p, np.linspace(0.0, 1.0, m))))
