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

    H(t, s) = 1_{s<t}
              - Gamma(2-beta) t^(2-alpha) / (Gamma(3-alpha) Gamma(alpha-beta))
                * (1-s)^(alpha-beta-1).

Its 1_{s<t} = (t-s)_+^0/Gamma(1) is the order-1 Riemann-Liouville kernel,
as G's first term is the order-alpha one.  Both kernels are weakly singular
at s = 1 when alpha - beta < 1, yet their moments against hat functions are
finite, so grid weights exist for every admissible parameter triple.

G is the one kernel written by hand, as a table of terms
(``_green_terms``) whose coefficients are sums of monomials k t^e.
Everything else is derived from that table: H's table is its Caputo
derivative of order alpha-1 in t, taken term by term (``_dt``); the
certificate's theta and the coarse G* bound are the triangle masses of the
two tables (``_triangle_mass``); and the grid weights, the pointwise values
and G's antiderivative come from a table term by term, each by one
function.  On a uniform grid the weights of both kernels are one
:class:`fracops.KernelOperator` of shape (2n, n), G's rows over H's, so the
fixed-point map (G f, H f) is one product: in each block the (t-s)_+ terms
give a lower-triangular Toeplitz matrix plus a rank-1 correction of column
0, and the (1-s) terms a rank-2 (G) or rank-1 (H) update, so the weights
take O(n) memory and apply in O(n log n).  The dense n x n matrices of
:func:`green_weight_matrix` and :func:`companion_weight_matrix` are the
expansions of each block, kept as a small-n reference for tests.

For each t, G(t, .) changes sign at most once, from + to -.  With r = 1-s,
A = xi/(Gamma(alpha)(1-xi)) and B(t) the coefficient of the singular term,

    g(s) = G(t, s) / r^(alpha-beta-1)
         = r^beta [((t-s)_+ / r)^(alpha-1) / Gamma(alpha) + A] - B(t)

on both branches, and g strictly decreases on [0, 1): r^beta strictly
decreases, d/ds (t-s)/(1-s) = (t-1)/(1-s)^2 <= 0, and the bracket is at
least A > 0.  So integral_0^1 |G(t, s)| ds has a closed form in the one
sign change s*(t), which is how :func:`gstar` scans all t in one array
pass.

When g(0) <= 0, s* = 0.  When g(0) > 0 and the bracket is constant where g
changes sign, s* = 1 - (B(t)/(A + [t = 1]/Gamma(alpha)))^(1/beta): the
bracket is A on the right branch (g(t) >= 0), and A + 1/Gamma(alpha) for
every s < 1 at t = 1.  Otherwise g(0) > 0 > g(t) with t < 1, and the root
is found in the variable x = (t-s)/(1-s), which runs from t at s = 0 down
to 0 at s = t, and then z = -(alpha-1) ln x >= 0, so that x^(alpha-1) =
e^(-z) and 1 - s = (1-t)/(1-x).  Multiplying g by (1-x)^beta > 0 gives

    F(z) = (1-t)^beta (e^(-z)/Gamma(alpha) + A) - B(t) w(z)^beta,
    w(z) = 1 - x = -expm1(-z/(alpha-1)),

with the sign of g.  F is convex and strictly decreasing: e^(-z) is
convex and decreasing, and w is positive, concave and increasing, so w^beta
is concave and increasing for 0 < beta < 1.  The (t-s)^(alpha-1) cusp of g
at s = t, which slows Newton's method in s, is gone in z.  For a convex,
decreasing F, a Newton step from a point with F(z) >= 0 lands on the zero
of the tangent, which lies below F, hence at or below the root: the
iterates increase monotonically to the root and never overshoot (Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003, ch. 1).  So
no bracket is needed, and the iteration stops when no iterate both
increases and has F above roundoff, a few eps times its positive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracops import Grid, KernelOperator, gamma, left_kernel_toeplitz

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


# A kernel's terms are (kind, q, c): a coefficient c, a tuple of monomials
# (k, e) meaning c(t) = sum of k t^e with every e >= 0, times
#   "left"   (t-s)_+^(q-1) / Gamma(q), the Riemann-Liouville kernel, zero for
#            s >= t (so at q = 1 it is 1_{s<t});
#   "right"  (1-s)^(q-1).
# Left coefficients are constants (e = 0), so those terms stay Toeplitz.


def _green_terms(p: ProblemParams) -> tuple:
    a, b, xi = p.alpha, p.beta, p.xi
    b1 = gamma(2.0 - b) / gamma(a - b)
    return (
        ("left", a, ((1.0, 0),)),
        ("right", a, ((xi / (gamma(a) * (1.0 - xi)), 0),)),  # A
        ("right", a - b, ((-b1 * xi / (1.0 - xi), 0), (-b1, 1))),  # -B(t)
    )


def _dt(terms, order: float) -> tuple:
    """The Caputo derivative in t of order ``order`` <= 1 of a term table,
    taken term by term.

    A left term's kernel is that of I^q, so its order q becomes q - order; a
    monomial k t^e becomes k Gamma(e+1)/Gamma(e+1-order) t^(e-order), and a
    constant vanishes, so a right term with no monomial left is dropped.
    """
    out = []
    for kind, q, c in terms:
        if kind == "left":
            out.append((kind, q - order, c))
            continue
        c = tuple((k * gamma(e + 1.0) / gamma(e + 1.0 - order), e - order) for k, e in c if e)
        if c:
            out.append((kind, q, c))
    return tuple(out)


def _companion_terms(p: ProblemParams) -> tuple:
    return _dt(_green_terms(p), p.alpha - 1.0)


def _at(c, t):
    """The coefficient c at t, a float or an array; a constant (every e = 0)
    stays a float whatever t is."""
    return sum(k * t**e if e else k for k, e in c)


def _triangle_mass(terms) -> float:
    """An upper bound on sup_t integral_0^1 |kernel(t, s)| ds, term by term.

    Each term adds the largest |coefficient| on [0, 1], the sum of |k| (its
    |c(1)| when the monomials share a sign), times its kernel's mass at
    t = 1: 1/Gamma(q+1) for a left term, 1/q for a right one.  Both factors
    peak at t = 1 because every e >= 0, and a left term's mass t^q/Gamma(q+1)
    grows with t.
    """
    total = 0.0
    for kind, q, c in terms:
        total += sum(abs(k) for k, _ in c) / (gamma(q + 1.0) if kind == "left" else q)
    return total


def _operator(tables, grid: Grid) -> KernelOperator:
    """Exact hat-function moments of term tables at every grid node, one
    block of the operator per table.

    Left terms add into their block's Toeplitz column.  The hat at node 0 is
    cut off at s = 0, so their column 0 is ``first``: the block's first
    factor is (first - column) e_0^T.  The moments of a right term of order
    q are the t = 1 row of the order-q left moments: the Toeplitz column
    reversed, as its last entry (no rising half-cell) equals the first
    column's.  Each right term is one more factor, its coefficient the left
    vector.  The Toeplitz data is built once per distinct order in the call.
    """
    column, factors = np.zeros((len(tables), grid.n)), []
    built: dict = {}  # order -> left_kernel_toeplitz result
    for b, terms in enumerate(tables):
        first, rights = np.zeros(grid.n), []
        for kind, q, c in terms:
            if q not in built:
                built[q] = left_kernel_toeplitz(q, grid)
            col, fst = built[q]
            c = _at(c, grid.nodes)
            if kind == "right":
                w = col[::-1].copy()  # a reversed view would dot in another order
                rights.append((b, 1.0, c * w) if np.ndim(c) == 0 else (b, c, w))
            else:
                column[b] += c * col / gamma(q)
                first += c * fst / gamma(q)
        factors += [(b, first - column[b], 0), *rights]  # right vector e_0
    return KernelOperator(column, tuple(factors))


def _value(terms, t: float, s):
    """Sum of the terms at (t, s); s may be a scalar or an array."""
    total = 0.0
    for kind, q, c in terms:
        c = _at(c, t)
        if kind == "left":  # (s < t) zeroes 0.0 ** 0.0 = 1 at q = 1
            total = total + c * np.maximum(t - s, 0.0) ** (q - 1.0) / gamma(q) * (s < t)
        else:
            total = total + c * (1.0 - s) ** (q - 1.0)
    return total


def _primitive(terms, t: np.ndarray, x):
    """P(t, x) = integral_0^x of a table's terms, for arrays t.

    The right terms' (1 - (1-x)^q)/q are formed as -expm1(q log1p(-x))/q, so
    they keep full precision as q -> 0.
    """
    total = 0.0
    for kind, q, c in terms:
        c = _at(c, t)
        if kind == "left":
            total = total + c * (t**q - np.maximum(t - x, 0.0) ** q) / (q * gamma(q))
        else:
            total = total - c * np.expm1(q * np.log1p(-x)) / q
    return total


def green_branch_value(p: ProblemParams, t: float, s, left: bool):
    """Kernel value using a fixed branch formula; accepts scalar or array s.

    ``left=True`` selects the branch for s <= t; its (t-s)_+^(alpha-1) term
    vanishes for s >= t, so past s = t it equals the right branch.
    ``left=False`` drops that term: the branch for s >= t, real-analytic in
    s below 1, which continues past s = t to the left.
    """
    s = float(s) if np.isscalar(s) else np.asarray(s, dtype=float)
    return _value([term for term in _green_terms(p) if left or term[0] != "left"], t, s)


def kernel_operators(p: ProblemParams, grid: Grid) -> KernelOperator:
    """Exact hat-function moments of G(t_i, .) and H(t_i, .) at every grid
    node t_i, as one (2n, n) operator: G's rows, then H's.

    Applied to samples of y it gives the stacked pair of
    integral_0^1 G(t_i, s) y(s) ds and integral_0^1 H(t_i, s) y(s) ds,
    exactly whenever y is piecewise linear on the grid.  Weights are finite
    even where the kernels are unbounded at s = 1.

    In each block the left term gives the Toeplitz part: of order alpha
    for G, and of order 1 for H, whose moments are the trapezoid rule on
    [0, t_i].  G's two (1-s) terms give a rank-2 update and H's one a
    rank-1 update.  At t_0 = 0 with alpha < 2 H's row is identically zero,
    matching D^(alpha-1) u(0) = 0 for every forcing.  Both kernels have a
    (1-s)^(alpha-beta-1) term, so the Toeplitz data of order alpha - beta is
    built once and shared.
    """
    return _operator((_green_terms(p), _companion_terms(p)), grid)


def green_weight_matrix(p: ProblemParams, grid: Grid) -> np.ndarray:
    """Dense n x n expansion of G's :func:`kernel_operators` rows; a small-n reference."""
    return _operator((_green_terms(p),), grid).dense()


def companion_weight_matrix(p: ProblemParams, grid: Grid) -> np.ndarray:
    """Dense n x n expansion of H's :func:`kernel_operators` rows; a small-n reference."""
    return _operator((_companion_terms(p),), grid).dense()


def gstar_coarse_bound(p: ProblemParams) -> float:
    """Analytic upper bound for gstar: G's triangle mass, which bounds
    (t-s)^(alpha-1) by (1-s)^(alpha-1) and takes each coefficient at t = 1,

        1/((1-xi) Gamma(alpha+1)) + Gamma(2-beta)/((1-xi) Gamma(alpha-beta+1)).
    """
    return _triangle_mass(_green_terms(p))


def theta(p: ProblemParams) -> float:
    """The certificate's companion-kernel envelope: H's triangle mass,

        1 + Gamma(2-beta) / (Gamma(3-alpha) Gamma(alpha-beta+1)),

    which always exceeds 1.
    """
    return _triangle_mass(_companion_terms(p))


# Guard on the Newton passes of green_sign_change, which end when F is at most
# _NEWTON_ROUNDOFF (about 2 eps) times its positive part wherever a step still
# grows: after 6-9 passes typically and under 20 at the parameter edges.
_NEWTON_MAX_PASSES, _NEWTON_ROUNDOFF = 64, 4e-16


def _convex_residual(z, c1, c0, sing, kq, b, q):
    """F(z) of the module docstring, -dF/dz and F's positive part c1 e^-z + c0,
    with c1 = (1-t)^beta / Gamma(alpha), c0 = (1-t)^beta A, kq = B(t) beta q.

    x = e^(-q z) is (t-s)/(1-s) and w = -expm1(-q z) is 1 - x, kept
    without cancellation for x near 1.
    """
    log_x = -q * z
    e, x, w = np.exp(-z), np.exp(log_x), -np.expm1(log_x)
    wb = w**b
    positive = c1 * e + c0
    return positive - sing * wb, c1 * e + kq * x * wb / w, positive


def green_sign_change(p: ProblemParams, t) -> np.ndarray:
    """The point s* in [0, 1] where G(t, .) changes sign, for an array of t.

    G(t, s) >= 0 for s <= s* and G(t, s) <= 0 for s >= s*, with s* = 0 when
    G(t, .) is nowhere positive.  Where g(0) > 0 and g's bracket is constant
    (on the right branch, g(t) >= 0, and at t = 1) s* is one closed form,
    1 - (B(t)/(A + [t = 1]/Gamma(alpha)))^(1/beta); at every other t with
    g(0) > 0 it is the root of F, found by Newton's method run on all such t
    at once.  The lemma, the closed form and the reason no bracket is needed
    are in the module docstring.
    """
    t = np.asarray(t, dtype=float)
    a, b = p.alpha, p.beta
    _, (_, _, ratio), (_, _, minus_sing) = _green_terms(p)
    ga = gamma(a)
    t1 = np.atleast_1d(t)
    ratio, sing = _at(ratio, t1), -_at(minus_sing, t1)
    at_one = t1 == 1.0
    # an overflowing closed form is never selected
    with np.errstate(over="ignore"):
        g0 = t1 ** (a - 1.0) / ga + ratio - sing  # g(0)
        on_right = (1.0 - t1) ** b * ratio - sing >= 0.0  # g(t) >= 0
        closed = (on_right | at_one) & (g0 > 0.0)
        out = np.where(closed, 1.0 - (sing / (ratio + at_one / ga)) ** (1.0 / b), 0.0)
    idx = np.flatnonzero((g0 > 0.0) & ~closed)
    if len(idx):
        tl, bl = t1[idx], sing[idx]
        scale, q = (1.0 - tl) ** b, 1.0 / (a - 1.0)
        c1, c0, kq = scale / ga, scale * ratio, bl * b * q
        # Start at s = 0 or, if larger, at the z where scale (e^-z/Gamma(alpha)
        # + A) = B(t) >= B(t) w^beta; F >= 0 at both, so both lie below the root.
        z = np.maximum(-(a - 1.0) * np.log(tl), -np.log(ga * (bl - scale * ratio) / scale))
        for _ in range(_NEWTON_MAX_PASSES):
            f, slope, positive = _convex_residual(z, c1, c0, bl, kq, b, q)
            step = z + f / slope
            grow = (step > z) & (f > _NEWTON_ROUNDOFF * positive)
            if not grow.any():
                break
            z = np.where(grow, step, z)
        # s* = 1 - (1-t)/(1-x); forming it as (t - x)/(1 - x) cancels near t = 1
        out[idx] = np.clip(1.0 - (1.0 - tl) / -np.expm1(-q * z), 0.0, tl)
    return out.reshape(t.shape)


def green_abs_mass(p: ProblemParams, t) -> np.ndarray:
    """M(t) = integral_0^1 |G(t, s)| ds for an array of t, in closed form.

    With s* from :func:`green_sign_change` and the kernel's antiderivative
    P(t, x) = integral_0^x G(t, s) ds, M(t) = 2 P(t, s*) - P(t, 1).
    """
    t = np.asarray(t, dtype=float)
    s_star = green_sign_change(p, t)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf, where expm1 gives -1
        mass = _primitive(_green_terms(p), t, np.stack([s_star, np.ones_like(s_star)]))
    return 2.0 * mass[0] - mass[1]


def gstar(p: ProblemParams, m: int = 513, *, n: int | None = None) -> float:
    """sup over t of integral_0^1 |G(t, s)| ds, scanned on m uniform t nodes.

    Each scan value is the closed-form mass of :func:`green_abs_mass`,
    exact up to roundoff because G(t, .) changes sign at most once, from +
    to - (see the module docstring).

    The result is the maximum over the scan nodes, a lower bound on the
    supremum.  ``n`` is ignored: it is accepted only so that callers that
    still pass it keep working.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got m={m}")
    return float(np.max(green_abs_mass(p, np.linspace(0.0, 1.0, m))))
