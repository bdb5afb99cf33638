"""Fixed-point solver for the nonlinear problem and residual verification.

The nonlinear problem D^alpha u = f(t, u, D^(alpha-1) u) with ratio boundary
conditions is solved as a fixed point of the integral operator

    (T w)(t)  = integral_0^1 G(t, s) f(s, u(s), v(s)) ds,
    (T w)'(t) = integral_0^1 H(t, s) f(s, u(s), v(s)) ds,

acting on pairs w = (u, v); v approximates the reduced derivative
D^(alpha-1) u through the companion kernel, never through numerical
differentiation of u.  Distances between pairs use the norm
max(sup|u|, sup|v|).  The fixed-point loop works on the stacked (2n,)
array (u, v) and builds pairs only for its result.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, EvaluationError
from .expr import Expr, evaluate
from .fracops import Grid, GridFunction, KernelOperator, _caputo_l1, _power_steps, gamma
from .greens import ProblemParams, kernel_operators

DIVERGENCE_CAP = 1e8
# Constant pair used to re-seed the iteration when the zero start lands on a
# fixed point immediately; see picard_solve.
_PROBE_SEED = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """Problem parameters plus the right-hand side f as a parsed expression."""

    params: ProblemParams
    rhs: Expr


@dataclass(frozen=True, eq=False)
class SolutionPair:
    """A candidate solution u together with its reduced derivative v."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise DomainError("solution components must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one fixed-point run.

    ``diffs`` holds ||T x - x|| for each sweep's iterate x, and
    ``accelerated`` whether that x was an Anderson candidate.
    ``observed_ratio`` is the largest of the last three plain-step ratios,
    the window the contraction witness judges.  ``restarted`` says that the
    run restarted from the probe pair (see :func:`picard_solve`); the other
    fields then describe the restarted run only.
    """

    iterations: int
    diffs: tuple[float, ...]
    converged: bool
    observed_ratio: float
    accelerated: tuple[bool, ...]
    restarted: bool = False


@dataclass(frozen=True)
class ResidualReport:
    """Defect measurements for a candidate solution pair."""

    differential: float
    boundary_value: float
    boundary_fractional: float
    consistency: float

    def as_dict(self) -> dict[str, float]:
        return {
            "differential_residual": self.differential,
            "boundary_value_defect": self.boundary_value,
            "boundary_fractional_defect": self.boundary_fractional,
            "consistency_defect": self.consistency,
        }


def pair_distance(a: SolutionPair, b: SolutionPair) -> float:
    du = float(np.max(np.abs(a.u.values - b.u.values)))
    dv = float(np.max(np.abs(a.v.values - b.v.values)))
    return max(du, dv)


def _rhs_samples(spec: ProblemSpec, nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    try:
        return evaluate(spec.rhs, nodes, u, v)
    except EvaluationError as exc:
        j = exc.index
        raise EvaluationError(
            f"right-hand side failed at node {j} (t={nodes[j]:.6g}): {exc}", j
        ) from exc


def _step(spec: ProblemSpec, nodes: np.ndarray, x: np.ndarray, weights: KernelOperator) -> np.ndarray:
    """T applied to the stacked pair x = (u, v), as the stacked (2n,) image
    ``weights @ f`` of the stacked operator of greens.kernel_operators.

    An image that overflows comes back non-finite, for the caller's norm
    test to catch.
    """
    n = len(nodes)
    f = _rhs_samples(spec, nodes, x[:n], x[n:])
    with np.errstate(over="ignore", invalid="ignore"):
        return weights @ f


def _pair(grid: Grid, x: np.ndarray) -> SolutionPair:
    return SolutionPair(GridFunction(grid, x[: grid.n]), GridFunction(grid, x[grid.n :]))


def apply_T(spec: ProblemSpec, pair: SolutionPair, green_w, companion_w) -> SolutionPair:
    """One application of the integral operator to a pair.

    ``green_w`` and ``companion_w`` are per-kernel n x n weights for the
    pair's grid: anything with ``.shape`` and ``@``, such as the dense
    references greens.green_weight_matrix and companion_weight_matrix.
    The solver itself applies the stacked operator of
    greens.kernel_operators.
    """
    grid = pair.grid
    n = grid.n
    if green_w.shape != (n, n) or companion_w.shape != (n, n):
        raise DomainError("weight matrices do not match the pair's grid")
    f = _rhs_samples(spec, grid.nodes, pair.u.values, pair.v.values)
    with np.errstate(over="ignore", invalid="ignore"):
        return _pair(grid, np.concatenate((green_w @ f, companion_w @ f)))


# The contraction witness: the last _WITNESS plain-step ratios must each be
# < 1 and none may exceed the one before by more than the relative slack
# _RISE (the ratios of a contracting map climb to their limit from below in
# small steps).  A candidate whose step falls below _JUMP times the witnessed
# ratio times the last step has outrun its history, which restarts.  _DEPTH
# is the number of past steps Anderson's method combines.
_WITNESS = 3
_RISE = 0.01
_JUMP = 0.01
_DEPTH = 5


def _witness(ratios: list[float]) -> float:
    """The witnessed contraction ratio of a list of plain-step ratios: the
    largest of the last ``_WITNESS`` when they hold as a witness, else 0."""
    tail = ratios[-_WITNESS:]
    holds = len(tail) == _WITNESS and max(tail) < 1.0
    holds = holds and all(b <= a * (1.0 + _RISE) for a, b in zip(tail, tail[1:]))
    return max(tail) if holds else 0.0


class _Anderson:
    """Anderson's extrapolation, undamped (Walker & Ni, SIAM J. Numer. Anal.
    49, 2011), from the accepted iterates of a fixed-point loop.

    Holds the last accepted iterate's image g = T x and residual f = g - x,
    and the differences dF, dG of up to ``_DEPTH`` consecutive residuals and
    images.  The candidate is g - dG gamma, where gamma minimizes the 2-norm
    of f - dF gamma, fitted on dF itself as Walker & Ni do; its normal
    equations would square the condition number that magnifies roundoff.
    """

    def __init__(self) -> None:
        self.g = self.f = None
        self.df: deque[np.ndarray] = deque(maxlen=_DEPTH)
        self.dg: deque[np.ndarray] = deque(maxlen=_DEPTH)

    def restart(self) -> None:
        """Forget the differences; keep the last accepted iterate."""
        self.df.clear()
        self.dg.clear()

    def accept(self, g: np.ndarray, f: np.ndarray) -> None:
        """Take the next accepted iterate's image g and residual f."""
        if self.f is not None:
            self.df.append(f - self.f)
            self.dg.append(g - self.g)
        self.g, self.f = g, f

    def candidate(self) -> np.ndarray:
        y, *_ = np.linalg.lstsq(np.array(self.df).T, self.f, rcond=None)
        return self.g - y @ np.array(self.dg)


def _iterate(
    spec: ProblemSpec,
    grid: Grid,
    x: np.ndarray,
    weights: KernelOperator,
    tol: float,
    max_iter: int,
) -> tuple[SolutionPair, IterationReport]:
    """The fixed-point loop of :func:`picard_solve`, from the stacked pair x.

    Every sweep evaluates T at one iterate x and records ||T x - x||.  A
    candidate whose right-hand side cannot be evaluated, or whose image is
    not below the norm cap, is rejected like one whose step is too large,
    and is not recorded as a sweep: those errors are raised for plain
    iterates only.
    """
    nodes = grid.nodes
    diffs: list[float] = []
    accelerated: list[bool] = []
    ratios: list[float] = []  # plain-step ratios only
    history = _Anderson()
    witness = 0.0  # the witnessed ratio; 0 until the witness holds
    last = None  # step of the last accepted iterate
    candidate = False
    while len(diffs) < max_iter:
        try:
            gx = _step(spec, nodes, x, weights)
            norm = float(np.max(np.abs(gx)))
        except EvaluationError:
            if not candidate:
                raise
            norm = math.nan
        # not <=, so that a nan image counts as divergent
        accept = norm <= DIVERGENCE_CAP
        if not (accept or candidate):
            it = len(diffs) + 1
            raise DivergenceError(
                f"iterate norm {norm:.3g} is not below {DIVERGENCE_CAP:g} at iteration {it}; "
                "the contraction condition likely fails",
                it,
                norm,
            )
        if accept:
            step = gx - x
            diff = float(np.max(np.abs(step)))
            diffs.append(diff)
            accelerated.append(candidate)
            if diff <= tol:
                ratio = max(ratios[-_WITNESS:], default=0.0)
                report = IterationReport(len(diffs), tuple(diffs), True, ratio, tuple(accelerated))
                return _pair(grid, gx), report
            accept = not candidate or diff <= witness * last
        if not accept:
            # the plain step from the last accepted iterate, which the
            # history restarts from
            x, candidate = history.g, False
            history.restart()
            continue
        if not candidate and last is not None:
            ratios.append(diff / last)
            witness = _witness(ratios)
        if candidate and diff < _JUMP * witness * last:
            history.restart()
        history.accept(gx, step)
        last = diff
        candidate = witness > 0.0 and len(history.df) > 0
        x = history.candidate() if candidate else gx
    raise DivergenceError(
        f"no convergence within {max_iter} iterations "
        f"(last step {diffs[-1]:.3g} > tol {tol:.3g}); "
        "the contraction condition likely fails",
        max_iter,
        norm,
    )


def picard_solve(
    spec: ProblemSpec,
    n: int,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[SolutionPair, IterationReport]:
    """Iterate the integral operator from the zero pair until steps fall
    below tol in the pair norm.

    The iteration is Picard's, accelerated by Anderson's method (depth 5)
    once a contraction witness holds: the last three plain-step ratios
    ||T^2 x - T x|| / ||T x - x|| are each < 1 and none exceeds the one
    before by more than 1%.  Until then every step is a plain T step, so an
    expanding map still runs into the norm cap or max_iter.  An Anderson
    candidate is kept only when its step ||T x - x|| is at most the
    witnessed ratio times the previous iterate's; otherwise the loop takes
    the plain step instead and restarts the history, as it also does after
    a kept candidate whose step is 100 times smaller still.  Convergence is
    tested on T images only: the returned pair is T x for an iterate x with
    ||T x - x|| <= tol.  ``report.accelerated`` flags the sweeps whose
    iterate was a candidate, and ``report.observed_ratio`` is the largest
    of the last three plain-step ratios, from the witness steps and the
    plain steps after a rejected candidate; candidates never enter it.

    When the very first sweep already meets tol, the run restarts from a
    constant probe pair and reports that run instead, flagged
    ``report.restarted``.  One small step from the zero pair says only that
    f nearly vanishes there, not that the map contracts; an unstable rest
    point looks the same.  For f = 100 u + 1e-12 the first step is about
    1e-12, yet the map expands, and the restart turns a false success into a
    divergence error.

    Raises :class:`DivergenceError` when a plain iterate's norm is not below
    the norm cap (a nan iterate included) or max_iter sweeps pass without
    convergence.
    """
    if n < 33:
        raise DomainError(f"solver grid needs n >= 33, got {n}")
    if not (math.isfinite(tol) and 0.0 < tol <= 1e-2):
        raise DomainError(f"tolerance must lie in (0, 1e-2], got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    grid = Grid(n)
    weights = kernel_operators(spec.params, grid)
    pair, report = _iterate(spec, grid, np.zeros(2 * n), weights, tol, max_iter)
    if report.iterations == 1:
        seed = np.full(2 * n, _PROBE_SEED)
        pair, report = _iterate(spec, grid, seed, weights, tol, max_iter)
        report = replace(report, restarted=True)
    return pair, report


def linear_solve(params: ProblemParams, y: GridFunction) -> SolutionPair:
    """Solve the linear problem D^alpha u = y by one weight application."""
    grid = y.grid
    return _pair(grid, kernel_operators(params, grid) @ y.values)


def residual(spec: ProblemSpec, pair: SolutionPair) -> ResidualReport:
    """Independent defect check of a candidate pair.

    The order-alpha derivative of u is reconstructed as the order-(alpha-1)
    Caputo derivative of the difference-quotient derivative of u (central
    differences inside, one-sided at the ends); at alpha = 2 both reductions
    collapse to classical difference quotients.  This path never feeds back
    into the solver loop, so it is a genuinely separate measurement.
    """
    grid = pair.grid
    if grid.n < 129:
        raise DomainError(f"residual check needs n >= 129, got {grid.n}")
    params = spec.params
    a, b, xi = params.alpha, params.beta, params.xi
    h = grid.h
    u, v = pair.u.values, pair.v.values

    du = np.gradient(u, h)
    if a < 2.0:
        reduced = _caputo_l1(a - 1.0, grid)  # one weight build for both inputs
        d_alpha = reduced(du)
        d_reduced = reduced(u)
    else:
        d_alpha = np.zeros(grid.n)
        d_alpha[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        d_reduced = du

    f = _rhs_samples(spec, grid.nodes, u, v)
    differential = float(np.max(np.abs(d_alpha[1:-1] - f[1:-1])))

    boundary_value = abs(float(u[0]) - xi * float(u[-1]))
    # D^beta u(0) = 0 in the L1 scheme, so only the t = 1 row is needed
    d_beta = np.sum(_power_steps(1.0 - b, grid.n)[::-1] * np.diff(u)) * h ** (-b) / gamma(2.0 - b)
    boundary_fractional = xi * abs(float(d_beta))
    consistency = float(np.max(np.abs(d_reduced - v)))
    return ResidualReport(differential, boundary_value, boundary_fractional, consistency)
