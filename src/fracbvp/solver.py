"""Fixed-point solver for the nonlinear problem and residual verification.

The nonlinear problem D^alpha u = f(t, u, D^(alpha-1) u) with ratio boundary
conditions is solved as a fixed point of the integral operator

    (T w)(t)  = integral_0^1 G(t, s) f(s, u(s), v(s)) ds,
    (T w)'(t) = integral_0^1 H(t, s) f(s, u(s), v(s)) ds,

acting on pairs w = (u, v); v approximates the reduced derivative
D^(alpha-1) u through the companion kernel, never through numerical
differentiation of u.  Distances between pairs use the norm
max(sup|u|, sup|v|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, EvaluationError
from .expr import Expr, evaluate, fold_invariants
from .fracops import Grid, GridFunction, caputo_grid
from .greens import KernelOperator, ProblemParams, companion_operator, green_operator

DIVERGENCE_CAP = 1e8
# Constant pair used to re-seed the iteration when the zero start lands on a
# fixed point immediately; see picard_solve.
_PROBE_SEED = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """Problem parameters plus the right-hand side f as an expression tree."""

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
    """Convergence record of one fixed-point run."""

    iterations: int
    diffs: tuple[float, ...]
    converged: bool
    observed_ratio: float


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


def zero_pair(grid: Grid) -> SolutionPair:
    z = np.zeros(grid.n)
    return SolutionPair(GridFunction(grid, z), GridFunction(grid, z))


def pair_distance(a: SolutionPair, b: SolutionPair) -> float:
    du = float(np.max(np.abs(a.u.values - b.u.values)))
    dv = float(np.max(np.abs(a.v.values - b.v.values)))
    return max(du, dv)


def pair_norm(a: SolutionPair) -> float:
    return max(float(np.max(np.abs(a.u.values))), float(np.max(np.abs(a.v.values))))


def _rhs_samples(spec: ProblemSpec, pair: SolutionPair) -> np.ndarray:
    nodes = pair.grid.nodes
    try:
        return evaluate(spec.rhs, nodes, pair.u.values, pair.v.values)
    except EvaluationError as exc:
        j = exc.index
        raise EvaluationError(
            f"right-hand side failed at node {j} (t={nodes[j]:.6g}): {exc}", j
        ) from exc


def apply_T(
    spec: ProblemSpec,
    pair: SolutionPair,
    green_w: KernelOperator | np.ndarray,
    companion_w: KernelOperator | np.ndarray,
) -> SolutionPair:
    """One application of the integral operator to a pair.

    ``green_w`` and ``companion_w`` are the precomputed weights for the
    pair's grid: anything with ``.shape`` and ``@``, such as the operators
    of greens.green_operator or their dense expansions.
    """
    n = pair.grid.n
    if green_w.shape != (n, n) or companion_w.shape != (n, n):
        raise DomainError("weight matrices do not match the pair's grid")
    f = _rhs_samples(spec, pair)
    return SolutionPair(
        GridFunction(pair.grid, green_w @ f),
        GridFunction(pair.grid, companion_w @ f),
    )


def _observed_ratio(diffs: list[float]) -> float:
    ratios = [
        diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0.0
    ]
    if not ratios:
        return 0.0
    return max(ratios[-5:])


def _iterate(
    spec: ProblemSpec,
    start: SolutionPair,
    green_w: KernelOperator,
    companion_w: KernelOperator,
    tol: float,
    max_iter: int,
) -> tuple[SolutionPair, IterationReport]:
    pair = start
    diffs: list[float] = []
    for it in range(1, max_iter + 1):
        nxt = apply_T(spec, pair, green_w, companion_w)
        diffs.append(pair_distance(nxt, pair))
        pair = nxt
        norm = pair_norm(pair)
        if norm > DIVERGENCE_CAP:
            raise DivergenceError(
                f"iterates exceeded norm {DIVERGENCE_CAP:g} at iteration {it}; "
                "the contraction condition likely fails",
                it,
                norm,
            )
        if diffs[-1] <= tol:
            report = IterationReport(it, tuple(diffs), True, _observed_ratio(diffs))
            return pair, report
    raise DivergenceError(
        f"no convergence within {max_iter} iterations "
        f"(last step {diffs[-1]:.3g} > tol {tol:.3g}); "
        "the contraction condition likely fails",
        max_iter,
        pair_norm(pair),
    )


def picard_solve(
    spec: ProblemSpec,
    n: int,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[SolutionPair, IterationReport]:
    """Iterate the integral operator from the zero pair until steps fall
    below tol in the pair norm.

    A first step of exactly zero means the zero pair is itself a fixed point
    of the discrete map (f vanishes along it).  That alone does not certify
    it: when the operator expands, the iteration cannot distinguish a genuine
    solution from an unstable rest point it happens to start on.  In that
    degenerate case the run restarts from a constant probe pair and its
    outcome is reported instead; an expanding map then surfaces as a
    divergence error rather than a false success.

    The right-hand side's u,v-free subtrees are sampled at the grid nodes
    once (:func:`expr.fold_invariants`), so each sweep evaluates only the
    part of f that changes.

    Raises :class:`DivergenceError` when iterates grow past the norm cap or
    max_iter is exhausted without contraction.
    """
    if n < 33:
        raise DomainError(f"solver grid needs n >= 33, got {n}")
    if not (math.isfinite(tol) and 0.0 < tol <= 1e-2):
        raise DomainError(f"tolerance must lie in (0, 1e-2], got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    grid = Grid(n)
    green_w = green_operator(spec.params, grid)
    companion_w = companion_operator(spec.params, grid)
    spec = ProblemSpec(spec.params, fold_invariants(spec.rhs, grid.nodes))
    pair, report = _iterate(spec, zero_pair(grid), green_w, companion_w, tol, max_iter)
    if report.iterations == 1:
        seed = SolutionPair(
            GridFunction(grid, np.full(n, _PROBE_SEED)),
            GridFunction(grid, np.full(n, _PROBE_SEED)),
        )
        pair, report = _iterate(spec, seed, green_w, companion_w, tol, max_iter)
    return pair, report


def linear_solve(params: ProblemParams, y: GridFunction) -> SolutionPair:
    """Solve the linear problem D^alpha u = y by one weight application."""
    grid = y.grid
    u = green_operator(params, grid) @ y.values
    v = companion_operator(params, grid) @ y.values
    return SolutionPair(GridFunction(grid, u), GridFunction(grid, v))


def _grid_derivative(values: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (values[1] - values[0]) / h
    out[-1] = (values[-1] - values[-2]) / h
    return out


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

    du = _grid_derivative(u, h)
    if a < 2.0:
        d_alpha = caputo_grid(a - 1.0, GridFunction(grid, du)).values
        d_reduced = caputo_grid(a - 1.0, pair.u).values
    else:
        d_alpha = np.zeros(grid.n)
        d_alpha[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        d_reduced = du

    f = _rhs_samples(spec, pair)
    differential = float(np.max(np.abs(d_alpha[1:-1] - f[1:-1])))

    boundary_value = abs(float(u[0]) - xi * float(u[-1]))
    d_beta = caputo_grid(b, pair.u).values
    boundary_fractional = abs(float(d_beta[0]) - xi * float(d_beta[-1]))
    consistency = float(np.max(np.abs(d_reduced - v)))
    return ResidualReport(differential, boundary_value, boundary_fractional, consistency)
