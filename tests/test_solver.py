"""Fixed-point operator, Picard iteration, linear solves, residual checks."""

from collections import Counter

import numpy as np
import pytest

from fracbvp import (
    DivergenceError,
    DomainError,
    Grid,
    GridFunction,
    ProblemParams,
    ProblemSpec,
    SolutionPair,
    expr,
    gamma,
    linear_solve,
    parse,
    picard_solve,
    residual,
)
from fracbvp.errors import EvaluationError
from fracbvp.greens import companion_weight_matrix, green_weight_matrix
from fracbvp.solver import apply_T, pair_distance, pair_norm, zero_pair

EXAMPLE_D = 4.0 / 11.0  # contraction constant of the worked example


def test_solution_pair_validation(example_params):
    u = GridFunction(Grid(65), np.zeros(65))
    v = GridFunction(Grid(33), np.zeros(33))
    with pytest.raises(DomainError):
        SolutionPair(u, v)


def test_pair_norm_and_distance():
    g = Grid(33)
    a = SolutionPair(GridFunction(g, np.full(33, 2.0)), GridFunction(g, np.full(33, -5.0)))
    b = zero_pair(g)
    assert pair_norm(a) == 5.0
    assert pair_distance(a, b) == 5.0
    assert pair_norm(b) == 0.0


def test_zero_forcing_zero_residual(example_params):
    spec = ProblemSpec(example_params, parse("0"))
    pair = zero_pair(Grid(129))
    rep = residual(spec, pair)
    assert rep.differential == 0.0
    assert rep.boundary_value == 0.0
    assert rep.boundary_fractional == 0.0
    assert rep.consistency == 0.0


def test_linear_solve_constant_forcing(example_params):
    g = Grid(1025)
    pair = linear_solve(example_params, GridFunction(g, np.ones(1025)))
    want_u = g.nodes**1.5 / gamma(2.5) + 1.0 / gamma(2.5) - gamma(1.5) * (g.nodes + 1.0)
    assert np.max(np.abs(pair.u.values - want_u)) <= 1e-12
    assert np.max(np.abs(pair.v.values - (g.nodes - np.sqrt(g.nodes)))) <= 1e-12
    assert abs(pair.u.values[0] + 0.1339741473890843) <= 1e-12


def test_linear_solve_constant_forcing_large_grid(example_params):
    # 2^16 + 1 nodes: dense weight matrices would need about 69 GB here
    n = 2**16 + 1
    g = Grid(n)
    pair = linear_solve(example_params, GridFunction(g, np.ones(n)))
    want_u = g.nodes**1.5 / gamma(2.5) + 1.0 / gamma(2.5) - gamma(1.5) * (g.nodes + 1.0)
    assert np.max(np.abs(pair.u.values - want_u)) <= 1e-12
    assert np.max(np.abs(pair.v.values - (g.nodes - np.sqrt(g.nodes)))) <= 1e-12
    assert abs(pair.u.values[0] - 0.5 * pair.u.values[-1]) <= 1e-15
    assert pair.v.values[0] == 0.0


def test_linear_solve_boundary_property():
    rng = np.random.default_rng(101)
    g = Grid(129)
    for _ in range(5):
        params = ProblemParams(
            float(rng.uniform(1.05, 2.0)),
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(0.05, 0.95)),
        )
        for _ in range(10):
            c = rng.uniform(-2.0, 2.0, size=4)
            y = GridFunction(g, c[0] + c[1] * g.nodes + c[2] * g.nodes**2 + c[3] * g.nodes**3)
            pair = linear_solve(params, y)
            scale = 1.0 + np.max(np.abs(pair.u.values))
            assert abs(pair.u.values[0] - params.xi * pair.u.values[-1]) <= 1e-12 * scale
            assert pair.v.values[0] == 0.0


def test_picard_example_converges(example_solution):
    pair, report = example_solution
    assert report.converged
    assert report.iterations <= 8
    assert report.diffs[-1] <= 1e-10
    assert report.observed_ratio <= EXAMPLE_D + 0.05
    assert abs(pair.u.values[0] - 0.5 * pair.u.values[-1]) <= 1e-15


def test_picard_fixed_point_drift(example_spec, example_solution):
    pair, _ = example_solution
    g = pair.grid
    gw = green_weight_matrix(example_spec.params, g)
    hw = companion_weight_matrix(example_spec.params, g)
    moved = apply_T(example_spec, pair, gw, hw)
    assert pair_distance(pair, moved) <= 2e-10


def test_picard_example_residual(example_spec, example_solution):
    pair, _ = example_solution
    rep = residual(example_spec, pair)
    assert rep.differential <= 5e-3
    assert rep.boundary_value <= 1e-4
    assert rep.boundary_fractional <= 1e-4
    assert rep.consistency <= 1e-4


def test_picard_zero_forcing_finds_zero_pair(example_params):
    spec = ProblemSpec(example_params, parse("0"))
    pair, report = picard_solve(spec, 129)
    assert report.converged
    assert np.all(pair.u.values == 0.0)
    assert np.all(pair.v.values == 0.0)


def test_picard_divergence_raises(example_params):
    spec = ProblemSpec(example_params, parse("100*u"))
    with pytest.raises(DivergenceError) as info:
        picard_solve(spec, 129, max_iter=200)
    assert info.value.iterations <= 200
    assert info.value.last_norm > 1.0


def test_picard_max_iter_exhaustion(example_spec):
    with pytest.raises(DivergenceError) as info:
        picard_solve(example_spec, 129, tol=1e-15, max_iter=2)
    assert info.value.iterations == 2


def test_picard_domain_checks(example_spec):
    with pytest.raises(DomainError):
        picard_solve(example_spec, 32)
    with pytest.raises(DomainError):
        picard_solve(example_spec, 129, tol=0.5)
    with pytest.raises(DomainError):
        picard_solve(example_spec, 129, tol=0.0)
    with pytest.raises(DomainError):
        picard_solve(example_spec, 129, max_iter=0)


def test_rhs_evaluation_error_reports_node(example_params):
    spec = ProblemSpec(example_params, parse("1/(t-0.5)"))
    with pytest.raises(EvaluationError) as info:
        picard_solve(spec, 129)
    assert "0.5" in str(info.value)
    # ln(t) fails at node 0, the division only later at t = 0.5 (node 16)
    spec = ProblemSpec(example_params, parse("1/(t-0.5) + ln(t)"))
    with pytest.raises(EvaluationError) as info:
        picard_solve(spec, 33)
    assert str(info.value) == (
        "right-hand side failed at node 0 (t=0): ln of a non-positive value"
    )
    assert info.value.index == 0


def test_alpha_two_linear_solve():
    # alpha = 2 uses classical second differences in the residual
    params = ProblemParams(2.0, 0.5, 0.5)
    g = Grid(513)
    pair = linear_solve(params, GridFunction(g, np.ones(513)))
    rep = residual(ProblemSpec(params, parse("1")), pair)
    assert rep.differential <= 1e-8
    assert rep.boundary_value <= 1e-12
    assert rep.boundary_fractional <= 1e-4
    assert rep.consistency <= 2e-3


def test_alpha_two_picard(example_spec):
    params = ProblemParams(2.0, 0.5, 0.5)
    spec = ProblemSpec(params, example_spec.rhs)
    pair, report = picard_solve(spec, 513, tol=1e-10)
    assert report.converged
    rep = residual(spec, pair)
    assert rep.differential <= 1e-5
    assert rep.boundary_value <= 1e-12
    assert rep.boundary_fractional <= 1e-4


def test_residual_grid_minimum(example_spec, example_solution):
    pair, _ = example_solution
    small = zero_pair(Grid(65))
    with pytest.raises(DomainError):
        residual(example_spec, small)


def test_iteration_report_fields(example_solution):
    _, report = example_solution
    assert len(report.diffs) == report.iterations
    assert all(d >= 0.0 for d in report.diffs)
    assert isinstance(report.diffs, tuple)


# the three solve templates of perfbench/gen.py at sample coefficients,
# plus a right-hand side that vanishes on the zero pair (probe-seed restart)
SOLVE_TEMPLATES = (
    "0.5*u + 0.02*sin(v) + cos(2.5*t) - 0.7*t^2",
    "-0.5*u + 0.02*v^2/(1 + v^2) + exp(-2.5*t)*sqrt(1 + 0.7*t)",
    "0.5*u + 0.02*cos(u + v) + 0.7*ln(2 + sin(pi*t))",
    "0.5*u*cos(t)",
)


def _state_free_nodes(e):
    """ids of the nodes of e whose subtree mentions neither u nor v."""
    found = []

    def visit(x):
        kids = [getattr(x, name) for name in ("operand", "left", "right", "arg") if hasattr(x, name)]
        free = [visit(k) for k in kids]
        here = all(free) and not (isinstance(x, expr.Var) and x.name != "t")
        if here:
            found.append(id(x))
        return here

    visit(e)
    return found


@pytest.mark.parametrize("src", SOLVE_TEMPLATES)
def test_picard_sweeps_walk_unmasked_and_fold_t_terms_once(example_params, src, monkeypatch):
    # every node visit goes through expr._walk, which calls itself by name
    visits = []
    walk = expr._walk

    def counting_walk(e, env, fails):
        visits.append((id(e), fails is None))
        return walk(e, env, fails)

    monkeypatch.setattr(expr, "_walk", counting_walk)
    spec = ProblemSpec(example_params, parse(src))
    _, report = picard_solve(spec, 129, tol=1e-10)
    assert report.iterations > 5
    assert all(unmasked for _, unmasked in visits), src
    counts = Counter(node for node, _ in visits)
    # once, when picard_solve folds them; never again in a sweep
    free = _state_free_nodes(spec.rhs)
    assert free and all(counts[node] == 1 for node in free), src
