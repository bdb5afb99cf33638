"""Fixed-point operator, Picard iteration, linear solves, residual checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbvp import (
    DivergenceError,
    DomainError,
    Grid,
    GridFunction,
    ProblemParams,
    ProblemSpec,
    SolutionPair,
    caputo_grid,
    expr,
    gamma,
    linear_solve,
    parse,
    picard_solve,
    residual,
)
from fracbvp.errors import EvaluationError
from fracbvp import greens, solver
from fracbvp.greens import companion_weight_matrix, green_weight_matrix, kernel_operators
from fracbvp.solver import apply_T, pair_distance

from conftest import pair_norm, zero_pair

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


def test_residual_builds_the_reduced_l1_weights_once(example_spec, monkeypatch):
    # two order-(alpha-1) inputs share one weight spectrum: 1 + 2 transforms,
    # plus 2 for the order-beta derivative
    pair, _ = picard_solve(example_spec, 8193, tol=1e-10)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    rep = residual(example_spec, pair)
    monkeypatch.undo()
    assert len(calls) == 5
    # bit for bit what one caputo_grid call per derivative gives
    grid, u, v = pair.grid, pair.u.values, pair.v.values
    du = GridFunction(grid, np.gradient(u, grid.h))
    f = solver._rhs_samples(example_spec, grid.nodes, u, v)
    want = np.max(np.abs(caputo_grid(0.5, du).values[1:-1] - f[1:-1]))
    assert rep.differential == want
    assert rep.consistency == np.max(np.abs(caputo_grid(0.5, pair.u).values - v))


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
    assert isinstance(report.accelerated, tuple)
    assert len(report.accelerated) == report.iterations


# the three solve templates of perfbench/gen.py at sample coefficients,
# plus a right-hand side that vanishes on the zero pair (probe-seed restart)
SOLVE_TEMPLATES = (
    "0.5*u + 0.02*sin(v) + cos(2.5*t) - 0.7*t^2",
    "-0.5*u + 0.02*v^2/(1 + v^2) + exp(-2.5*t)*sqrt(1 + 0.7*t)",
    "0.5*u + 0.02*cos(u + v) + 0.7*ln(2 + sin(pi*t))",
    "0.5*u*cos(t)",
)


@pytest.mark.parametrize("src", SOLVE_TEMPLATES)
def test_picard_sweeps_walk_unmasked(example_params, src, monkeypatch):
    # every node visit goes through expr._walk, which calls itself by name
    visits = []
    walk = expr._walk

    def counting_walk(e, env, fails):
        visits.append(fails is None)
        return walk(e, env, fails)

    monkeypatch.setattr(expr, "_walk", counting_walk)
    spec = ProblemSpec(example_params, parse(src))
    _, report = picard_solve(spec, 129, tol=1e-10)
    assert report.iterations > 5
    assert visits and all(visits), src


@pytest.mark.parametrize("n", [129, 513, 8193])
def test_shared_transform_matches_separate_matmuls(example_params, n):
    # the stacked operator's blocks give what each kernel's own operator gives
    g = Grid(n)
    y = GridFunction(g, np.cos(3.0 * g.nodes) + np.sqrt(g.nodes) - 0.3)
    pair = linear_solve(example_params, y)
    for values, terms in ((pair.u.values, greens._green_terms), (pair.v.values, greens._companion_terms)):
        assert np.array_equal(values, greens._operator((terms(example_params),), g) @ y.values)


def test_a_sweep_transforms_f_once(example_spec, monkeypatch):
    # two forward transforms build the operators' spectra, then one per sweep
    calls = []
    rfft = np.fft.rfft

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    _, report = picard_solve(example_spec, 513, tol=1e-10)
    assert len(calls) == 2 + report.iterations


def test_squares_in_a_solve_skip_numpys_power(example_params, monkeypatch):
    calls = []
    power = np.power
    monkeypatch.setattr(np, "power", lambda a, b: calls.append(1) or power(a, b))
    rhs = parse("-0.5*u + 0.02*v^2/(1 + v^2) + exp(-2.5*t)*sqrt(1 + 0.7*t)")
    _, report = picard_solve(ProblemSpec(example_params, rhs), 513)
    assert report.converged and calls == []
    nodes = Grid(513).nodes
    expr.evaluate(parse("u^(t/2)"), nodes, nodes, nodes)
    assert len(calls) == 1


def test_non_finite_iterate_raises_divergence(example_params):
    # f = 1e308 overflows the transform, so the first image is nan
    with pytest.raises(DivergenceError) as info:
        picard_solve(ProblemSpec(example_params, parse("1e308")), 129)
    assert info.value.iterations == 1
    assert np.isnan(info.value.last_norm)


# The acceleration's guard cases, at the example's (alpha, beta, xi): the
# plain ratios settle near 0.33 |c|, so c = 2.5 contracts (ratio 0.83) and
# |c| >= 4 expands.
GUARD_RHS = "{c}*u + 0.05*sin(v) + cos(3*t)"


def plain_picard(spec, n, tol):
    """Plain fixed-point iteration by the solver's own step, from the zero pair."""
    g = Grid(n)
    weights = kernel_operators(spec.params, g)
    x = np.zeros(2 * n)
    for _ in range(5000):
        nxt = solver._step(spec, g.nodes, x, weights)
        step = np.max(np.abs(nxt - x))
        x = nxt
        if step <= tol:
            return solver._pair(g, x)
    raise AssertionError("plain iteration did not converge")


@pytest.mark.parametrize(
    "ratios, want",
    [
        ([0.5, 0.4], 0.0),  # too few
        ([1.2, 0.7, 0.6, 0.5], 0.7),  # only the last three count
        ([0.6, 0.605, 0.606], 0.606),  # climbing within 1%: the largest
        ([0.5, 0.6, 0.61], 0.0),  # climbing by 20%
        ([0.995, 1.004, 1.005], 0.0),  # within 1%, but not below 1
        ([0.3, 0.2, 1.0], 0.0),
    ],
)
def test_witness(ratios, want):
    assert solver._witness(ratios) == want


EXPANDING_RHS = {str(c): GUARD_RHS.format(c=c) for c in (4, -4, 5, -5, -10)}
# the first step, about 1e-12, already meets tol; the probe restart must catch it
EXPANDING_RHS["tiny_first_step"] = "100*u + 1e-12"


@pytest.mark.parametrize("rhs", EXPANDING_RHS.values(), ids=EXPANDING_RHS.keys())
def test_expanding_maps_still_diverge(example_params, rhs):
    spec = ProblemSpec(example_params, parse(rhs))
    with pytest.raises(DivergenceError):
        picard_solve(spec, 513, tol=1e-10)


def test_slow_contraction_is_accelerated(example_params):
    spec = ProblemSpec(example_params, parse(GUARD_RHS.format(c=2.5)))
    pair, report = picard_solve(spec, 513, tol=1e-10)
    assert report.iterations <= 15
    assert any(report.accelerated) and not report.accelerated[0]
    assert 0.8 <= report.observed_ratio < 1.0
    g = pair.grid
    gw, hw = green_weight_matrix(example_params, g), companion_weight_matrix(example_params, g)
    assert pair_distance(pair, apply_T(spec, pair, gw, hw)) <= 1e-10


def test_anderson_candidate_is_the_least_squares_extrapolation():
    # 8 accepted iterates give 7 differences, of which the history keeps the
    # last _DEPTH; its candidate is g - dG gamma with gamma the least-squares
    # fit of f by dF
    rng = np.random.default_rng(7)
    history = solver._Anderson()
    for _ in range(8):
        g, f = rng.normal(size=(2, 64))
        history.accept(g, f)
    assert len(history.df) == len(history.dg) == solver._DEPTH
    gamma, *_ = np.linalg.lstsq(np.array(history.df).T, f, rcond=None)
    want = g - np.array(history.dg).T @ gamma
    assert np.max(np.abs(history.candidate() - want)) <= 1e-10 * np.max(np.abs(want))
    history.restart()
    assert len(history.df) == len(history.dg) == 0


def test_rejected_candidates_leave_the_plain_trajectory(example_params, monkeypatch):
    # A candidate equal to the last accepted iterate never shrinks its step,
    # so each is rejected and the accepted iterates are the plain ones.
    spec = ProblemSpec(example_params, parse(GUARD_RHS.format(c=1.5)))
    plain = plain_picard(spec, 513, 1e-10)
    monkeypatch.setattr(solver._Anderson, "candidate", lambda self: self.g - self.f)
    pair, report = picard_solve(spec, 513, tol=1e-10)
    assert np.array_equal(pair.u.values, plain.u.values)
    assert np.array_equal(pair.v.values, plain.v.values)
    flags = report.accelerated
    assert any(flags) and not any(a and b for a, b in zip(flags, flags[1:]))


@pytest.mark.parametrize("bad", [np.inf, -1e30, 1e300])
def test_candidates_that_fail_are_rejected(example_params, monkeypatch, bad):
    # -1e30 fails ln's domain check, inf is a non-finite input, and 1e300
    # gives an image past the norm cap
    spec = ProblemSpec(example_params, parse("1.5*u + 0.1*ln(3 + u) + cos(3*t)"))
    want, _ = picard_solve(spec, 513, tol=1e-10)
    monkeypatch.setattr(solver._Anderson, "candidate", lambda self: np.full_like(self.g, bad))
    pair, report = picard_solve(spec, 513, tol=1e-10)
    assert report.converged
    assert pair_distance(pair, want) <= 1e-8
    # failed candidates are not sweeps: every recorded sweep is plain
    assert len(report.diffs) == report.iterations and not any(report.accelerated)


def test_near_critical_contraction_is_accepted(example_params):
    # At c = 3 the plain ratios start at 1.07 and settle at 0.992: the map
    # contracts, so the witness holds, but Picard needs about 2600 sweeps.
    # The accelerated solve lands on Picard's fixed point, and its reported
    # ratio comes from the witness's window, not the start-up ratios.
    spec = ProblemSpec(example_params, parse(GUARD_RHS.format(c=3)))
    pair, report = picard_solve(spec, 513, tol=1e-10)
    assert report.iterations <= 15
    assert report.converged and report.observed_ratio < 1.0
    ref = plain_picard(spec, 513, 1e-12)
    assert pair_distance(pair, ref) <= 1e-7 * max(1.0, pair_norm(ref))


# the perfbench solve box: alpha 1.3-1.9, beta 0.1-0.6, xi 0.2-0.6
@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(1.3, 1.9),
    beta=st.floats(0.1, 0.6),
    xi=st.floats(0.2, 0.6),
    q=st.floats(0.05, 0.75),
    share=st.floats(0.0, 0.9),
    sign=st.sampled_from([-1.0, 1.0]),
    w=st.floats(0.5, 4.0),
)
def test_accelerated_solve_matches_plain_picard(alpha, beta, xi, q, share, sign, w):
    params = ProblemParams(alpha, beta, xi)
    g = Grid(513)
    # L bounds the discrete map's gain: max row sums of |weights|, so
    # a*u + b*sin(v) with |a| + |b| = q/L contracts with constant <= q
    lip = max(np.max(np.sum(np.abs(m(params, g)), axis=1))
              for m in (green_weight_matrix, companion_weight_matrix))
    a, b = float(sign * (1.0 - share) * q / lip), float(share * q / lip)
    spec = ProblemSpec(params, parse(f"{a!r}*u + {b!r}*sin(v) + cos({w!r}*t) - t"))
    pair, report = picard_solve(spec, 513, tol=1e-10)
    ref = plain_picard(spec, 513, 1e-13)
    scale = max(1.0, pair_norm(ref))
    assert pair_distance(pair, ref) <= 1e-8 * scale
    gw, hw = green_weight_matrix(params, g), companion_weight_matrix(params, g)
    assert pair_distance(pair, apply_T(spec, pair, gw, hw)) <= 1e-10
    assert len(report.accelerated) == report.iterations
