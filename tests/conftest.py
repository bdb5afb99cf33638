"""Shared fixtures for the test suite.

The worked problem used throughout: alpha = 3/2, beta = xi = 1/2,
f(t, u, v) = sin(t)^2 / (11 (e^{2t} + 3 e^t + 1)) * (3 + t + 5u + v),
Lipschitz constant k = 1/11 in the pair norm.
"""

import numpy as np
import pytest

from fracbvp import ProblemParams, ProblemSpec, parse, picard_solve

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
