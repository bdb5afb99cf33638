"""Convergence orders of the solver against a manufactured exact solution.

u*(t) = A + t^2 + C t^3 + t^4/2 satisfies both boundary conditions: C makes
D^beta u*(1) = 0 = D^beta u*(0), and A makes u*(0) = xi u*(1).  Its Caputo
derivatives are sums of powers of t, so the right-hand side

    f(t, u, v) = D^alpha u*(t) + 0.3 (u - u*(t)) + 0.2 sin(v - v*(t)),

with v* = D^(alpha-1) u*, has the exact solution (u*, v*) and is a
contraction.  The orders asserted are lower bounds only: a correction of
the quadrature's endpoint singularity is expected to raise them.
"""

import math

import numpy as np
import pytest

from fracbvp import ProblemParams, ProblemSpec, gamma, parse, picard_solve

GRIDS = (129, 513, 2049)
# (alpha, beta, xi) -> max-norm errors of u and v at n = 2049
REFERENCE = {
    (1.5, 0.5, 0.5): (2.85e-6, 4.33e-6),
    (1.9, 0.1, 0.3): (8.88e-6, 9.36e-5),
    (1.2, 0.9, 0.5): (4.93e-7, 2.49e-7),
    # near the edges of the box: alpha -> 1, alpha = 2, beta -> 1, beta -> 0,
    # xi -> 1, and alpha - beta -> 2
    (1.05, 0.5, 0.5): (1.16e-7, 6.68e-8),
    (2.0, 0.5, 0.5): (8.25e-8, 1.38e-7),
    (1.3, 0.95, 0.5): (1.05e-6, 6.30e-7),
    (1.5, 0.02, 0.5): (1.45e-6, 4.29e-6),
    (1.5, 0.5, 0.9): (9.43e-6, 4.23e-6),
    (1.95, 0.05, 0.5): (6.54e-6, 8.53e-5),
}


def _power_sum(terms):
    """Grammar text of sum c t^p over (c, p) pairs, with repr coefficients."""
    return " + ".join(f"({c!r})*t^({p!r})" for c, p in terms)


def manufactured(a, b, xi):
    """(rhs text, u*, v*) for the problem with orders a, b and ratio xi."""
    c = -(2.0 / gamma(3.0 - b) + 12.0 / gamma(5.0 - b)) * gamma(4.0 - b) / 6.0
    big_a = xi * (1.5 + c) / (1.0 - xi)
    u_terms = ((big_a, 0.0), (1.0, 2.0), (c, 3.0), (0.5, 4.0))
    # D^g t^k = k!/Gamma(k+1-g) t^(k-g) for the Caputo derivative (k >= 1)
    d_alpha = [(w * math.factorial(int(k)) / gamma(k + 1.0 - a), k - a) for w, k in u_terms[1:]]
    v_terms = [(w * math.factorial(int(k)) / gamma(k + 2.0 - a), k + 1.0 - a) for w, k in u_terms[1:]]
    rhs = (
        f"{_power_sum(d_alpha)} + 0.3*(u - ({_power_sum(u_terms)}))"
        f" + 0.2*sin(v - ({_power_sum(v_terms)}))"
    )

    def u_star(t):
        return sum(w * t**k for w, k in u_terms)

    def v_star(t):
        return sum(w * t**k for w, k in v_terms)

    return rhs, u_star, v_star


@pytest.mark.parametrize("triple", sorted(REFERENCE))
def test_manufactured_solution_converges(triple):
    a, b, xi = triple
    rhs, u_star, v_star = manufactured(a, b, xi)
    spec = ProblemSpec(ProblemParams(a, b, xi), parse(rhs))
    errors = []
    for n in GRIDS:
        pair, report = picard_solve(spec, n, tol=1e-13)
        assert report.converged
        t = pair.grid.nodes
        errors.append(
            (np.max(np.abs(pair.u.values - u_star(t))), np.max(np.abs(pair.v.values - v_star(t))))
        )
    for coarse, fine, n in zip(errors, errors[1:], GRIDS):
        # each grid has 4 times the cells of the one before
        order_u, order_v = (math.log(c / f) / math.log(4.0) for c, f in zip(coarse, fine))
        assert order_u >= 3.0 - a - 0.1, (n, order_u)
        assert order_v >= 3.0 - a - 0.25, (n, order_v)
    for got, ref in zip(errors[-1], REFERENCE[triple]):
        assert got <= 1.5 * ref
