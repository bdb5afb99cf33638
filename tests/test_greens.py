"""Two-branch kernel, companion kernel, singular quadrature weights, G*."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracbvp.fracops
import fracbvp.greens
from fracbvp import (
    DomainError,
    Grid,
    KernelOperator,
    ProblemParams,
    ProblemSpec,
    companion_weight_matrix,
    gamma,
    green_weight_matrix,
    gstar,
    gstar_coarse_bound,
    kernel_operators,
    parse,
    picard_solve,
)
from fracbvp.fracops import left_kernel_toeplitz
from fracbvp.greens import (
    _at,
    _companion_terms,
    _dt,
    _green_terms,
    _primitive,
    _triangle_mass,
    _value,
    green_abs_mass,
    green_branch_value,
    green_sign_change,
    theta,
)

from conftest import caputo_monomial, companion_eval, left_moments_row, oracle_gstar, oracle_sign_change

# frozen from a sign-change-exact evaluation at n = 2049, m = 513, cross
# checked against a 400000-point midpoint rule (agreement 5.4e-10)
EXAMPLE_GSTAR = 0.5527021926126314


def _random_params(rng):
    return ProblemParams(
        float(rng.uniform(1.05, 2.0)),
        float(rng.uniform(0.05, 0.95)),
        float(rng.uniform(0.05, 0.95)),
    )


def test_params_validation():
    for alpha, beta, xi in (
        (1.0, 0.5, 0.5),
        (2.1, 0.5, 0.5),
        (1.5, 0.0, 0.5),
        (1.5, 1.0, 0.5),
        (1.5, 0.5, 0.0),
        (1.5, 0.5, 1.0),
    ):
        with pytest.raises(DomainError):
            ProblemParams(alpha, beta, xi)
    ProblemParams(2.0, 0.99, 0.01)  # boundary alpha = 2 is allowed


def test_branches_agree_on_the_diagonal(example_params):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = _random_params(rng)
        t = float(rng.uniform(0.0, 1.0))
        a = green_branch_value(p, t, t, left=True)
        b = green_branch_value(p, t, t, left=False)
        assert abs(a - b) <= 1e-12
        # below the diagonal the branches differ by the (t-s)^(alpha-1) term
        s = 0.5 * t
        gap = green_branch_value(p, t, s, left=True) - green_branch_value(p, t, s, left=False)
        assert abs(gap - (t - s) ** (p.alpha - 1.0) / gamma(p.alpha)) <= 1e-12


def test_green_spot_values(example_params):
    p = example_params
    # closed forms for alpha=3/2, beta=xi=1/2
    want_10 = 2.0 / gamma(1.5) - 2.0 * gamma(1.5)
    assert abs(green_branch_value(p, 1.0, 0.0, True) - want_10) <= 1e-12
    assert abs(green_branch_value(p, 1.0, 0.0, True) - 0.484302) <= 1e-5
    want_00 = 1.0 / gamma(1.5) - gamma(1.5)
    assert abs(green_branch_value(p, 0.0, 0.0, True) - want_00) <= 1e-12
    assert abs(green_branch_value(p, 0.0, 0.0, True) - 0.242152) <= 1e-5
    # limit toward s = 1 at t = 0; the tail exponent vanishes here
    assert abs(green_branch_value(p, 0.0, 1.0 - 1e-14, True) + gamma(1.5)) <= 1e-6


def test_kernel_ratio_identity():
    # G(0, s) = xi G(1, s) pointwise; this is what makes u(0) = xi u(1)
    # hold for every forcing
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = _random_params(rng)
        s = float(rng.uniform(0.0, 0.999))
        lhs = green_branch_value(p, 0.0, s, True)
        rhs = p.xi * green_branch_value(p, 1.0, s, True)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_companion_vanishes_at_origin():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = _random_params(rng)
        if p.alpha == 2.0:
            continue
        s = float(rng.uniform(0.0, 1.0))
        assert companion_eval(p, 0.0, s) == 0.0
        assert companion_eval(p, 0.0, 0.0) == 0.0  # the indicator is empty at t = 0


def test_companion_spot_values(example_params):
    # theta identity makes H(1, s) vanish when alpha - beta = 1
    for s in (0.0, 0.25, 0.5, 0.9):
        assert abs(companion_eval(example_params, 1.0, s)) <= 1e-12
    p2 = ProblemParams(2.0, 0.5, 0.5)
    assert abs(companion_eval(p2, 0.3, 0.6) + np.sqrt(0.4)) <= 1e-12


def test_row_weights_match_midpoint_rule(example_params):
    # independent check of the product-integration weights on one row:
    # a dense midpoint rule applied to kernel times hat interpolant
    rng = np.random.default_rng(41)
    g = Grid(65)
    y = rng.uniform(-1.0, 1.0, size=65)
    i = 40
    t = g.nodes[i]
    ns = 1024 * 1024  # multiple of 64 so cells never straddle grid nodes
    s = (np.arange(ns) + 0.5) / ns
    yy = np.interp(s, g.nodes, y)
    kern = np.where(
        s <= t,
        green_branch_value(example_params, t, s, left=True),
        green_branch_value(example_params, t, s, left=False),
    )
    brute = float(np.sum(kern * yy) / ns)
    quad = float(green_weight_matrix(example_params, g)[i] @ y)
    assert abs(quad - brute) <= 1e-8

    comp = np.where(s <= t, 1.0, 0.0) - t**0.5 * np.ones(ns)
    brute_h = float(np.sum(comp * yy) / ns)
    quad_h = float(companion_weight_matrix(example_params, g)[i] @ y)
    assert abs(quad_h - brute_h) <= 1e-10


def test_weight_matrices_match_rows(example_params):
    # rows assembled term by term from the kernel formulas, one node at a time
    p, g = example_params, Grid(129)
    a, b, xi, h = p.alpha, p.beta, p.xi, g.h
    # a right moment (1-s)^(q-1) is the t = 1 row of the order-q left moments
    right_a, right_ab = left_moments_row(a, g, g.n - 1), left_moments_row(a - b, g, g.n - 1)
    gm = green_weight_matrix(p, g)
    hm = companion_weight_matrix(p, g)
    for i in (0, 1, 64, 128):
        t = g.nodes[i]
        sing = gamma(2.0 - b) * (xi + (1.0 - xi) * t) / (gamma(a - b) * (1.0 - xi))
        row = left_moments_row(a, g, i) / gamma(a) + xi / (gamma(a) * (1.0 - xi)) * right_a
        row -= sing * right_ab
        np.testing.assert_allclose(gm[i], row, atol=1e-15)
        indicator = np.zeros(g.n)
        if i > 0:
            indicator[: i + 1] = h
            indicator[[0, i]] = 0.5 * h
        coeff = gamma(2.0 - b) / (gamma(3.0 - a) * gamma(a - b)) * t ** (2.0 - a)
        np.testing.assert_allclose(hm[i], indicator - coeff * right_ab, atol=1e-15)


def test_green_operator_reads_right_moments_off_its_toeplitz_data(monkeypatch):
    # A solve builds left_kernel_toeplitz twice: order alpha for G's
    # Toeplitz part, which also gives its (1-s)^(alpha-1) moments, and order
    # alpha - beta once, shared by G and H.
    calls = []
    real = fracbvp.fracops.left_kernel_toeplitz

    def counting(order, grid):
        calls.append(order)
        return real(order, grid)

    monkeypatch.setattr(fracbvp.greens, "left_kernel_toeplitz", counting)
    monkeypatch.setattr(fracbvp.fracops, "left_kernel_toeplitz", counting)
    p = ProblemParams(1.5, 0.5, 0.5)
    picard_solve(ProblemSpec(p, parse("0.1*u + sin(t)")), 129, tol=1e-10)
    assert calls == [1.5, 1.0]
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    for n in (2, 3, 129, 2049):
        g = Grid(n)
        for q in [p] + [_random_params(rng) for _ in range(3)]:
            a, b = q.alpha, q.beta
            column, first = left_kernel_toeplitz(a, g)
            column_ab, first_ab = left_kernel_toeplitz(a - b, g)
            ratio = q.xi / (gamma(a) * (1.0 - q.xi))
            b1 = gamma(2.0 - b) / gamma(a - b)
            sing = b1 * q.xi / (1.0 - q.xi) + b1 * g.nodes  # B(t) as the table computes it
            parent = KernelOperator(
                column / gamma(a),
                (
                    (0, first / gamma(a) - column / gamma(a), 0),
                    (0, 1.0, ratio * np.append(first[-1], column[-2::-1])),
                    (0, -sing, np.append(first_ab[-1], column_ab[-2::-1])),
                ),
            )
            got = kernel_operators(q, g)
            assert np.array_equal(got.dense()[:n], parent.dense())
            # G's factors come first, in G's block
            for (gb, gl, gr), (pb, pl, pr) in zip(got.factors, parent.factors):
                assert gb == pb and np.array_equal(gl, pl) and np.array_equal(gr, pr)


@st.composite
def _box_params(draw):
    """(alpha, beta, xi) from the whole box, or pinned near one of its edges."""
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True))
    beta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    xi = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    gap = draw(st.floats(1e-12, 1e-3))
    edge = draw(
        st.sampled_from(("box", "alpha->1", "alpha=2", "alpha-beta->0", "beta->0", "xi->1"))
    )
    if edge == "alpha->1":
        alpha = 1.0 + gap
    elif edge == "alpha=2":
        alpha = 2.0
    elif edge == "alpha-beta->0":
        alpha, beta = 1.0 + gap / 2, 1.0 - gap / 2
    elif edge == "beta->0":
        beta = gap
    elif edge == "xi->1":
        xi = 1.0 - gap
    return ProblemParams(alpha, beta, xi)


@settings(max_examples=40, deadline=None)
@given(p=_box_params(), n=st.integers(2, 2049), seed=st.integers(0, 2**32 - 1))
def test_operator_matches_dense(p, n, seed):
    # The error is measured against the size of the terms the operator sums:
    # near beta = 0 with xi -> 1 the two rank-1 terms are each ~1/(1-xi) and
    # cancel to O(1), so any two summation orders, the dense one included,
    # differ by eps/(1-xi) relative to the result.
    # Each kernel's block is measured against its own terms.
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    g = Grid(n)
    op = kernel_operators(p, g)
    assert op.shape == (2 * n, n)
    magnitudes = tuple(
        (b, np.abs(left), right if isinstance(right, int) else np.abs(right))
        for b, left, right in op.factors
    )
    terms = KernelOperator(np.abs(op.column), magnitudes).dense() @ np.abs(f)
    err = np.abs(op @ f - op.dense() @ f).reshape(2, n).max(axis=1)
    assert np.all(err <= 1e-13 * terms.reshape(2, n).max(axis=1))


@settings(max_examples=40, deadline=None)
@given(p=_box_params(), n=st.sampled_from((2, 3, 129, 513)))
@example(p=ProblemParams(1.5, 0.5, 0.5), n=2)
@example(p=ProblemParams(1.5, 0.5, 0.5), n=3)
@example(p=ProblemParams(1.5, 0.5, 0.5), n=129)
@example(p=ProblemParams(1.5, 0.5, 0.5), n=513)
def test_stacked_operator_is_the_two_dense_references(p, n):
    # G's rows over H's; the other block's factors add zeros
    g = Grid(n)
    want = np.vstack((green_weight_matrix(p, g), companion_weight_matrix(p, g)))
    assert np.array_equal(kernel_operators(p, g).dense(), want)


@settings(max_examples=60, deadline=None)
@given(p=_box_params(), n=st.integers(2, 2049))
def test_operator_row_sums_match_closed_form(p, n):
    # A constant forcing is piecewise linear, so each row sum is the exact
    # integral over s of the kernel's terms.  As in test_operator_matches_dense,
    # the error is measured against the size of those terms, which cancel
    # as beta -> 0 with xi -> 1.
    a, b, xi = p.alpha, p.beta, p.xi
    g = Grid(n)
    t, ones = g.nodes, np.ones(n)
    ratio = xi / (gamma(a) * (1.0 - xi))
    sing = gamma(2.0 - b) * (xi + (1.0 - xi) * t) / (gamma(a - b) * (1.0 - xi))
    comp = gamma(2.0 - b) / (gamma(3.0 - a) * gamma(a - b)) * t ** (2.0 - a)
    green_sums, companion_sums = np.split(kernel_operators(p, g) @ ones, 2)
    for sums, terms, table in (
        (green_sums, (t**a / gamma(a + 1.0), ratio / a * ones, -sing / (a - b)), _green_terms(p)),
        (companion_sums, (t, -comp / (a - b)), _companion_terms(p)),
    ):
        scale = np.max(sum(np.abs(term) for term in terms))
        assert np.max(np.abs(sums - sum(terms))) <= 1e-14 * scale
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf, as in green_abs_mass
            assert np.max(np.abs(sums - _primitive(table, t, 1.0))) <= 1e-14 * scale


def test_constant_forcing_closed_form(example_params):
    # u(t) = t^{3/2}/Gamma(5/2) + 1/Gamma(5/2) - Gamma(3/2)(t+1), v(t) = t - sqrt(t)
    g = Grid(513)
    ones = np.ones(513)
    u = green_weight_matrix(example_params, g) @ ones
    v = companion_weight_matrix(example_params, g) @ ones
    want_u = g.nodes**1.5 / gamma(2.5) + 1.0 / gamma(2.5) - gamma(1.5) * (g.nodes + 1.0)
    assert np.max(np.abs(u - want_u)) <= 1e-12
    assert np.max(np.abs(v - (g.nodes - np.sqrt(g.nodes)))) <= 1e-12
    assert abs(u[0] - 0.5 * u[-1]) <= 1e-15
    assert v[0] == 0.0


def test_gstar_example_value(example_params):
    got = gstar(example_params, m=513)
    assert abs(got - EXAMPLE_GSTAR) <= 1e-9


def test_gstar_matches_midpoint_scan():
    # same t scan, integral by midpoint rule instead of exact pieces
    def brute(p, m, ns):
        s = (np.arange(ns) + 0.5) / ns
        best = 0.0
        for t in np.linspace(0.0, 1.0, m):
            vals = np.where(
                s <= t,
                green_branch_value(p, float(t), s, left=True),
                green_branch_value(p, float(t), s, left=False),
            )
            best = max(best, float(np.abs(vals).sum() / ns))
        return best

    for p in (ProblemParams(1.5, 0.5, 0.5), ProblemParams(2.0, 0.5, 0.5)):
        got = gstar(p, m=17)
        ref = brute(p, 17, 100_000)
        assert abs(got - ref) <= 1e-6


@settings(max_examples=100, deadline=None)
@given(p=_box_params(), m=st.integers(2, 257))
def test_gstar_matches_oracle(p, m):
    # The error is measured against the mass of G's terms taken one by one,
    # which is the coarse bound: the terms are ~1/(1-xi) and, as beta -> 0,
    # cancel to O(1) in the interior and to O(beta) at t = 0 and t = 1
    # (G(0, .) = xi G(1, .)), so any two summation orders differ by eps
    # times the terms, not times the result.  The oracle brackets on 129 s
    # nodes, enough to find a single sign change.
    ref = oracle_gstar(p, 129, m)
    assert abs(gstar(p, m=m) - ref) <= 1e-13 * gstar_coarse_bound(p)


@settings(max_examples=60, deadline=None)
@given(p=_box_params(), t=st.floats(0.0, 1.0))
def test_kernel_changes_sign_once(p, t):
    # dense s samples plus a tail 1 - 2^-k toward the singular end
    tail = 1.0 - 2.0 ** -np.arange(1, 53)
    s = np.unique(np.concatenate((np.linspace(0.0, 1.0, 4097)[:-1], tail)))
    a, b, xi = p.alpha, p.beta, p.xi
    rem = 1.0 - s
    ts = np.append(np.linspace(0.0, 1.0, 9), t)
    for tt, root in zip(ts, green_sign_change(p, ts)):
        vals = np.where(
            s <= tt,
            green_branch_value(p, tt, s, left=True),
            green_branch_value(p, tt, s, left=False),
        )
        # sizes of the three kernel terms; a sample within roundoff of 0 has no sign
        sing = gamma(2.0 - b) * (xi + (1.0 - xi) * tt) / (gamma(a - b) * (1.0 - xi))
        scale = (
            np.maximum(tt - s, 0.0) ** (a - 1.0) / gamma(a)
            + xi / (gamma(a) * (1.0 - xi)) * rem ** (a - 1.0)
            + sing * rem ** (a - b - 1.0)
        )
        pos, neg = s[vals > 1e-12 * scale], s[vals < -1e-12 * scale]
        if len(pos) and len(neg):
            assert pos.max() < neg.min()  # never from - back to +
        assert 0.0 <= root <= 1.0
        assert np.all(pos <= root) and np.all(neg >= root)


def _oracle_mass(p, t, monkeypatch):
    # M(t) from the same closed form, but with the bisection root
    with monkeypatch.context() as patch:
        patch.setattr(fracbvp.greens, "green_sign_change", oracle_sign_change)
        return green_abs_mass(p, t)


# scan nodes, a tail 1 - 2^-k toward t = 1 (k = 53 is the largest float below 1)
_ROOT_TS = np.unique(np.concatenate((np.linspace(0.0, 1.0, 257), 1.0 - 2.0 ** -np.arange(1, 54))))


@settings(max_examples=100, deadline=None)
@given(p=_box_params(), t=st.floats(0.0, 1.0))
def test_newton_root_mass_matches_bisection(p, t):
    # M depends on s* only to second order (dM/ds* = 2 G(t, s*) = 0), so the
    # two roots may differ where G is flat, yet their masses may not differ
    # by more than roundoff in the terms (see test_gstar_matches_oracle).
    ts = np.append(_ROOT_TS, t)
    with pytest.MonkeyPatch.context() as monkeypatch:
        want = _oracle_mass(p, ts, monkeypatch)
    got = green_abs_mass(p, ts)
    assert np.max(np.abs(got - want)) <= 1e-15 * gstar_coarse_bound(p)
    roots = green_sign_change(p, ts)
    assert np.all((0.0 <= roots) & (roots <= 1.0))
    assert roots.shape == ts.shape
    assert green_sign_change(p, t).shape == ()
    assert green_sign_change(p, t) == roots[-1]


@settings(max_examples=60, deadline=None)
@given(p=_box_params())
def test_sign_change_at_t_one_is_closed_form(p):
    # At t = 1 the left branch is g = r^beta (1/Gamma(alpha) + A) - B(1).
    a, b, xi = p.alpha, p.beta, p.xi
    top = 1.0 / gamma(a) + xi / (gamma(a) * (1.0 - xi))
    b1 = gamma(2.0 - b) / gamma(a - b)
    sing = b1 * xi / (1.0 - xi) + b1  # B(1) as the table computes it
    want = 1.0 - (sing / top) ** (1.0 / b) if top > sing else 0.0
    # numpy's array power may round differently from libm's by an ulp
    assert abs(green_sign_change(p, np.array([1.0]))[0] - want) <= 1e-15
    assert abs(green_sign_change(p, 1.0) - want) <= 1e-15


def _has_left_branch(p, ts):
    # g(0) > 0 > g(t) at some 0 < t < 1, where the Newton loop runs
    a, b, xi = p.alpha, p.beta, p.xi
    ratio = xi / (gamma(a) * (1.0 - xi))
    b1 = gamma(2.0 - b) / gamma(a - b)
    sing = b1 * xi / (1.0 - xi) + b1 * ts  # B(t) as the table computes it
    g0 = ts ** (a - 1.0) / gamma(a) + ratio - sing
    gt = (1.0 - ts) ** b * ratio - sing
    return bool(np.any((g0 > 0.0) & (gt < 0.0) & (ts < 1.0)))


# the certify_sweep benchmark's edge classes: alpha, beta and xi ranges
_CERTIFY_EDGE_CLASSES = {
    "interior": ((1.2, 1.9), (0.1, 0.9), (0.1, 0.8)),
    "alpha_2": ((2.0, 2.0), (0.1, 0.9), (0.1, 0.8)),
    "singular": ((1.001, 1.01), (0.99, 0.999), (0.1, 0.8)),
    "alpha_near_1": ((1.001, 1.02), (0.1, 0.9), (0.1, 0.8)),
    "xi_high": ((1.2, 1.9), (0.1, 0.9), (0.85, 0.95)),
}


def test_newton_loop_pass_count(monkeypatch, example_params):
    # One residual evaluation per Newton pass over the scan, where a
    # bisection takes 60; the loop runs only when some scan node is on the
    # left branch.  Triples: the example and the corners and midpoints of
    # each edge-class box.
    passes = [0]
    real = fracbvp.greens._convex_residual

    def counting(*args):
        passes[0] += 1
        return real(*args)

    monkeypatch.setattr(fracbvp.greens, "_convex_residual", counting)
    ts = np.linspace(0.0, 1.0, 257)
    triples = [(example_params.alpha, example_params.beta, example_params.xi)]
    for box in _CERTIFY_EDGE_CLASSES.values():
        triples += itertools.product(*[(lo, 0.5 * (lo + hi), hi) for lo, hi in box])
    with_loop = total = 0
    for a, b, xi in triples:
        p = ProblemParams(a, b, xi)
        passes[0] = 0
        value = gstar(p, m=257)
        has_left = _has_left_branch(p, ts)
        with_loop += has_left
        total += passes[0]
        assert (passes[0] > 0) == has_left
        assert passes[0] <= 25
        want = np.max(_oracle_mass(p, ts, monkeypatch))
        assert abs(value - want) <= 1e-15 * gstar_coarse_bound(p)
    assert _has_left_branch(example_params, ts)
    assert with_loop >= 100
    # the roundoff stop saves about one pass per scan: 810 passes here, 897
    # when the loop runs until no iterate grows
    assert total <= 850


def test_gstar_domain_checks(example_params):
    with pytest.raises(DomainError):
        gstar(example_params, m=1)


def test_coarse_bound_value(example_params):
    # [1/Gamma(a+1) + Gamma(2-b)/Gamma(a-b+1)] / (1-xi) at the example
    want = (1.0 / gamma(2.5) + gamma(1.5) / gamma(2.0)) / 0.5
    got = gstar_coarse_bound(example_params)
    assert abs(got - want) <= 1e-12
    assert abs(got - 3.2769594070328654) <= 1e-12


def test_coarse_bound_dominates_computed_value(example_params):
    assert gstar_coarse_bound(example_params) >= EXAMPLE_GSTAR
    rng = np.random.default_rng(59)
    for _ in range(5):
        p = _random_params(rng)
        assert gstar_coarse_bound(p) >= gstar(p, m=33) - 1e-9


# The paper's hand-written forms of what greens derives from G's term table.


def _paper_companion(p, t, s):
    """H(t, s) of the greens module docstring and its two terms' magnitudes."""
    a, b = p.alpha, p.beta
    c = gamma(2.0 - b) / (gamma(3.0 - a) * gamma(a - b))
    sing = c * t ** (2.0 - a) * (1.0 - s) ** (a - b - 1.0)
    step = 1.0 * (s < t)
    return step - sing, step + sing


def _paper_theta(p):
    a, b = p.alpha, p.beta
    return 1.0 + gamma(2.0 - b) / (gamma(3.0 - a) * gamma(a - b + 1.0))


def _paper_coarse_bound(p):
    a, b = p.alpha, p.beta
    return (1.0 / gamma(a + 1.0) + gamma(2.0 - b) / gamma(a - b + 1.0)) / (1.0 - p.xi)


def _paper_lipschitz(p):
    """L = 1/Gamma(alpha) + Gamma(2-beta)/Gamma(alpha-beta+1), the mass bound
    of d/dt G: (t-s)_+^(alpha-2)/Gamma(alpha-1) and B'(t) (1-s)^(alpha-beta-1)."""
    a, b = p.alpha, p.beta
    return 1.0 / gamma(a) + gamma(2.0 - b) / gamma(a - b + 1.0)


@settings(max_examples=100, deadline=None)
@given(
    p=_box_params(),
    t=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0, exclude_max=True),
)
@example(p=ProblemParams(2.0, 0.5, 0.5), t=0.3, s=0.6)
@example(p=ProblemParams(1.0 + 1e-9, 1.0 - 1e-9, 1.0 - 1e-9), t=1.0, s=1.0 - 2.0**-53)
@example(p=ProblemParams(1.5, 0.5, 0.5), t=0.0, s=0.0)
def test_companion_table_is_the_paper_kernel(p, t, s):
    # H's table is D_t^(alpha-1) of G's, with no formula of its own
    want, magnitude = _paper_companion(p, t, s)
    assert abs(_value(_companion_terms(p), t, s) - want) <= 1e-15 * magnitude


def _constant_corpus():
    """The certify_sweep edge classes (corners, midpoints and uniform draws),
    uniform draws from the whole box, and the box edges alpha -> 1,
    alpha = 2, beta -> 0, beta -> 1, xi -> 0 and xi -> 1."""
    rng = np.random.default_rng(97)
    triples = []
    for box in _CERTIFY_EDGE_CLASSES.values():
        triples += itertools.product(*[(lo, 0.5 * (lo + hi), hi) for lo, hi in box])
        triples += zip(*[rng.uniform(lo, hi, 200) for lo, hi in box])
    triples += zip(rng.uniform(1.0, 2.0, 1000), rng.uniform(0.0, 1.0, 1000), rng.uniform(0.0, 1.0, 1000))
    near = (1e-12, 1e-9, 1e-6)
    alphas = [1.0 + g for g in near] + [1.5, 2.0]
    units = list(near) + [0.5] + [1.0 - g for g in near]
    triples += itertools.product(alphas, units, units)
    return [ProblemParams(float(a), float(b), float(xi)) for a, b, xi in triples if a > 1.0]


def test_theta_and_coarse_bound_are_the_paper_closed_forms():
    # each is the triangle mass of a term table, with no formula of its own
    for p in _constant_corpus():
        assert abs(theta(p) - _paper_theta(p)) <= 1e-15 * _paper_theta(p)
        assert abs(gstar_coarse_bound(p) - _paper_coarse_bound(p)) <= 1e-15 * _paper_coarse_bound(p)


@pytest.mark.parametrize("e", [0, 1, 2])
def test_dt_is_the_caputo_derivative_of_a_monomial(e):
    # conftest's closed form rejects 0 < e < 1; no table holds such a term
    t = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(5)
    for a in (1.0 + 1e-9, 1.3, 1.5, 2.0, *rng.uniform(1.0, 2.0, 8)):
        for order in (a - 1.0, 1.0):
            table = (("left", a, ((1.0, 0),)), ("right", 0.7, ((-0.6, e),)))
            left, *right = _dt(table, order)
            assert left == ("left", a - order, ((1.0, 0),))
            want = -0.6 * caputo_monomial(order, e, t)
            if e == 0:
                assert right == [] and want == 0.0  # the constant vanishes, its term drops
                continue
            ((kind, q, c),) = right
            assert kind == "right" and q == 0.7 and all(x >= 0.0 for _, x in c)
            np.testing.assert_allclose(_at(c, t), want, rtol=1e-15, atol=0.0)


# M(t_i) at the worst of the box's corners, where M is about 1e9 and its
# roundoff exceeds L dt
_LIPSCHITZ_CORNER = ProblemParams(1.0 + 1e-9, 1.0 - 1e-9, 1.0 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(p=_box_params(), m=st.sampled_from((257, 4097)))
@example(p=_LIPSCHITZ_CORNER, m=257)
@example(p=_LIPSCHITZ_CORNER, m=4097)
@example(p=ProblemParams(1.5, 0.5, 0.5), m=257)
def test_mass_is_lipschitz_with_the_derived_constant(p, m):
    # The premise of a rigorous G* from the scan: |M(t) - M(t')| <= L |t - t'|,
    # with L the triangle mass of d/dt G's table.  The pad is M's roundoff,
    # eps times the terms' mass (the coarse bound).
    lip = _triangle_mass(_dt(_green_terms(p), 1.0))
    assert abs(lip - _paper_lipschitz(p)) <= 1e-15 * _paper_lipschitz(p)
    ts = np.linspace(0.0, 1.0, m)
    steps = np.abs(np.diff(green_abs_mass(p, ts)))
    pad = 4.0 * np.finfo(float).eps * gstar_coarse_bound(p)
    assert np.all(steps <= lip * np.diff(ts) + pad)
