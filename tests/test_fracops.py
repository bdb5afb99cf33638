"""Gamma function, grids, fractional integral quadrature, L1 derivative."""

import math

import numpy as np
import pytest

from fracbvp import (
    DomainError,
    Grid,
    GridFunction,
    KernelOperator,
    ProblemParams,
    ProblemSpec,
    gamma,
    kernel_operators,
    parse,
    picard_solve,
)
from fracbvp.fracops import _caputo_l1, left_kernel_toeplitz

from conftest import caputo_monomial, frac_integral_monomial, left_moments_row


def _left_rows(alpha, g):
    """Dense left-kernel moment matrix expanded from its Toeplitz data; the
    hat cut off at s = 0 is the factor (first - column) e_0^T."""
    column, first = left_kernel_toeplitz(alpha, g)
    return KernelOperator(column, ((0, first - column, 0),)).dense()


def _frac_integral(alpha, g, values):
    """Product-trapezoid I^alpha f at every node, from the dense moment rows."""
    return _left_rows(alpha, g) @ values / gamma(alpha)


def test_gamma_matches_reference_on_positive_range():
    xs = np.linspace(0.1, 10.0, 991)
    worst = max(abs(gamma(x) - math.gamma(x)) / math.gamma(x) for x in xs)
    assert worst <= 1e-12


def test_gamma_half_integer_and_integer_values():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-12
    assert abs(gamma(1.5) - 0.5 * math.sqrt(math.pi)) <= 1e-12
    assert abs(gamma(1.0) - 1.0) <= 1e-12
    assert abs(gamma(2.0) - 1.0) <= 1e-12
    assert abs(gamma(5.0) - 24.0) <= 24.0 * 1e-12


def test_gamma_small_arguments_use_reflection():
    # arguments below 1/2, where Gamma grows like 1/x
    for x in (0.05, 0.2, 0.49):
        want = math.gamma(x)
        assert abs(gamma(x) - want) <= abs(want) * 1e-12


def test_gamma_matches_mpmath_on_the_kernel_range():
    # Every Gamma argument of the kernels and certificates lies in (0, 3.5].
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate(
        (
            np.linspace(0.0, 3.5, 4001)[1:],
            np.random.default_rng(5).uniform(0.0, 3.5, 2000),
            2.0 ** -np.arange(1.0, 40.0),
        )
    )
    with mpmath.workdps(40):
        worst = max(
            abs(mpmath.mpf(gamma(x)) / mpmath.gamma(mpmath.mpf(x)) - 1) for x in xs.tolist()
        )
    assert worst <= 1e-15


def test_gamma_rejects_nonpositive_arguments():
    for x in (0.0, -0.5, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma(x)


def test_left_kernel_order_must_be_positive():
    with pytest.raises(DomainError, match="kernel order must be > 0"):
        left_kernel_toeplitz(0.0, Grid(5))


def test_grid_construction():
    g = Grid(5)
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert len(g.nodes) == 5
    with pytest.raises(DomainError):
        Grid(1)


def test_grid_takes_any_integral_node_count():
    for n in (np.int64(129), np.int32(129), np.uint16(129)):
        g = Grid(n)
        assert type(g.n) is int and g == Grid(129) and hash(g) == hash(Grid(129))
    pair, _ = picard_solve(ProblemSpec(ProblemParams(1.5, 0.5, 0.5), parse("0.1*u")), np.int64(129))
    assert type(pair.grid.n) is int and pair.grid == Grid(129)
    for bad in (True, False, np.True_, 129.0, np.float64(129.0), "129", None):
        with pytest.raises(DomainError, match="integer node count >= 2"):
            Grid(bad)


def test_grid_equality_and_hash_follow_n():
    assert Grid(5) == Grid(5) and hash(Grid(5)) == hash(Grid(5))
    assert Grid(5) != Grid(6)


def test_grid_function_validation():
    g = Grid(9)
    with pytest.raises(DomainError):
        GridFunction(g, np.zeros(8))
    with pytest.raises(DomainError):
        GridFunction(g, np.full(9, np.nan))
    src = np.ones(9)
    f = GridFunction(g, src)
    src[0] = 500.0
    assert f.values[0] == 1.0  # defensive copy
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # read-only


def test_frac_integral_monomial_closed_form():
    # I^a t^p = Gamma(p+1)/Gamma(p+a+1) t^{p+a}
    for a, p, t in ((1.5, 0.0, 1.0), (0.5, 1.0, 1.0), (0.7, 2.0, 0.6), (2.0, 3.0, 0.25)):
        want = math.gamma(p + 1) / math.gamma(p + a + 1) * t ** (p + a)
        assert abs(frac_integral_monomial(a, p, t) - want) <= 1e-13


def test_frac_integral_semigroup_at_monomials():
    # I^a I^b t^p = I^{a+b} t^p
    for a, b, p, t in ((0.7, 0.6, 2.0, 0.6), (0.5, 0.5, 1.0, 1.0), (1.2, 0.3, 3.0, 0.8)):
        inner_coeff = math.gamma(p + 1) / math.gamma(p + b + 1)
        lhs = inner_coeff * frac_integral_monomial(a, p + b, t)
        rhs = frac_integral_monomial(a + b, p, t)
        assert abs(lhs - rhs) <= 1e-12


def test_caputo_monomial_values():
    assert abs(caputo_monomial(0.5, 1, 1.0) - 1.128379167095513) <= 1e-12
    assert caputo_monomial(0.5, 0, 0.7) == 0.0
    assert abs(caputo_monomial(1.0, 2, 0.5) - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        caputo_monomial(0.5, 0.5, 1.0)


def test_frac_integral_grid_constant_forcing():
    g = Grid(1025)
    got = _frac_integral(1.5, g, np.ones(1025))[1024]
    assert abs(got - 1.0 / gamma(2.5)) <= 1e-12


def test_frac_integral_grid_linear_forcing():
    g = Grid(1025)
    got = _frac_integral(0.5, g, g.nodes)[1024]
    want = frac_integral_monomial(0.5, 1.0, 1.0)
    assert abs(got - want) <= 1e-12


def test_frac_integral_grid_exact_on_piecewise_linear():
    # quadrature integrates the hat interpolant exactly, so any affine f
    # reproduces the monomial closed forms to roundoff
    for n in (33, 129, 512):
        g = Grid(n)
        got = _frac_integral(1.3, g, 2.75 * g.nodes - 0.4)
        for i in (1, n // 2, n - 1):
            t = g.nodes[i]
            want = 2.75 * frac_integral_monomial(1.3, 1.0, t) - 0.4 * frac_integral_monomial(1.3, 0.0, t)
            assert abs(got[i] - want) <= 1e-12


def test_frac_integral_grid_quadratic_convergence():
    # oracle by linearity of the monomial rule: I^1.5 (t^2 + 3t) at t = 1
    want = frac_integral_monomial(1.5, 2.0, 1.0) + 3.0 * frac_integral_monomial(1.5, 1.0, 1.0)
    errs = []
    for n in (129, 257, 513, 1025):
        g = Grid(n)
        errs.append(abs(_frac_integral(1.5, g, g.nodes**2 + 3.0 * g.nodes)[n - 1] - want))
    assert errs[-1] <= 1e-6
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 2.0  # near second order in h


def test_frac_integral_grid_linearity():
    rng = np.random.default_rng(7)
    g = Grid(65)
    fa = rng.uniform(-1, 1, size=65)
    fb = rng.uniform(-1, 1, size=65)
    a, b = 1.7, -0.9
    for alpha in (0.5, 1.5):
        lhs = _frac_integral(alpha, g, a * fa + b * fb)
        rhs = a * _frac_integral(alpha, g, fa) + b * _frac_integral(alpha, g, fb)
        for i in (3, 40, 64):
            assert abs(lhs[i] - rhs[i]) <= 1e-12


def test_left_kernel_moments_total_mass():
    # weights against f = 1 give the exact moment integral t_i^alpha / alpha
    g = Grid(33)
    for alpha in (0.5, 1.0, 1.5):
        rows = _left_rows(alpha, g)
        for i in (1, 16, 32):
            assert abs(rows[i].sum() - g.nodes[i] ** alpha / alpha) <= 1e-14
            assert np.all(rows[i, i + 1 :] == 0.0)


def test_left_kernel_moment_matrix_rows():
    # the Toeplitz data expands to the moments computed cell by cell
    g = Grid(17)
    mat = _left_rows(0.8, g)
    for i in range(17):
        np.testing.assert_allclose(mat[i], left_moments_row(0.8, g, i), atol=1e-15)


def test_right_kernel_moments_total_mass():
    # weights against f = 1 give integral_0^1 (1-s)^{mu-1} ds = 1/mu
    g = Grid(65)
    for mu in (0.5, 1.0, 2.0):
        w = left_moments_row(mu, g, g.n - 1)  # the t = 1 row: (1-s)^(mu-1)
        assert abs(w.sum() - 1.0 / mu) <= 1e-14


def test_toeplitz_column_ends_on_the_first_columns_last_entry():
    # so the t = 1 row of the moments, a right term's weights, is the
    # column reversed
    for n in (2, 3, 5, 33, 129, 513, 2049, 8193):
        g = Grid(n)
        for alpha in (1e-9, 1e-3, 0.05, 0.3, 0.5, 0.99, 1.0, 1.3, 1.5, 1.99, 2.0):
            column, first = left_kernel_toeplitz(alpha, g)
            assert column[-1:].tobytes() == first[-1:].tobytes()


def test_indicator_moments_trapezoid():
    # the indicator part of the companion operator is the trapezoid rule
    g = Grid(9)
    op = kernel_operators(ProblemParams(1.5, 0.5, 0.5), g)
    # H's first factor is its column-0 cut-off
    _, cut, unit = next(f for f in op.factors if f[0] == 1)
    rows = KernelOperator(op.column[1], ((0, cut, unit),)).dense()
    w = rows[4]
    assert abs(w.sum() - g.nodes[4]) <= 1e-15
    assert w[0] == pytest.approx(g.h / 2)
    assert w[4] == pytest.approx(g.h / 2)
    assert np.all(w[5:] == 0.0)
    assert np.all(rows[0] == 0.0)


def test_kernel_operator_matches_convolution():
    # 2n - 2 lands on, above and below a power of two across these sizes
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 5, 6, 64, 513, 514, 1000, 8193):
        c, x = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        want = np.convolve(c, x)[:n]
        got = KernelOperator(c, ()) @ x
        assert np.max(np.abs(got - want)) <= 1e-13 * n


def test_kernel_operator_apply_is_one_fft_pair(example_params, monkeypatch):
    # G's and H's blocks share the forward transform of x
    op = kernel_operators(example_params, Grid(8193))
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(a, n=None, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, n))
            return _real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    op @ np.ones(8193)
    assert sorted(calls) == [("irfft", 16384), ("irfft", 16384), ("rfft", 16384)]


def test_kernel_operator_checks_the_input_length(example_params):
    op = kernel_operators(example_params, Grid(129))
    for bad in (np.ones(128), np.ones(258), np.ones((2, 129))):
        with pytest.raises(DomainError, match=rf"length 129, got shape \({len(bad)},"):
            op @ bad
    single = KernelOperator(np.ones(4), ())
    with pytest.raises(DomainError, match=r"length 4, got shape \(5,\)"):
        single @ np.ones(5)


def test_caputo_grid_kills_constants():
    g = Grid(129)
    d = _caputo_l1(0.4, g)(np.full(129, 3.7))
    assert np.all(d == 0.0)


def test_caputo_grid_linear_input_is_exact():
    # first differences of t are constant, so the scheme reproduces
    # D^g t = t^{1-g}/Gamma(2-g) to roundoff at every n; refinement
    # errors sit on the floor rather than decaying
    for n in (129, 257, 513, 1025):
        g = Grid(n)
        d = _caputo_l1(0.5, g)(g.nodes)
        want = g.nodes ** 0.5 / gamma(1.5)
        assert np.max(np.abs(d - want)) <= 1e-12


def test_caputo_grid_quadratic_convergence():
    want = caputo_monomial(0.5, 2, 0.5)
    errs = []
    for n in (129, 257, 513, 1025):
        g = Grid(n)
        d = _caputo_l1(0.5, g)(g.nodes**2)
        errs.append(abs(d[(n - 1) // 2] - want))
    assert errs[-1] <= 1e-4
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 2.0


def test_caputo_grid_value_zero_at_origin():
    g = Grid(33)
    d = _caputo_l1(0.9, g)(np.exp(g.nodes))
    assert d[0] == 0.0
