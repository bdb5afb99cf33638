"""Fractional integral and derivative operators, exact on monomials and grids.

The continuous operators are the Riemann-Liouville integral

    I^a f(t) = (1/Gamma(a)) * integral_0^t (t-s)^(a-1) f(s) ds,   a > 0,

and the Caputo derivative of order g in (0, 1]

    D^g f(t) = (1/Gamma(1-g)) * integral_0^t (t-s)^(-g) f'(s) ds,

which annihilates constants.  Grid versions use product integration: the
weakly singular factor is integrated exactly against the piecewise-linear
interpolant of the data, so both grid operators are exact (to roundoff)
whenever the input is piecewise linear on the grid.  On a uniform grid both
are convolutions, held as the first column of a lower-triangular Toeplitz
matrix and applied by FFT (:func:`lower_toeplitz_apply`).  The transforms
have the shortest power-of-two length >= 2n - 2 that keeps the product
exact, and a column applied many times has its spectrum computed once
(:func:`toeplitz_spectrum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

def gamma(x: float) -> float:
    """Gamma function for finite real x > 0, by :func:`math.gamma`.

    Its relative error on (0, 3.5], where the kernels' arguments lie, is
    below 1e-15.  Other arguments raise :class:`DomainError`.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires a finite argument > 0, got {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class Grid:
    """Uniform nodes t_i = i/(n-1) on [0, 1]."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise DomainError(f"grid needs an integer node count >= 2, got {self.n!r}")
        nodes = np.linspace(0.0, 1.0, self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a function at the nodes of a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"expected {self.grid.n} sample values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function samples must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def frac_integral_monomial(alpha: float, p: float, t: float) -> float:
    """Closed form I^alpha applied to s^p:

        I^a t^p = Gamma(p+1)/Gamma(p+1+a) * t^(p+a).
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"integral order must be > 0, got {alpha!r}")
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"monomial power must be >= 0, got {p!r}")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"evaluation point must lie in [0, 1], got {t!r}")
    return gamma(p + 1.0) / gamma(p + 1.0 + alpha) * t ** (p + alpha)


def caputo_monomial(gamma_ord: float, p: float, t: float) -> float:
    """Closed form Caputo derivative of s^p for orders in (0, 1]:

        D^g t^p = Gamma(p+1)/Gamma(p+1-g) * t^(p-g)   for p >= 1,
        D^g 1   = 0.

    Powers in (0, 1) are rejected: there the derivative is unbounded at the
    origin and the closed form above does not apply on the whole interval.
    """
    if not (math.isfinite(gamma_ord) and 0.0 < gamma_ord <= 1.0):
        raise DomainError(f"derivative order must lie in (0, 1], got {gamma_ord!r}")
    if not math.isfinite(p) or p < 0.0 or (0.0 < p < 1.0):
        raise DomainError(f"monomial power must be 0 or >= 1, got {p!r}")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"evaluation point must lie in [0, 1], got {t!r}")
    if p == 0.0:
        return 0.0
    return gamma(p + 1.0) / gamma(p + 1.0 - gamma_ord) * t ** (p - gamma_ord)


def left_kernel_toeplitz(alpha: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of the left singular kernel against the hat basis,

        L[i, j] = integral_0^{t_i} (t_i - s)^(alpha-1) phi_j(s) ds,

    as Toeplitz data.  L is lower triangular and constant along its
    diagonals except in column 0, whose hat function is cut off at s = 0.
    Returns ``(column, first)``: L[i, j] = column[i - j] for 1 <= j <= i, and
    L[i, 0] = first[i].  All moments reduce to differences of integer powers
    scaled by h^alpha, so L is exact for piecewise-linear data and finite for
    alpha > 0.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"kernel order must be > 0, got {alpha!r}")
    n = grid.n
    idx = np.arange(n, dtype=float)
    pa, pa1 = idx**alpha, idx ** (alpha + 1.0)
    r = idx[1:]  # offset i - m of cell m from node i
    p0 = (pa[1:] - pa[:-1]) / alpha
    p_up = r * (pa[1:] - pa[:-1]) / alpha - (pa1[1:] - pa1[:-1]) / (alpha + 1.0)
    # a hat at node j collects the rising half of cell j-1 and the falling
    # half of cell j; the hat at node 0 has only the falling half
    falling = p0 - p_up
    column = np.empty(n)
    column[0] = p_up[0]
    column[1:] = falling + np.append(p_up[1:], 0.0)
    first = np.append(0.0, falling)
    scale = grid.h**alpha
    return column * scale, first * scale


def _fft_size(n: int) -> int:
    """Smallest power of two >= 2n - 2 (and >= 1)."""
    return 1 << max(2 * n - 3, 0).bit_length()


def toeplitz_spectrum(column: np.ndarray) -> np.ndarray:
    """Real FFT of a Toeplitz column, or of an input vector, at the length
    :func:`lower_toeplitz_apply` uses for that length; pass it there to
    reuse it."""
    return np.fft.rfft(column, _fft_size(len(column)))


def lower_toeplitz_apply(
    column: np.ndarray,
    x: np.ndarray,
    spectrum: np.ndarray | None = None,
    x_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Product T x with the lower-triangular Toeplitz T[i, j] = column[i - j].

    Both inputs are zero-padded to a power of two N >= 2n - 2 and multiplied
    as a circular FFT convolution: O(n log n) time and O(n) memory.  The
    linear convolution has indices 0 .. 2n - 2, so at most index 2n - 2,
    the single term column[n-1] * x[n-1], wraps around, and it lands on
    entry 0.  Entry 0 has a single term of its own and is set exactly, which
    makes the first n entries exact and keeps rows that vanish at t = 0
    exactly zero.  ``spectrum`` and ``x_spectrum``, if given, are
    ``toeplitz_spectrum(column)`` and ``toeplitz_spectrum(x)``.
    """
    n = len(x)
    size = _fft_size(n)
    if spectrum is None:
        spectrum = toeplitz_spectrum(column)
    if x_spectrum is None:
        x_spectrum = toeplitz_spectrum(x)
    out = np.fft.irfft(spectrum * x_spectrum, size)[:n]
    out[0] = column[0] * x[0]
    return out


def caputo_grid(gamma_ord: float, u: GridFunction) -> GridFunction:
    """L1 discretization of the Caputo derivative of order gamma_ord in (0, 1).

    The derivative of the piecewise-linear interpolant is integrated exactly
    against the kernel, giving the classical weights
    a_k = (k+1)^(1-g) - k^(1-g) applied to first differences.  The value at
    t_0 is 0 by convention (the operator annihilates the initial value).
    """
    if not (math.isfinite(gamma_ord) and 0.0 < gamma_ord < 1.0):
        raise DomainError(f"derivative order must lie in (0, 1), got {gamma_ord!r}")
    n = u.grid.n
    if n < 3:
        raise DomainError(f"L1 scheme needs at least 3 nodes, got {n}")
    h = u.grid.h
    k = np.arange(n - 1, dtype=float)
    a = (k + 1.0) ** (1.0 - gamma_ord) - k ** (1.0 - gamma_ord)
    conv = lower_toeplitz_apply(a, np.diff(u.values))
    out = np.zeros(n)
    out[1:] = conv * h ** (-gamma_ord) / gamma(2.0 - gamma_ord)
    return GridFunction(u.grid, out)
