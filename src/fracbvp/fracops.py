"""Fractional integral and derivative operators on uniform grids.

The continuous operators are the Riemann-Liouville integral

    I^a f(t) = (1/Gamma(a)) * integral_0^t (t-s)^(a-1) f(s) ds,   a > 0,

and the Caputo derivative of order g in (0, 1]

    D^g f(t) = (1/Gamma(1-g)) * integral_0^t (t-s)^(-g) f'(s) ds,

which annihilates constants.  Grid versions use product integration: the
weakly singular factor is integrated exactly against the piecewise-linear
interpolant of the data, so both grid operators are exact (to roundoff)
whenever the input is piecewise linear on the grid.  On a uniform grid both
are convolutions, held as the first column of a lower-triangular Toeplitz
matrix.  :class:`KernelOperator` is the one FFT path: it holds one or more
such columns, each with its own rank-1 updates, and applies them with
transforms of the shortest power-of-two length >= 2n - 2 that keeps the
product exact.  Each column's spectrum is computed once, when the operator
is built, and one forward transform of the input serves every stacked block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """Uniform nodes t_i = i/(n-1) on [0, 1], for any integer n >= 2."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:  # bools are < 2
            raise DomainError(f"grid needs an integer node count >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
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


def _power_steps(q: float, n: int) -> np.ndarray:
    """First differences k^q - (k-1)^q, k = 1, ..., n-1, of integer powers:
    the one formula behind the kernel moments and the L1 weights."""
    return np.diff(np.arange(n, dtype=float) ** q)


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
    da, da1 = _power_steps(alpha, n), _power_steps(alpha + 1.0, n)
    r = np.arange(1.0, n)  # offset i - m of cell m from node i
    p0 = da / alpha
    p_up = r * da / alpha - da1 / (alpha + 1.0)
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


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Quadrature weights of k kernels on a grid, stacked, in O(n) memory.

    ``column`` has shape (n,) or (k, n).  Block b of the (k n) x n weight
    matrix W is the lower-triangular Toeplitz T_b[i, j] = column[b, i - j],
    j <= i, plus outer(left, right) for each ``(b, left, right)`` in
    ``factors``, in order.  ``left`` is a scalar or a length-n array, and
    ``right`` a length-n array or an index j for e_j, read as x[j] itself
    (e_j @ x would turn x[j] = -0.0 into +0.0).

    ``W @ x`` is the package's one FFT path: x and each column are
    zero-padded to the shortest power of two N >= 2n - 2 and multiplied as
    a circular convolution, one forward transform of x and one inverse
    transform per block.  Only the linear convolution's last index 2n - 2,
    the single term column[n-1] x[n-1], wraps around, onto entry 0; entry 0
    of each block is a single term and is set exactly.  So the product is
    exact to roundoff, and rows that vanish at t = 0 stay exactly zero.
    The spectra are prepared at construction; :meth:`dense` expands W.
    """

    column: np.ndarray
    factors: tuple[tuple[int, float | np.ndarray, np.ndarray | int], ...]

    def __post_init__(self) -> None:
        blocks = np.atleast_2d(self.column)
        size = _fft_size(blocks.shape[1])
        spectra = [np.fft.rfft(c, size) for c in blocks]
        object.__setattr__(self, "_fft", (size, spectra, blocks[:, 0].copy()))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.column.size, self.column.shape[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.column.shape[-1]
        if x.shape != (n,):
            raise DomainError(f"operator takes a vector of length {n}, got shape {x.shape}")
        size, spectra, head = self._fft  # type: ignore[attr-defined]
        fx = np.fft.rfft(x, size)
        out = np.array([np.fft.irfft(s * fx, size)[:n] for s in spectra])
        out[:, 0] = head * x[0]
        for b, left, right in self.factors:
            out[b] += left * (x[right] if isinstance(right, int) else right @ x)
        return out.ravel()

    def dense(self) -> np.ndarray:
        """The (k n) x n matrix W; O(k n^2) memory, for reference checks."""
        blocks, n = np.atleast_2d(self.column), self.column.shape[-1]
        # row i of a block is its reversed, zero-padded column read from offset n-1-i
        padded = np.concatenate((np.zeros((len(blocks), n - 1)), blocks), axis=1)[:, ::-1]
        out = np.lib.stride_tricks.sliding_window_view(padded, n, axis=1)[:, ::-1].copy()
        for b, left, right in self.factors:
            out[b] += np.outer(left, np.eye(1, n, right)[0] if isinstance(right, int) else right)
        return out.reshape(-1, n)


def _caputo_l1(gamma_ord: float, grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """L1 discretization of the Caputo derivative of order gamma_ord in (0, 1)
    on ``grid``, as a map from samples to derivative values.

    The derivative of the piecewise-linear interpolant is integrated exactly
    against the kernel, giving the classical weights
    a_k = (k+1)^(1-g) - k^(1-g) applied to first differences.  The value at
    t_0 is 0 by convention (the operator annihilates the initial value).
    The weights are built once, so one map serves any number of inputs.
    """
    h = grid.h
    weights = KernelOperator(_power_steps(1.0 - gamma_ord, grid.n), ())

    def apply(values: np.ndarray) -> np.ndarray:
        conv = weights @ np.diff(values)
        return np.append(0.0, conv * h ** (-gamma_ord) / gamma(2.0 - gamma_ord))

    return apply
