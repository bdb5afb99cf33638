"""Seeded inputs for the benchmark workloads.

Every op gets its own config, drawn from ``numpy.random.default_rng`` seeded
with (seed, workload, op index), so the same seed always yields the same
configs and no two ops in a run share one.  The program under test sees
only the config files; each right-hand side also comes with a numpy twin
of its expression that the output checks use, so the reference never goes
through ``fracbvp.expr``.

This module imports nothing from fracbvp: the inputs must not depend on the
code being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Rhs = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Fractional part of i * golden ratio: a low-discrepancy sequence, so the
# contraction targets of any run cover their range evenly whatever the seed
# and op timings stay comparable from run to run.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OpInput:
    """One op: the config text the CLI reads plus what the checks need."""

    index: int
    command: str
    config: dict[str, str]
    alpha: float
    beta: float
    xi: float
    rhs: Rhs

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Input ranges, and the Picard iteration range they target; printed
    # with every result.
    ranges: dict[str, object]
    # Configs written during set-up; a timed loop stops early if it uses all.
    max_ops: int
    # Traced ops per traced run.  Fixed, so per-run counts repeat exactly.
    trace_ops: int
    make: Callable[[int, int], OpInput]


def _num(x: float) -> float:
    """Round to 8 significant digits so configs stay readable; the checks use
    the rounded value too."""
    return float(f"{x:.8g}")


def _rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, workload_id, index))


def _stratified(seed: int, workload_id: int, index: int, lo: float, hi: float) -> float:
    offset = np.random.default_rng((seed, workload_id)).random()
    return lo + (hi - lo) * ((offset + index * _GOLDEN) % 1.0)


def pair(index: int) -> int:
    """The pair an op belongs to: ops 2j+1 and 2j+2 form pair j+1, op 0 is
    pair 0.

    Everything that sets an op's cost by design (rhs template, contraction
    target, edge class, whether k is supplied) is drawn from its pair, so the
    two ops of a pair differ only in their seeded draws.  A traced run traces
    one op of each pair and runs the other untraced, so its tracing overhead
    compares like with like.
    """
    return (index + 1) // 2


def trace_split(trace_ops: int) -> tuple[list[int], list[int]]:
    """Op indices of a traced run, untraced and traced: op 0 warms the
    process up, then each pair gives one untraced op and one traced op."""
    return [2 * j + 1 for j in range(trace_ops)], [2 * j + 2 for j in range(trace_ops)]


def kernel_cell_integrals(alpha: float, beta: float, xi: float, t, r_edges: np.ndarray) -> np.ndarray:
    """Exact integrals of the Green's kernel G(t, s) over s-cells.

    The cells are written in r = 1 - s so that a cell can reach s = 1
    exactly: ``r_edges`` decreases, and cell i is [1 - r_edges[i],
    1 - r_edges[i+1]].  ``t`` is a scalar or a column of t values; the result
    has one row per t and one column per cell.  Each integral is the sum of
    closed-form antiderivatives of the kernel's three terms: the left branch
    (t - s)^(alpha-1) / Gamma(alpha) for s < t, the ratio term and the
    singular (1 - s)^(alpha-beta-1) term.
    """
    g = math.gamma
    mu = alpha - beta
    r0, r1 = r_edges[:-1], r_edges[1:]
    left = (np.maximum(t - (1.0 - r0), 0.0) ** alpha - np.maximum(t - (1.0 - r1), 0.0) ** alpha) / g(
        alpha + 1.0
    )
    ratio = xi / (g(alpha) * (1.0 - xi)) * (r0**alpha - r1**alpha) / alpha
    sing = g(2.0 - beta) * (xi + (1.0 - xi) * t) / (g(mu) * (1.0 - xi)) * (r0**mu - r1**mu) / mu
    return left + ratio - sing


def green_spectrum(alpha: float, beta: float, xi: float, cells: int = 32) -> tuple[float, float]:
    """Spectral radius of the Green's operator G, which is the Picard
    step's linear part when f = u, and the ratio |lambda_2| / |lambda_1| of
    its two largest eigenvalues.

    Uses piecewise-constant collocation at cell midpoints with exact cell
    integrals of the closed-form kernel; at 32 cells this agrees with the
    solver's own discretization to about 0.3% over the solve workloads'
    parameter box.
    """
    r = np.linspace(1.0, 0.0, cells + 1)
    t = (1.0 - 0.5 * (r[:-1] + r[1:]))[:, None]
    mags = np.sort(np.abs(np.linalg.eigvals(kernel_cell_integrals(alpha, beta, xi, t, r))))
    return float(mags[-1]), float(mags[-2] / mags[-1])


# ---------------------------------------------------------------- solve ----

# Each template is c*u (or -c*u) plus a nonlinear term of amplitude e = 2-5%
# of c in the state z (u or v, per workload) and a forcing in t.  c sets the
# contraction ratio through the spectral radius of G.  v enters only through
# the small term: a v share comparable to u gives complex dominant
# eigenvalues, whose oscillating steps make the observed ratio swing.  Only
# the grammar of docs/expression-grammar.md is used.


def _solve_rhs(kind: int, c: float, e: float, w: float, g: float, z: str) -> tuple[str, Rhs]:
    """Return the source text and its numpy twin."""

    def state(u, v):
        return u if z == "u" else v

    if kind == 0:
        src = f"{c!r}*u + {e!r}*sin({z}) + cos({w!r}*t) - {g!r}*t^2"

        def f(t, u, v):
            return c * u + e * np.sin(state(u, v)) + np.cos(w * t) - g * t**2

    elif kind == 1:
        src = f"-{c!r}*u + {e!r}*{z}^2/(1 + {z}^2) + exp(-{w!r}*t)*sqrt(1 + {g!r}*t)"

        def f(t, u, v):
            zz = state(u, v)
            return -c * u + e * zz**2 / (1.0 + zz**2) + np.exp(-w * t) * np.sqrt(1.0 + g * t)

    else:
        src = f"{c!r}*u + {e!r}*cos(u + {z}) + {g!r}*ln(2 + sin(pi*t))"

        def f(t, u, v):
            return c * u + e * np.cos(u + state(u, v)) + g * np.log(2.0 + np.sin(math.pi * t))

    return src, f


_SOLVE_BOX = {"alpha": (1.3, 1.9), "beta": (0.1, 0.6), "xi": (0.2, 0.6)}
_SPECTRAL_GAP = 0.7
# "forcing" holds the upper ends of the forcing frequency w and amplitude g;
# each is drawn from [x/4, x].  solve_large's output check compares n=8193
# with n=2049, so its right-hand side is smooth: a slow forcing, and the
# nonlinear term in u, not v, whose t^(2-alpha) behaviour at 0 lowers the
# order of convergence.
_SOLVE_LARGE = {**_SOLVE_BOX, "grid_n": 8193, "tol": 1e-10, "contraction": (0.01, 0.03),
                "iterations": (5, 8), "forcing": (0.4, 0.05), "nonlinear_in": "u"}
_SOLVE_ITERATIVE = {**_SOLVE_BOX, "grid_n": 513, "tol": 1e-10, "contraction": (0.5, 0.7),
                    "iterations": (30, 70), "forcing": (3.0, 1.0), "nonlinear_in": "v"}


def _solve_maker(workload_id: int, ranges: dict):
    def make(seed: int, index: int) -> OpInput:
        rng = _rng(seed, workload_id, index)
        # Part of the box gives G a complex dominant pair; steps then rotate
        # and the observed ratio swings, so redraw until one real eigenvalue
        # dominates the rest.
        while True:
            alpha, beta, xi = (_num(rng.uniform(*ranges[k])) for k in ("alpha", "beta", "xi"))
            radius, gap = green_spectrum(alpha, beta, xi)
            if gap < _SPECTRAL_GAP:
                break
        rho = _stratified(seed, workload_id, pair(index), *ranges["contraction"])
        c = _num(rho / radius)
        e = _num(c * rng.uniform(0.02, 0.05))
        w, g = (_num(x * rng.uniform(0.25, 1.0)) for x in ranges["forcing"])
        src, rhs = _solve_rhs(pair(index) % 3, c, e, w, g, ranges["nonlinear_in"])
        config = {
            "alpha": repr(alpha),
            "beta": repr(beta),
            "xi": repr(xi),
            "rhs": src,
            "grid_n": str(ranges["grid_n"]),
            "tol": repr(ranges["tol"]),
            "max_iter": "400",
        }
        return OpInput(index, "solve", config, alpha, beta, xi, rhs)

    return make


# -------------------------------------------------------------- certify ----

# Edge classes, cycled by pair so that every run holds the same mix.  Each
# entry maps a parameter to its range; alpha - beta near 0 forces alpha near 1
# and beta near 1, which is the strongest singularity of the kernel at s = 1.
_CERTIFY_CLASSES = (
    ("interior", {"alpha": (1.2, 1.9), "beta": (0.1, 0.9), "xi": (0.1, 0.8)}),
    ("alpha_2", {"alpha": (2.0, 2.0), "beta": (0.1, 0.9), "xi": (0.1, 0.8)}),
    ("singular", {"alpha": (1.001, 1.01), "beta": (0.99, 0.999), "xi": (0.1, 0.8)}),
    ("alpha_near_1", {"alpha": (1.001, 1.02), "beta": (0.1, 0.9), "xi": (0.1, 0.8)}),
    ("xi_high", {"alpha": (1.2, 1.9), "beta": (0.1, 0.9), "xi": (0.85, 0.95)}),
)


def _certify_rhs(kind: int, a: float, b: float) -> tuple[str, Rhs, float, tuple[str, float, float]]:
    """Return (source, numpy twin, Lipschitz constant, growth envelope).

    Every template attains its largest partial derivative at u = v = 0, so
    the constant holds on any state box around the origin.  The growth
    envelope is (psi_kind, psi_a, psi_b) with p_star = 1.
    """
    if kind == 0:
        src = f"{a!r}*sin(u) + {b!r}*v/(1 + t^2) + cos(t)"

        def f(t, u, v):
            return a * np.sin(u) + b * v / (1.0 + t**2) + np.cos(t)

        return src, f, max(a, b), ("affine", 1.0, _num(a + b))
    if kind == 1:
        src = f"{a!r}*u/(1 + u^2) + {b!r}*sin(v)*exp(-t)"

        def f(t, u, v):
            return a * u / (1.0 + u**2) + b * np.sin(v) * np.exp(-t)

        return src, f, max(a, b), ("constant", _num(0.5 * a + b), 0.0)
    src = f"{a!r}*cos(t)*sin(u + v) + exp(-t)"

    def f(t, u, v):
        return a * np.cos(t) * np.sin(u + v) + np.exp(-t)

    return src, f, a, ("constant", _num(a + 1.0), 0.0)


def _certify_make(seed: int, index: int) -> OpInput:
    rng = _rng(seed, 2, index)
    # k is supplied on odd pairs; each edge class gets one pair of each mode.
    p = pair(index)
    _, box = _CERTIFY_CLASSES[(p // 2) % len(_CERTIFY_CLASSES)]
    alpha, beta, xi = (_num(rng.uniform(*box[k])) for k in ("alpha", "beta", "xi"))
    a, b = _num(rng.uniform(0.05, 0.5)), _num(rng.uniform(0.05, 0.5))
    src, rhs, k, (psi_kind, psi_a, psi_b) = _certify_rhs((p // 10) % 3, a, b)
    config = {"alpha": repr(alpha), "beta": repr(beta), "xi": repr(xi), "rhs": src}
    if p % 2:
        config.update(k=repr(k), psi_kind=psi_kind, psi_a=repr(psi_a), p_star="1.0")
        if psi_kind == "affine":
            config["psi_b"] = repr(psi_b)
    return OpInput(index, "certify", config, alpha, beta, xi, rhs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="solve_large",
            why="solve at grid_n=8193, 5-8 Picard steps: the dense n x n weight "
            "build in greens/fracops dominates time and peak memory",
            ranges=_SOLVE_LARGE,
            max_ops=32,
            trace_ops=2,
            make=_solve_maker(0, _SOLVE_LARGE),
        ),
        Workload(
            name="solve_iterative",
            why="solve at grid_n=513, tol=1e-10, contraction 0.45-0.75 (30-70 Picard "
            "steps): the per-node expr tree walk dominates, the operator is cheap",
            ranges=_SOLVE_ITERATIVE,
            max_ops=256,
            trace_ops=6,
            make=_solve_maker(1, _SOLVE_ITERATIVE),
        ),
        Workload(
            name="certify_sweep",
            why="certify at defaults n=2049, m=257 over edge triples, k omitted in "
            "half: the G* scan dominates, lipschitz_estimate is the rest, no solver",
            ranges={"classes": dict(_CERTIFY_CLASSES), "coefficients": (0.05, 0.5),
                    "k_omitted": "even pairs, see pair()", "n": 2049, "m": 257},
            max_ops=256,
            trace_ops=8,
            make=_certify_make,
        ),
    )
}
