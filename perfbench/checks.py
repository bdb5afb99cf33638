"""Output checks for benchmark ops.

Each check reads what the CLI wrote and raises :class:`CheckError` when the
output is wrong.  The references are built so that any correct
implementation passes, whatever its internals:

* solve: the ratio boundary condition, and agreement with a dense-oracle
  fixed point iterated here from ``green_weight_matrix`` and
  ``companion_weight_matrix`` (kept as the fixed reference) with the
  right-hand side evaluated by the generator's numpy twin, not by
  ``fracbvp.expr``;
* certify: closed forms for theta and the paper bound, a lower bound for
  G* from exact cell integrals of the kernel, and d, unique and r recomputed
  from the printed numbers.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from gen import OpInput, kernel_cell_integrals

# Largest grid the solve oracle builds; finer solves are compared on the
# oracle's nodes, a subset of theirs.
REFERENCE_N = 2049
SOLVE_TOL = 1e-8
BOUNDARY_TOL = 1e-12
# Relative slack for values printed with 12 decimals or recomputed here in
# a different order of operations.
PRINT_TOL = 1e-9
# Scan nodes of every certify grid m = 2^j + 1 with j >= 6.
_LOWER_T = np.linspace(0.0, 1.0, 65)
_LOWER_CELLS = 2048
# Geometric cells 2^-12 .. 2^-1000 resolve the (1-s)^(alpha-beta-1) spike at
# s = 1 when alpha - beta is near 0.
_TAIL = 2.0 ** -np.arange(12.0, 1001.0)
_LIPSCHITZ_T = 65
_LIPSCHITZ_BOX = 10.0


class CheckError(Exception):
    """An op's output failed its check."""


def check_op(op: OpInput, out_dir: str) -> None:
    if op.command == "solve":
        verify_solve(op, *read_solution(out_dir))
    else:
        verify_certificate(op, read_certificate(out_dir))


# ---------------------------------------------------------------- solve ----


def dense_fixed_point(op: OpInput, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate (u, v) <- (G f, H f) with dense weights to a step of 1e-14."""
    from fracbvp import Grid, ProblemParams, companion_weight_matrix, green_weight_matrix

    params = ProblemParams(op.alpha, op.beta, op.xi)
    grid = Grid(n)
    green, companion = green_weight_matrix(params, grid), companion_weight_matrix(params, grid)
    t = grid.nodes
    u, v = np.zeros(n), np.zeros(n)
    for _ in range(2000):
        f = op.rhs(t, u, v)
        u_next, v_next = green @ f, companion @ f
        step = max(np.max(np.abs(u_next - u)), np.max(np.abs(v_next - v)))
        u, v = u_next, v_next
        if step <= 1e-14 * max(1.0, np.max(np.abs(u)), np.max(np.abs(v))):
            return u, v
    raise CheckError("dense oracle did not converge")


def read_solution(out_dir: str) -> tuple[dict, np.ndarray]:
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        table = np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"unreadable solve output: {exc}") from exc
    return report, table


def verify_solve(op: OpInput, report: dict, table: np.ndarray) -> None:
    n = int(op.config["grid_n"])
    if report.get("converged") is not True:
        raise CheckError("report.json does not say converged")
    if table.shape != (n, 3):
        raise CheckError(f"solution.csv has shape {table.shape}, expected ({n}, 3)")
    u, v = table[:, 1], table[:, 2]
    scale = max(1.0, float(np.max(np.abs(u))))
    defect = abs(u[0] - op.xi * u[-1])
    if not defect <= BOUNDARY_TOL * scale:
        raise CheckError(f"|u(0) - xi u(1)| = {defect:.3g} exceeds {BOUNDARY_TOL:g} * {scale:.3g}")
    n_ref = min(n, REFERENCE_N)
    stride = (n - 1) // (n_ref - 1)
    if stride * (n_ref - 1) != n - 1:
        raise CheckError(f"grid_n={n} does not contain the n={n_ref} oracle grid")
    u_ref, v_ref = dense_fixed_point(op, n_ref)
    gap = max(np.max(np.abs(u[::stride] - u_ref)), np.max(np.abs(v[::stride] - v_ref)))
    ref_scale = max(1.0, float(np.max(np.abs(u_ref))), float(np.max(np.abs(v_ref))))
    if not gap <= SOLVE_TOL * ref_scale:
        raise CheckError(f"solution differs from the n={n_ref} dense oracle by {gap:.3g}")


# -------------------------------------------------------------- certify ----


def theta(alpha: float, beta: float) -> float:
    g = math.gamma
    return 1.0 + g(2.0 - beta) / (g(3.0 - alpha) * g(alpha - beta + 1.0))


def paper_bound(alpha: float, beta: float, xi: float) -> float:
    g = math.gamma
    return (1.0 / g(alpha + 1.0) + g(2.0 - beta) / g(alpha - beta + 1.0)) / (1.0 - xi)


def gstar_lower(alpha: float, beta: float, xi: float) -> float:
    """A lower bound for sup_t integral |G(t, s)| ds.

    For t on a few scan nodes, sums |integral of G over a cell| over a fine
    partition of [0, 1] that has t as a breakpoint.  Each cell integral is
    exact (gen.kernel_cell_integrals), and the sum can only undershoot the
    integral of |G|.
    """
    best = 0.0
    for t in _LOWER_T:
        # partition points in r = 1 - s, decreasing from 1 to 0
        r = np.unique(np.concatenate((np.linspace(0.0, 1.0, _LOWER_CELLS + 1), _TAIL, [1.0 - t])))[::-1]
        best = max(best, float(np.sum(np.abs(kernel_cell_integrals(alpha, beta, xi, t, r)))))
    return best


def sampled_lipschitz(op: OpInput) -> float:
    """max(|df/du|, |df/dv|) by central differences on the lattice the
    sampled estimate uses: 65 t values crossed with 5 points per state axis
    on [-10, 10]."""
    b = _LIPSCHITZ_BOX
    t, u, v = np.meshgrid(
        np.linspace(0.0, 1.0, _LIPSCHITZ_T), [-b, -0.5 * b, 0.0, 0.5 * b, b], [-b, -0.5 * b, 0.0, 0.5 * b, b]
    )
    du, dv = 1e-6 * (1.0 + np.abs(u)), 1e-6 * (1.0 + np.abs(v))
    fu = (op.rhs(t, u + du, v) - op.rhs(t, u - du, v)) / (2.0 * du)
    fv = (op.rhs(t, u, v + dv) - op.rhs(t, u, v - dv)) / (2.0 * dv)
    return float(max(np.max(np.abs(fu)), np.max(np.abs(fv))))


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= PRINT_TOL * max(1.0, abs(want)):
        raise CheckError(f"{what} = {got!r}, expected {want!r}")


def read_certificate(out_dir: str) -> dict[str, str]:
    try:
        with open(os.path.join(out_dir, "certificate.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckError(f"unreadable certificate: {exc}") from exc
    return dict(line.split("=", 1) for line in lines if "=" in line)


def verify_certificate(op: OpInput, cert: dict[str, str]) -> None:
    a, b, xi = op.alpha, op.beta, op.xi
    try:
        gs, bound, th, k, d = (
            float(cert[key]) for key in ("gstar_value", "gstar_paper_bound", "theta", "k", "d")
        )
        unique, r_text, exists = cert["unique"], cert["r"], cert["exists"]
        estimated = cert["estimated_k"]
    except (KeyError, ValueError) as exc:
        raise CheckError(f"certificate is missing or garbles {exc}") from exc

    _close(th, theta(a, b), "theta")
    _close(bound, paper_bound(a, b, xi), "gstar_paper_bound")
    lower = gstar_lower(a, b, xi) * (1.0 - PRINT_TOL)
    if not lower <= gs <= bound * (1.0 + PRINT_TOL):
        raise CheckError(f"gstar_value {gs!r} outside [{lower!r}, {bound!r}]")

    if "k" in op.config:
        _close(k, float(op.config["k"]), "k")
        if estimated != "false":
            raise CheckError("supplied k is flagged estimated")
    else:
        floor = sampled_lipschitz(op)
        if not k >= floor * (1.0 - 1e-6) - 1e-8:
            raise CheckError(f"k = {k!r} is below the sampled Lipschitz bound {floor!r}")

    d_want = max(2.0 * k * gs, 2.0 * k * th)
    _close(d, d_want, "d")
    if unique != ("true" if d < 1.0 else "false"):
        raise CheckError(f"unique={unique} does not follow from d={d!r}")

    r_want = None
    if "psi_kind" in op.config:
        m = max(gs, th)
        p, psi_a = float(op.config["p_star"]), float(op.config["psi_a"])
        if op.config["psi_kind"] == "constant":
            r_want = p * psi_a * m
        elif (slope := p * float(op.config["psi_b"]) * m) < 1.0:
            r_want = p * psi_a * m / (1.0 - slope)
    if r_want is None:
        if r_text != "none" or exists != "false":
            raise CheckError(f"r={r_text}, exists={exists}; expected no radius")
    else:
        if r_text == "none" or exists != "true":
            raise CheckError(f"r={r_text}, exists={exists}; expected r = {r_want!r}")
        _close(float(r_text), r_want, "r")
