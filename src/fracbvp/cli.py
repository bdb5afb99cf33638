"""Command-line interface: solve, certify, green, example.

Configuration files are flat ``key = value`` text with ``#`` comments; see
docs/config-format.md.  Exit codes: 0 on success, 2 on configuration errors,
3 when the fixed-point iteration diverges.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import AffinePsi, Certificate, ConstantPsi, GrowthSpec, certify, theta
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    EvaluationError,
    FracbvpError,
    ParseError,
)
from .expr import Expr, parse
from .greens import ProblemParams, green_eval
from .solver import ProblemSpec, picard_solve, residual

# Built-in worked example: a right-hand side whose Lipschitz constant 1/11
# yields a published uniqueness certificate.  The reported kernel bound
# 3.1601 is kept verbatim so the certificate's figures are reproduced
# exactly; the coarse bound recomputed from its defining expression comes
# out near 3.277 and is printed alongside for comparison.
EXAMPLE_ALPHA = 1.5
EXAMPLE_BETA = 0.5
EXAMPLE_XI = 0.5
EXAMPLE_K = 1.0 / 11.0
EXAMPLE_RHS = "sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)"
EXAMPLE_GSTAR_REPORTED = 3.1601

_CONFIG_KEYS = {
    "alpha",
    "beta",
    "xi",
    "rhs",
    "grid_n",
    "tol",
    "max_iter",
    "k",
    "p_star",
    "psi_kind",
    "psi_a",
    "psi_b",
    "output_dir",
}


@dataclass(frozen=True)
class Config:
    """Validated run configuration."""

    params: ProblemParams
    rhs_source: str
    rhs: Expr
    grid_n: int = 513
    tol: float = 1e-8
    max_iter: int = 200
    k: Optional[float] = None
    p_star: Optional[float] = None
    psi: Optional[ConstantPsi | AffinePsi] = None
    output_dir: str = "."


def _parse_float(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {text!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: value must be finite, got {text!r}")
    return val


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}") from None


def _check_grid_n(label: str, grid_n: int) -> None:
    # grid_n feeds only `solve`, whose residual check needs n >= 129
    if grid_n < 129:
        raise ConfigError(f"{label} must be >= 129, got {grid_n}")


def _check_tol(label: str, tol: float) -> None:
    if not (0.0 < tol <= 1e-2):
        raise ConfigError(f"{label} must lie in (0, 1e-2], got {tol}")


def parse_config(path: str) -> Config:
    """Read and validate a flat key = value configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        raw[key] = value

    for required in ("alpha", "beta", "xi", "rhs"):
        if required not in raw:
            raise ConfigError(f"{path}: missing required key {required!r}")

    try:
        params = ProblemParams(
            _parse_float("alpha", raw["alpha"]),
            _parse_float("beta", raw["beta"]),
            _parse_float("xi", raw["xi"]),
        )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    rhs_source = raw["rhs"]
    try:
        rhs = parse(rhs_source)
    except ParseError as exc:
        raise ConfigError(f"{path}: key 'rhs': {exc}") from exc

    grid_n = _parse_int("grid_n", raw["grid_n"]) if "grid_n" in raw else 513
    _check_grid_n(f"{path}: grid_n", grid_n)
    tol = _parse_float("tol", raw["tol"]) if "tol" in raw else 1e-8
    _check_tol(f"{path}: tol", tol)
    max_iter = _parse_int("max_iter", raw["max_iter"]) if "max_iter" in raw else 200
    if max_iter < 1:
        raise ConfigError(f"{path}: max_iter must be >= 1, got {max_iter}")

    k = _parse_float("k", raw["k"]) if "k" in raw else None
    if k is not None and k < 0.0:
        raise ConfigError(f"{path}: k must be >= 0, got {k}")

    psi: Optional[ConstantPsi | AffinePsi] = None
    if "psi_kind" in raw:
        kind = raw["psi_kind"].lower()
        if kind == "constant":
            if "psi_a" not in raw:
                raise ConfigError(f"{path}: psi_kind=constant needs psi_a")
            if "psi_b" in raw:
                raise ConfigError(f"{path}: psi_b applies only to psi_kind=affine")
            try:
                psi = ConstantPsi(_parse_float("psi_a", raw["psi_a"]))
            except DomainError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        elif kind == "affine":
            if "psi_a" not in raw:
                raise ConfigError(f"{path}: psi_kind=affine needs psi_a")
            b = _parse_float("psi_b", raw["psi_b"]) if "psi_b" in raw else 0.0
            try:
                psi = AffinePsi(_parse_float("psi_a", raw["psi_a"]), b)
            except DomainError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        else:
            raise ConfigError(
                f"{path}: psi_kind must be 'constant' or 'affine', got {raw['psi_kind']!r}"
            )
    elif "psi_a" in raw or "psi_b" in raw:
        raise ConfigError(f"{path}: psi_a/psi_b need psi_kind")

    p_star = _parse_float("p_star", raw["p_star"]) if "p_star" in raw else None
    if p_star is not None and p_star < 0.0:
        raise ConfigError(f"{path}: p_star must be >= 0, got {p_star}")
    if (psi is None) != (p_star is None):
        raise ConfigError(f"{path}: growth condition needs both psi_kind and p_star")

    return Config(
        params=params,
        rhs_source=rhs_source,
        rhs=rhs,
        grid_n=grid_n,
        tol=tol,
        max_iter=max_iter,
        k=k,
        p_star=p_star,
        psi=psi,
        output_dir=raw.get("output_dir", "."),
    )


def _fmt(x: float) -> str:
    """Shortest decimal capped at 15 significant digits."""
    return format(float(x), ".15g")


def _trunc6(x: float) -> str:
    """Truncate toward zero at 6 decimals; reproduces reported constants
    that were printed truncated rather than rounded."""
    return f"{math.floor(x * 1e6) / 1e6:.6f}"


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory; no partial files."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _solution_csv(grid_nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> str:
    """One ``t,u,v`` row per node, each value formatted as :func:`_fmt` does."""
    table = np.column_stack((grid_nodes, u, v)).ravel().tolist()
    return "t,u,v\n" + ("%.15g,%.15g,%.15g\n" * len(grid_nodes)) % tuple(table)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_solve(config: Config, out_dir: str) -> int:
    spec = ProblemSpec(config.params, config.rhs)
    try:
        pair, report = picard_solve(
            spec, config.grid_n, tol=config.tol, max_iter=config.max_iter
        )
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    res = residual(spec, pair)

    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(
        os.path.join(out_dir, "solution.csv"),
        _solution_csv(pair.grid.nodes, pair.u.values, pair.v.values),
    )
    body = {
        "alpha": config.params.alpha,
        "beta": config.params.beta,
        "xi": config.params.xi,
        "rhs": config.rhs_source,
        "grid_n": config.grid_n,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "converged": report.converged,
        "iterations": report.iterations,
        "final_diff": report.diffs[-1],
        "observed_ratio": report.observed_ratio,
        "diffs": list(report.diffs),
    }
    body.update(res.as_dict())
    _write_atomic(
        os.path.join(out_dir, "report.json"), json.dumps(body, indent=2) + "\n"
    )
    print(f"converged in {report.iterations} iterations; wrote {out_dir}/solution.csv")
    return 0


def _certificate_lines(cert: Certificate) -> list[str]:
    lines = [
        f"gstar_value={cert.gstar_value:.12f}",
        f"gstar_paper_bound={cert.gstar_paper_bound:.12f}",
        f"theta={cert.theta:.12f}",
        f"k={cert.k:.12f}",
        f"d={cert.d:.12f}",
        f"unique={_bool_text(cert.unique)}",
        f"r={'none' if cert.r is None else f'{cert.r:.12f}'}",
        f"exists={_bool_text(cert.exists)}",
        f"estimated_k={_bool_text(cert.estimated_k)}",
    ]
    return lines


def _is_example_params(params: ProblemParams) -> bool:
    return (
        abs(params.alpha - EXAMPLE_ALPHA) < 1e-12
        and abs(params.beta - EXAMPLE_BETA) < 1e-12
        and abs(params.xi - EXAMPLE_XI) < 1e-12
    )


def cmd_certify(config: Config, out_dir: Optional[str]) -> int:
    spec = ProblemSpec(config.params, config.rhs)
    growth = None
    if config.psi is not None and config.p_star is not None:
        growth = GrowthSpec(config.p_star, config.psi)
    cert = certify(spec, k=config.k, growth=growth)
    lines = _certificate_lines(cert)
    if _is_example_params(config.params):
        # reproduction path for the worked example's published figure
        lines.append(f"d_paper={_trunc6(2.0 * cert.k * EXAMPLE_GSTAR_REPORTED)}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "certificate.txt"), text)
    return 0


def cmd_green(config: Config, out_dir: str, m_t: int, m_s: int) -> int:
    if m_t < 2 or m_s < 2:
        raise ConfigError(f"lattice needs m_t >= 2 and m_s >= 2, got {m_t}, {m_s}")
    params = config.params
    singular_tail = params.alpha - params.beta < 1.0
    t_vals = np.linspace(0.0, 1.0, m_t)
    s_vals = np.linspace(0.0, 1.0, m_s)
    lines = []
    if singular_tail:
        lines.append("# s=1 rows omitted: kernel unbounded there (alpha-beta < 1)")
    lines.append("t,s,G")
    for s in s_vals:
        if singular_tail and s == 1.0:
            continue
        for t in t_vals:
            lines.append(f"{_fmt(t)},{_fmt(s)},{_fmt(green_eval(params, t, s))}")
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "green.csv"), "\n".join(lines) + "\n")
    print(f"wrote {out_dir}/green.csv ({m_t} t-nodes x {m_s} s-nodes)")
    return 0


def cmd_example() -> int:
    """Run the built-in worked example and print its certificate and solve."""
    params = ProblemParams(EXAMPLE_ALPHA, EXAMPLE_BETA, EXAMPLE_XI)
    rhs = parse(EXAMPLE_RHS)
    spec = ProblemSpec(params, rhs)
    k = EXAMPLE_K
    th = theta(params)
    cert = certify(spec, k=k, n=2049, m=513)

    out = [
        f"alpha={_fmt(EXAMPLE_ALPHA)}",
        f"beta={_fmt(EXAMPLE_BETA)}",
        f"xi={_fmt(EXAMPLE_XI)}",
        f"k={_fmt(k)}",
        f"rhs={EXAMPLE_RHS}",
        f"theta={th:.12f}",
        f"second_term={_trunc6(2.0 * k * th)}",
        f"gstar_reported={_fmt(EXAMPLE_GSTAR_REPORTED)}",
        f"first_term_paper={_trunc6(2.0 * k * EXAMPLE_GSTAR_REPORTED)}",
        f"gstar_value={cert.gstar_value:.12f}",
        f"gstar_paper_bound={cert.gstar_paper_bound:.12f}",
        f"first_term={2.0 * k * cert.gstar_value:.12f}",
        f"d={cert.d:.12f}",
        f"unique={_bool_text(cert.unique)}",
    ]
    pair, report = picard_solve(spec, 513, tol=1e-10)
    res = residual(spec, pair)
    out += [
        "solver_grid_n=513",
        "solver_tol=1e-10",
        f"converged={_bool_text(report.converged)}",
        f"iterations={report.iterations}",
        f"final_diff={_fmt(report.diffs[-1])}",
        f"observed_ratio={_fmt(report.observed_ratio)}",
        f"differential_residual={_fmt(res.differential)}",
        f"boundary_value_defect={_fmt(res.boundary_value)}",
        f"boundary_fractional_defect={_fmt(res.boundary_fractional)}",
        f"consistency_defect={_fmt(res.consistency)}",
    ]
    print("\n".join(out))
    return 0


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace per call,
    # so one main call's arguments never reach the next.
    ap = argparse.ArgumentParser(
        prog="fracbvp",
        description="Solve and certify Caputo fractional boundary value "
        "problems with ratio boundary conditions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--grid", type=int, help="grid size override")
        p.add_argument("--tol", type=float, help="tolerance override")

    add_common(sub.add_parser("solve", help="run the fixed-point solver"))
    add_common(sub.add_parser("certify", help="compute a certificate"))
    green = sub.add_parser("green", help="tabulate the kernel on a lattice")
    add_common(green)
    green.add_argument("--mt", type=int, default=11, help="t lattice size")
    green.add_argument("--ms", type=int, default=11, help="s lattice size")
    sub.add_parser("example", help="run the built-in worked example")
    return ap


def _apply_overrides(config: Config, args: argparse.Namespace) -> Config:
    updates: dict[str, object] = {}
    if args.grid is not None:
        _check_grid_n("--grid", args.grid)
        updates["grid_n"] = args.grid
    if args.tol is not None:
        _check_tol("--tol", args.tol)
        updates["tol"] = args.tol
    if not updates:
        return config
    from dataclasses import replace

    return replace(config, **updates)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.command == "example":
            return cmd_example()
        config = parse_config(args.config)
        config = _apply_overrides(config, args)
        out_dir = args.out or config.output_dir
        if args.command == "solve":
            return cmd_solve(config, out_dir)
        if args.command == "certify":
            return cmd_certify(config, args.out or (None if config.output_dir == "." else config.output_dir))
        return cmd_green(config, out_dir, args.mt, args.ms)
    except (ConfigError, DomainError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (EvaluationError, FracbvpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
