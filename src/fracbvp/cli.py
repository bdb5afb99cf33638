"""Command-line interface: solve, certify, green, example.

Configuration files are flat ``key = value`` text with ``#`` comments; see
docs/config-format.md.  Exit codes: 0 on success, 2 on configuration errors,
3 when the fixed-point iteration diverges.

Every number in ``solution.csv`` and ``green.csv`` is byte-identical to
Python's ``format(x, ".15g")``.  The digits are computed in numpy with
exact rounding for 1e-8 <= |x| < 1e15 (see ``_csvtext``); zeros are
written directly, and any other value is formatted on its own by
``"%.15g" % x``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from ._csvtext import csv_rows
from .certify import Certificate, GrowthSpec, certify, contradiction
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    FracbvpError,
    ParseError,
)
from .expr import Expr, parse
from .greens import ProblemParams, _green_terms, _value
from .solver import ProblemSpec, picard_solve, residual

# Built-in worked example: a right-hand side whose Lipschitz constant 1/11
# yields a published uniqueness certificate.  `example` alone prints the
# published figure, from the reported kernel bound 3.1601 kept verbatim; the
# coarse bound recomputed from its defining expression comes out near 3.277
# and is printed alongside for comparison.
EXAMPLE_ALPHA = 1.5
EXAMPLE_BETA = 0.5
EXAMPLE_XI = 0.5
EXAMPLE_K = 1.0 / 11.0
EXAMPLE_RHS = "sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)"
EXAMPLE_GSTAR_REPORTED = 3.1601

# The config schema: key -> (kind, default, range check).  kind is float (read
# as a finite float), int or str; the default ... marks a key the file must
# give.  A range check (ok, wording) rejects a value v with "<key> <wording>,
# got <v!r>".  grid_n feeds only `solve`, whose residual check needs n >= 129.
_KEYS: dict[str, tuple[type, Any, Optional[tuple[Callable[[Any], bool], str]]]] = {
    "alpha": (float, ..., None),
    "beta": (float, ..., None),
    "xi": (float, ..., None),
    "rhs": (str, ..., None),
    "grid_n": (int, 513, (lambda n: n >= 129, "must be >= 129")),
    "tol": (float, 1e-8, (lambda x: 0.0 < x <= 1e-2, "must lie in (0, 1e-2]")),
    "max_iter": (int, 200, (lambda n: n >= 1, "must be >= 1")),
    "k": (float, None, (lambda x: x >= 0.0, "must be >= 0")),
    "p_star": (float, None, None),
    "psi_kind": (
        str,
        None,
        (lambda s: s.lower() in ("constant", "affine"), "must be 'constant' or 'affine'"),
    ),
    "psi_a": (float, None, None),
    "psi_b": (float, None, None),
    "output_dir": (str, None, None),
}


@dataclass(frozen=True)
class Config:
    """Validated run configuration; defaults live in ``_KEYS``."""

    params: ProblemParams
    rhs_source: str
    rhs: Expr
    grid_n: int
    tol: float
    max_iter: int
    k: Optional[float]
    growth: Optional[GrowthSpec]
    output_dir: Optional[str]


def _check(key: str, value: Any, label: str) -> Any:
    """Apply ``key``'s range check, if any, naming the value ``label``."""
    check = _KEYS[key][2]
    if check is not None and not check[0](value):
        raise ConfigError(f"{label} {check[1]}, got {value!r}")
    return value


def _number(kind: type, text: str, label: str) -> Any:
    """Read ``text`` as an int or float (``kind``), naming it ``label``.

    Numbers are plain ASCII: int() and float() would also take ``_``
    separators and non-ASCII digits, which are rejected here.
    """
    if "_" not in text and text.isascii():
        try:
            return kind(text)
        except ValueError:
            pass
    expected = "an integer" if kind is int else "a number"
    raise ConfigError(f"{label}: expected {expected}, got {text!r}")


def _convert(path: str, key: str, text: str) -> Any:
    """Convert ``text`` to ``key``'s kind and range-check it."""
    kind = _KEYS[key][0]
    value = text if kind is str else _number(kind, text, f"key {key!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite, got {text!r}")
    return _check(key, value, f"{path}: {key}")


def parse_config(path: str) -> Config:
    """Read and validate a flat key = value configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        raw[key] = value

    for key, (_, default, _) in _KEYS.items():
        if default is ... and key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {
        key: _convert(path, key, raw[key]) if key in raw else default
        for key, (_, default, _) in _KEYS.items()
    }

    psi_kind, a, b, p_star = (values[key] for key in ("psi_kind", "psi_a", "psi_b", "p_star"))
    if psi_kind is None:
        if a is not None or b is not None:
            raise ConfigError(f"{path}: psi_a/psi_b need psi_kind")
    elif a is None:
        raise ConfigError(f"{path}: psi_kind={psi_kind.lower()} needs psi_a")
    elif psi_kind.lower() == "constant" and b is not None:
        raise ConfigError(f"{path}: psi_b applies only to psi_kind=affine")
    if (psi_kind is None) != (p_star is None):
        raise ConfigError(f"{path}: growth condition needs both psi_kind and p_star")

    try:
        params = ProblemParams(values["alpha"], values["beta"], values["xi"])
        growth = None
        if psi_kind is not None:
            # the constant envelope is the affine one without psi_b
            growth = GrowthSpec(p_star, a, 0.0 if b is None else b)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        rhs = parse(values["rhs"])
    except ParseError as exc:
        raise ConfigError(f"{path}: key 'rhs': {exc}") from exc

    return Config(
        params=params,
        rhs_source=values["rhs"],
        rhs=rhs,
        grid_n=values["grid_n"],
        tol=values["tol"],
        max_iter=values["max_iter"],
        k=values["k"],
        growth=growth,
        output_dir=values["output_dir"],
    )


def _fmt(x: float) -> str:
    """Shortest decimal capped at 15 significant digits."""
    return format(float(x), ".15g")


def _trunc6(x: float) -> str:
    """Truncate toward zero at 6 decimals; reproduces reported constants
    that were printed truncated rather than rounded."""
    return f"{math.floor(x * 1e6) / 1e6:.6f}"


def _write_atomic(out_dir: str, name: str, text: str) -> None:
    """Write ``out_dir/name`` via a temp file beside it; no partial files.

    Creates ``out_dir`` when it does not exist yet.  The temp file gets a
    random name and the mode open() would give it, 0o666 less the umask.
    A failure raises OSError("cannot write <out_dir/name>: <reason>").
    """
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        tmp = os.path.join(out_dir, f".{name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _solution_csv(grid_nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> str:
    """One ``t,u,v`` row per node, each value formatted as :func:`_fmt` does."""
    return "t,u,v\n" + csv_rows(np.column_stack((grid_nodes, u, v)))


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_solve(config: Config, out_dir: str) -> int:
    spec = ProblemSpec(config.params, config.rhs)
    pair, report = picard_solve(spec, config.grid_n, tol=config.tol, max_iter=config.max_iter)
    res = residual(spec, pair)

    _write_atomic(
        out_dir, "solution.csv", _solution_csv(pair.grid.nodes, pair.u.values, pair.v.values)
    )
    body = {
        "version": __version__,
        "alpha": config.params.alpha,
        "beta": config.params.beta,
        "xi": config.params.xi,
        "rhs": config.rhs_source,
        "grid_n": config.grid_n,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "converged": report.converged,
        "iterations": report.iterations,
        "probe_restart": report.restarted,
        "final_diff": report.diffs[-1],
        "observed_ratio": report.observed_ratio,
        "diffs": list(report.diffs),
        "accelerated": list(report.accelerated),
    }
    body.update(res.as_dict())
    _write_atomic(out_dir, "report.json", json.dumps(body, indent=2) + "\n")
    print(f"converged in {report.iterations} iterations; wrote {out_dir}/solution.csv")
    return 0


def _certificate_lines(cert: Certificate) -> list[str]:
    """One ``key=value`` line per :meth:`Certificate.as_dict` entry: floats
    to 12 decimals, bools as true/false, a missing radius as none."""

    def text(value: object) -> str:
        if value is None:
            return "none"
        return _bool_text(value) if isinstance(value, bool) else f"{value:.12f}"

    return [f"{key}={text(value)}" for key, value in cert.as_dict().items()]


def cmd_certify(config: Config, out_dir: Optional[str]) -> int:
    refuted = contradiction(config.rhs, config.k, config.growth)
    if refuted is not None:
        raise ConfigError(refuted)
    spec = ProblemSpec(config.params, config.rhs)
    cert = certify(spec, k=config.k, growth=config.growth)
    text = "\n".join(_certificate_lines(cert)) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        _write_atomic(out_dir, "certificate.txt", text)
    return 0


def cmd_green(config: Config, out_dir: str, m_t: int, m_s: int) -> int:
    if m_t < 2 or m_s < 2:
        raise ConfigError(f"lattice needs m_t >= 2 and m_s >= 2, got {m_t}, {m_s}")
    params = config.params
    singular_tail = params.alpha - params.beta < 1.0
    t_vals = np.linspace(0.0, 1.0, m_t)
    s_vals = np.linspace(0.0, 1.0, m_s)
    if singular_tail:
        s_vals = s_vals[s_vals < 1.0]
    # one term table; each point stays on the scalar path, with Python floats
    terms = _green_terms(params)
    table = [(t, s, float(_value(terms, t, s))) for s in s_vals.tolist() for t in t_vals.tolist()]
    header = "# s=1 rows omitted: kernel unbounded there (alpha-beta < 1)\n" if singular_tail else ""
    _write_atomic(out_dir, "green.csv", header + "t,s,G\n" + csv_rows(np.array(table)))
    print(f"wrote {out_dir}/green.csv ({m_t} t-nodes x {m_s} s-nodes)")
    return 0


def cmd_example() -> int:
    """Run the built-in worked example and print its certificate and solve."""
    params = ProblemParams(EXAMPLE_ALPHA, EXAMPLE_BETA, EXAMPLE_XI)
    rhs = parse(EXAMPLE_RHS)
    spec = ProblemSpec(params, rhs)
    k = EXAMPLE_K
    cert = certify(spec, k=k, m=513)
    th = cert.theta

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
    ]
    out += [f"{key}={_fmt(value)}" for key, value in res.as_dict().items()]
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

    def add_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        return p

    solve = add_common(sub.add_parser("solve", help="run the fixed-point solver"))
    # read by _apply_overrides with the config file's number rule
    solve.add_argument("--grid", help="grid size override")
    solve.add_argument("--tol", help="tolerance override")
    add_common(sub.add_parser("certify", help="compute a certificate"))
    green = add_common(sub.add_parser("green", help="tabulate the kernel on a lattice"))
    # read by main with the same number rule
    green.add_argument("--mt", default="11", help="t lattice size")
    green.add_argument("--ms", default="11", help="s lattice size")
    sub.add_parser("example", help="run the built-in worked example")
    return ap


def _apply_overrides(config: Config, args: argparse.Namespace) -> Config:
    updates: dict[str, object] = {}
    for key, flag, text in (("grid_n", "--grid", args.grid), ("tol", "--tol", args.tol)):
        if text is not None:
            updates[key] = _check(key, _number(_KEYS[key][0], text, flag), flag)
    return replace(config, **updates) if updates else config


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.command == "example":
            return cmd_example()
        config = parse_config(args.config)
        out_dir = args.out or config.output_dir
        if args.command == "certify":
            return cmd_certify(config, out_dir)
        if args.command == "solve":
            return cmd_solve(_apply_overrides(config, args), out_dir or ".")
        m_t, m_s = _number(int, args.mt, "--mt"), _number(int, args.ms, "--ms")
        return cmd_green(config, out_dir or ".", m_t, m_s)
    except (ConfigError, DomainError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (FracbvpError, OSError) as exc:
        # parse_config reports its own read errors, so an OSError here is
        # an output write that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
