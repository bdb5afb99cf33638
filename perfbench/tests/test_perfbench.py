"""Tests for the benchmark itself: inputs, output checks, names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fracbvp import cli, evaluate, parse  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- generator ----


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = gen.WORKLOADS[name].make
    first = [make(7, i).config for i in range(12)]
    assert first == [make(7, i).config for i in range(12)]
    assert first != [make(8, i).config for i in range(12)]
    assert len({json.dumps(c, sort_keys=True) for c in first}) == len(first)


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_numpy_twin_matches_the_parsed_rhs(name):
    rng = np.random.default_rng(0)
    for i in range(6):
        op = gen.WORKLOADS[name].make(3, i)
        tree = parse(op.config["rhs"])
        for t, u, v in zip(rng.uniform(0, 1, 8), rng.uniform(-5, 5, 8), rng.uniform(-5, 5, 8)):
            assert op.rhs(t, u, v) == pytest.approx(evaluate(tree, t, u, v), rel=1e-13, abs=1e-13)


def test_certify_inputs_cover_the_edges():
    ops = [gen.WORKLOADS["certify_sweep"].make(0, i) for i in range(20)]
    assert any(op.alpha == 2.0 for op in ops)
    assert min(op.alpha - op.beta for op in ops) < 0.02
    assert min(op.alpha for op in ops) < 1.02
    assert max(op.xi for op in ops) > 0.85
    assert sum("k" in op.config for op in ops) == 10


def _edge_class(op: gen.OpInput) -> str:
    (name,) = [
        name for name, box in gen._CERTIFY_CLASSES
        if all(lo <= getattr(op, key) <= hi for key, (lo, hi) in box.items())
    ]
    return name


def _stratum(op: gen.OpInput) -> tuple:
    """What an op's cost depends on by design: its rhs template (the source
    without its numbers), whether k is supplied, and its edge class."""
    template = re.sub(r"[0-9.e+-]+(?=[*/)]|$)", "#", op.config["rhs"])
    return template, "k" in op.config, _edge_class(op) if op.command == "certify" else None


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_traced_ops_pair_with_untraced_ops_of_the_same_stratum(name):
    workload = gen.WORKLOADS[name]
    untraced, traced = gen.trace_split(workload.trace_ops)
    assert sorted(untraced + traced) == list(range(1, 2 * workload.trace_ops + 1))
    for plain, index in zip(untraced, traced):
        assert _stratum(workload.make(4, plain)) == _stratum(workload.make(4, index))
        assert workload.make(4, plain).config != workload.make(4, index).config
    if name == "certify_sweep":
        for indices in (untraced, traced):
            assert {"k" in workload.make(4, i).config for i in indices} == {True, False}


# ---------------------------------------------------------- output checks ----


def _run_cli(op: gen.OpInput, tmp_path) -> str:
    config, out_dir = tmp_path / "op.cfg", tmp_path / "out"
    config.write_text(op.config_text())
    assert cli.main([op.command, "--config", str(config), "--out", str(out_dir)]) == 0
    return str(out_dir)


def test_solve_check_accepts_and_rejects(tmp_path):
    op = gen.WORKLOADS["solve_iterative"].make(0, 0)
    report, table = checks.read_solution(_run_cli(op, tmp_path))
    checks.verify_solve(op, report, table)

    broken = table.copy()
    broken[0, 1] += 1e-9  # u(0) = xi u(1) no longer holds
    with pytest.raises(checks.CheckError, match="xi"):
        checks.verify_solve(op, report, broken)

    shifted = table.copy()
    shifted[1:-1, 2] += 1e-7  # v off the fixed point
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.verify_solve(op, report, shifted)

    with pytest.raises(checks.CheckError, match="converged"):
        checks.verify_solve(op, {**report, "converged": False}, table)


def test_solve_check_compares_fine_grids_on_oracle_nodes(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_N", 513)
    base = gen.WORKLOADS["solve_large"].make(0, 1)
    op = gen.OpInput(base.index, base.command, {**base.config, "grid_n": "1025"},
                     base.alpha, base.beta, base.xi, base.rhs)
    report, table = checks.read_solution(_run_cli(op, tmp_path))
    checks.verify_solve(op, report, table)
    table[2::4, 1] += 1e-6  # only the oracle's nodes are compared
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.verify_solve(op, report, table)


@pytest.mark.parametrize("index", [0, 1])  # k estimated, k supplied with growth
def test_certify_check_accepts_and_rejects(tmp_path, index):
    op = gen.WORKLOADS["certify_sweep"].make(0, index)
    cert = checks.read_certificate(_run_cli(op, tmp_path))
    checks.verify_certificate(op, cert)

    gs, bound = float(cert["gstar_value"]), float(cert["gstar_paper_bound"])
    for bad in (0.5 * gs, 1.01 * bound):
        with pytest.raises(checks.CheckError, match="gstar_value"):
            checks.verify_certificate(op, {**cert, "gstar_value": f"{bad:.12f}"})
    flipped = "false" if cert["unique"] == "true" else "true"
    with pytest.raises(checks.CheckError, match="unique"):
        checks.verify_certificate(op, {**cert, "unique": flipped})
    with pytest.raises(checks.CheckError, match="d ="):
        checks.verify_certificate(op, {**cert, "d": f"{1.1 * float(cert['d']):.12f}"})


def test_gstar_lower_bound_is_below_the_scan_on_every_edge_class():
    from fracbvp import ProblemParams, gstar

    ops = [gen.WORKLOADS["certify_sweep"].make(5, i) for i in range(0, 20, 4)]
    assert {_edge_class(op) for op in ops} == {name for name, _ in gen._CERTIFY_CLASSES}
    for op in ops:
        scan = gstar(ProblemParams(op.alpha, op.beta, op.xi), n=2049, m=257)
        lower = checks.gstar_lower(op.alpha, op.beta, op.xi)
        assert 0.9 * scan < lower <= scan * (1.0 + 1e-9)


# ---------------------------------------------------------------- tracing ----


def test_tracer_restores_functions_and_reports_unrouted_hooks(monkeypatch):
    import fracbvp.solver as solver

    original = solver.apply_T
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (tracing.Hook("fracbvp.solver", "gone", "solver.gone"),))
    tracer = tracing.Tracer()
    tracer.install()
    assert solver.apply_T is not original
    tracer.uninstall()
    assert solver.apply_T is original
    assert tracer.missing == {"fracbvp.solver.gone"}
    assert tracer.calls["solver.gone"] == 0


# ------------------------------------------------------------------ names ----


def test_names_match_benchmark_json():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in gen.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = tracing.Tracer().metrics([1.0], [1.0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in per_layer.items()
    }


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "solve_iterative",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    if trace == "0":  # op 0 warms the process up and is checked, not timed
        assert f"(n={last['attempted'] - 1} timed ops)" in out.stdout
    spec =_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
