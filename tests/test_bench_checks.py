"""The benchmark's own output checks pass on a sample of its ops.

``perfbench/checks.py`` judges each benchmark op's output from closed forms
and oracles of its own; a benchmark run fails when one op does.  Here 37
ops of seed 1 run in-process through ``fracbvp.cli.main`` and each is
checked the same way:

- one op of each ``certify_sweep`` pair 0-29 (ops 0, 1, 3, ..., 57), which
  covers every edge class, k mode and rhs template;
- ``solve_iterative`` ops 0-5;
- ``solve_large`` op 1.

``gen.py`` and ``checks.py`` are read as they are; ``checks`` imports
``gen`` by that name, so ``perfbench/`` is on ``sys.path`` for the import.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

from fracbvp import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
OPS = (
    [("certify_sweep", 0)]
    + [("certify_sweep", index) for index in range(1, 58, 2)]
    + [("solve_iterative", index) for index in range(6)]
    + [("solve_large", 1)]
)


def _bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(BENCH))


def test_benchmark_ops_pass_the_benchmark_checks(tmp_path):
    gen, checks = _bench_modules()
    assert len(OPS) == 37
    # the one op of pair j >= 1 is its first, 2j - 1
    assert [gen.pair(index) for name, index in OPS if name == "certify_sweep"] == list(range(30))
    failures = []
    for name, index in OPS:
        op = gen.WORKLOADS[name].make(SEED, index)
        cfg, out = tmp_path / f"{name}{index}.cfg", tmp_path / f"{name}{index}"
        cfg.write_text(op.config_text(), encoding="utf-8")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([op.command, "--config", str(cfg), "--out", str(out)])
        if code != 0:
            failures.append(f"{name} op {index}: exit code {code}: {sink.getvalue().strip()}")
            continue
        try:
            checks.check_op(op, str(out))
        except checks.CheckError as exc:
            failures.append(f"{name} op {index}: {exc}")
    assert not failures, "\n".join(failures)
