"""fracbvp benchmark: seeded workloads driven through the CLI, with checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of gen.WORKLOADS, or ``all`` to run every workload
untraced and then traced.  Run from the repository root; the library is
imported from ``src/``.

With ``--trace 0`` each run reports its end-to-end metrics: ``setup_s``
(median over several fresh workload processes of the time from spawning
one to its first op being ready), ``ops_per_s`` and ``op_p50_s`` over a
closed loop of ops for S seconds after one untimed warm-up op, and ``peak_rss_mb`` of the workload
process.  With ``--trace 1`` a fixed number of traced ops give the
per-layer metrics of tracing.PER_LAYER, and spans go to
``perfbench/.work/trace-NAME-seedN.json``.  Every op's output is checked
after timing.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

from gen import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
# Fresh processes whose set-up is timed besides the one that runs the ops;
# half start before it and half after, so the median spans the whole run.
SETUP_SAMPLES = 7
# The op a workload process runs first, untimed, to warm itself up.
WARMUP_OP = 0
# Each workload run must finish within 180 s.
DEADLINE_S = 170.0
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_revision() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown"
    return head


def _environment(seed: int) -> dict:
    return {
        "git_revision": _git_revision(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "FRACBVP_THREADS": "unset (library default 1)",
    }


def _spawn(args: list[str], configs: str, deadline: float) -> tuple[float, dict]:
    """Run a worker on the configs file; return its set-up time and its last
    JSON line."""
    env = dict(os.environ)
    env.pop("FRACBVP_THREADS", None)  # measure the library default
    workdir = tempfile.mkdtemp(dir=WORK)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir,
           "--configs", configs, *args]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    ready = json.loads(lines[0])["ready_at"]
    return ready - spawned, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    workload = WORKLOADS[name]
    count = 2 * workload.trace_ops + 1 if trace else workload.max_ops
    inputs = [workload.make(seed, i) for i in range(count)]
    configs = os.path.join(WORK, f"configs-{name}-seed{seed}.json")
    with open(configs, "w", encoding="utf-8") as fh:
        json.dump({"command": inputs[0].command, "configs": [op.config_text() for op in inputs]}, fh)

    def setup_samples(count: int) -> list[float]:
        return [_spawn([*base, "--setup-only"], configs, deadline)[0] for _ in range(0 if trace else count)]

    try:
        setups = setup_samples(SETUP_SAMPLES // 2)
        trace_file = os.path.join(WORK, f"trace-{name}-seed{seed}.json")
        setup, result = _spawn([*base, "--trace", str(int(trace)), "--trace-file", trace_file],
                               configs, deadline)
        setups += [setup, *setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    finally:
        os.remove(configs)
    ops = result["ops"]
    timed = [op for op in ops if op["index"] != WARMUP_OP]
    if trace:
        metrics = result["per_layer"]
    else:
        completed = sum(op["error"] is None for op in timed)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": completed / result["elapsed_s"],
            "op_p50_s": statistics.median(op["seconds"] for op in timed),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "workload": name,
        "timed_ops": len(timed),
        "correct": result["failed"] == 0,
        "attempted": len(ops),
        "failed": result["failed"],
        "metrics": metrics,
        "errors": [f"op {op['index']}: {op['error']}" for op in ops if op["error"]],
        "numpy": result["numpy"],
        "blas": result["blas"],
        "traced_op_mean_s": result.get("traced_op_mean_s"),
    }


def _report(res: dict) -> None:
    """Human-readable lines for one workload run."""
    name, m = res["workload"], res["metrics"]
    print(f"{name}: failed_frac={res['failed'] / res['attempted']:.4g} "
          f"({res['failed']}/{res['attempted']} ops)")
    for key, metric in m.items():
        extra = ""
        if key == "op_p50_s":
            extra = f"  (n={res['timed_ops']} timed ops)"
        elif res["traced_op_mean_s"] and metric["unit"] == "s" and not key.startswith("trace."):
            extra = f"  ({100.0 * metric['value'] / res['traced_op_mean_s']:.1f}% of traced op)"
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}{extra}")
    for err in res["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through the finally blocks, which stop the workload process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "fracbvp", "cli.py")):
        print(f"no fracbvp source under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    if args.workload == "all":
        plan = [(w, t) for t in (False, True) for w in WORKLOADS]
    else:
        plan = [(args.workload, bool(args.trace))]
    try:
        results = [run_workload(w, args.seed, args.seconds, t) for w, t in plan]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    env = _environment(args.seed) | {
        "numpy": results[0]["numpy"],
        "blas": results[0]["blas"],
        "ranges": {w: WORKLOADS[w].ranges for w in dict(plan)},
    }
    print("env " + json.dumps(env))
    for res in results:
        _report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
