"""One workload process: set up, run ops through the fracbvp CLI, check them.

Started by run.py, one process per workload run, so that peak RSS is this
process's own.  It writes JSON lines to stdout: ``{"ready_at": t}`` when
set-up is done (t on CLOCK_MONOTONIC, which run.py shares), then the result
unless ``--setup-only`` is given.  Set-up is the interpreter start,
``import fracbvp`` and writing the configs, which every CLI user pays; the
configs are generated by run.py beforehand and handed over in one JSON file
(``--configs``), so the generator's time is in no metric.

Each op calls ``fracbvp.cli.main`` in-process on its own config, with
stdout and stderr captured.  Output checks run after all timing and are in
no metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _emit(stream, obj: dict) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _paths(workdir: str, index: int) -> tuple[str, str]:
    return os.path.join(workdir, f"op{index:04d}.cfg"), os.path.join(workdir, f"out{index:04d}")


def _run_op(cli, command: str, index: int, workdir: str, call=None) -> dict:
    """Run one op; ``call`` wraps the CLI call (the tracer's root span)."""
    config, out_dir = _paths(workdir, index)
    argv = [command, "--config", config, "--out", out_dir]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = call(lambda: cli.main(argv)) if call else cli.main(argv)
        except Exception:  # an op that crashes counts as failed, the run goes on
            rc = -1
            traceback.print_exc(file=sink)
        seconds = time.perf_counter() - start
    return {"index": index, "rc": rc, "seconds": seconds, "output": sink.getvalue()}


def _check(checks, make, seed: int, records: list[dict], workdir: str) -> int:
    """Check every op's output against its regenerated input."""
    failed = 0
    for rec in records:
        error = None
        if rec["rc"] != 0:
            error = f"exit code {rec['rc']}: {rec['output'].strip()[-500:]}"
        else:
            try:
                checks.check_op(make(seed, rec["index"]), _paths(workdir, rec["index"])[1])
            except checks.CheckError as exc:
                error = str(exc)
        rec["error"] = error
        del rec["output"]
        failed += error is not None
    return failed


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--configs", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    proto = sys.stdout

    from fracbvp import cli

    with open(args.configs, encoding="utf-8") as fh:
        plan = json.load(fh)
    for index, text in enumerate(plan["configs"]):
        with open(_paths(args.workdir, index)[0], "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(proto, {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC)})
    if args.setup_only:
        return 0

    import checks
    import gen

    workload = gen.WORKLOADS[args.workload]
    command = plan["command"]
    result: dict = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        # Untraced and traced ops alternate so both see the same process
        # state, and the two ops of a pair share their stratum (gen.pair).
        records = [_run_op(cli, command, 0, args.workdir)]
        traced, untraced = [], []
        for plain, index in zip(*gen.trace_split(workload.trace_ops)):
            untraced.append(_run_op(cli, command, plain, args.workdir))
            tracer.install()
            try:
                traced.append(
                    _run_op(cli, command, index, args.workdir,
                            lambda fn, op=index: tracer.run_op(op, fn))
                )
            finally:
                tracer.uninstall()
        records += untraced + traced
        traced_s = [r["seconds"] for r in traced]
        result["per_layer"] = tracer.metrics(traced_s, [r["seconds"] for r in untraced])
        result["traced_op_mean_s"] = sum(traced_s) / len(traced_s)
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_ops": [r["index"] for r in traced], **tracer.dump()}, fh)
    else:
        # Op 0 warms the process up and is checked but not timed, as in
        # the traced run.
        records = [_run_op(cli, command, 0, args.workdir)]
        start = time.perf_counter()
        for index in range(1, len(plan["configs"])):
            if time.perf_counter() - start >= args.seconds:
                break
            records.append(_run_op(cli, command, index, args.workdir))
        result["elapsed_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["failed"] = _check(checks, workload.make, args.seed, records, args.workdir)
    result["ops"] = records
    import numpy as np

    result["numpy"] = np.__version__
    result["blas"] = _blas()
    _emit(proto, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
