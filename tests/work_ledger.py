"""A deterministic work ledger: what the pipeline does, counted, not timed.

Runs a fixed corpus in-process through ``fracbvp.cli.main``: the built-in
example and ops 0-7 of each workload of ``perfbench/gen.py`` at seed 1,
whose configs are written to a temporary directory along with every output.
Counts come from wrappers set on attributes of the modules imported here,
and removed afterwards; no library option is involved.  Per corpus group
and in total, it counts:

- sweeps (``solver._step`` calls), Anderson candidates, the accepted and
  rejected ones, solves and probe restarts;
- ``rfft``/``irfft`` calls by transform length;
- ``evaluate`` calls, from the solver and from the sampled lattice checks,
  and the tape steps they run (the length of each expression ``expr._run``
  runs, one per post-order step);
- Newton passes of the G* scan (``greens._convex_residual`` calls);
- atomic writes, the bytes they write, and the bytes of each operator that
  ``solver.kernel_operators`` builds;
- the ops' exit codes.

Run from the repository root as ``PYTHONPATH=src python tests/work_ledger.py``;
it prints the counts as JSON, with numpy's version and a line naming the
corpus.  Two runs print the same text.  ``BENCH_work.json`` at the
repository root is this output, committed; regenerate it with
``PYTHONPATH=src python tests/work_ledger.py > BENCH_work.json``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from fracbvp import cli, expr, greens, solver

# the module, not the function that ``fracbvp.certify`` names
certify = importlib.import_module("fracbvp.certify")

ROOT = Path(__file__).resolve().parents[1]
SEED, OPS = 1, 8
CORPUS = f"the built-in example and ops 0-{OPS - 1} of each perfbench/gen.py workload at seed {SEED}"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _corpus(workdir: Path):
    """(group, argv) of every op, writing each config into ``workdir``."""
    yield "example", ["example"]
    for name, workload in _load_gen().WORKLOADS.items():
        for index in range(OPS):
            op = workload.make(SEED, index)
            cfg = workdir / f"{name}{index}.cfg"
            cfg.write_text(op.config_text(), encoding="utf-8")
            yield name, [op.command, "--config", str(cfg), "--out", str(workdir / f"{name}{index}")]


def _operator_bytes(op) -> int:
    arrays = [op.column] + [np.asarray(x) for _, left, right in op.factors for x in (left, right)]
    return sum(a.nbytes for a in arrays)


class _Ledger:
    """The counts of the current group, fed by the wrappers of :meth:`wrapped`.

    A rejected candidate restarts the Anderson history and is followed by a
    plain sweep; a kept candidate that restarts it after a jump is followed
    by ``accept``.  So a restart counts as a rejection when the next event
    is a sweep, or the end of the op.
    """

    def __init__(self) -> None:
        self.counts: dict[str, Counter] = {}
        self.group = ""
        self.restarted = False

    def add(self, key: str, amount: int = 1) -> None:
        self.counts.setdefault(self.group, Counter())[key] += amount

    def _sweep(self, *args) -> None:
        self.add("sweeps")
        self._settle()

    def _settle(self) -> None:
        if self.restarted:
            self.add("rejected_candidates")
        self.restarted = False

    def _restart(self, *args) -> None:
        self.restarted = True

    def _accept(self, *args) -> None:
        self.restarted = False

    def _transform(self, name):
        def note(x, n=None, *args, **kwargs):
            self.add(f"{name}[{kwargs.get('n', n)}]")

        return note

    def _write(self, out_dir, name, text) -> None:
        self.add("atomic_writes")
        self.add("bytes_written", len(text.encode("utf-8")))

    @contextlib.contextmanager
    def wrapped(self):
        """Wrap the counted functions for the duration of the block."""
        targets = [
            (solver, "_step", self._sweep, False),
            (solver._Anderson, "candidate", lambda *a: self.add("candidates"), False),
            (solver._Anderson, "restart", self._restart, False),
            (solver._Anderson, "accept", self._accept, False),
            (solver, "_iterate", lambda *a: self.add("runs"), False),
            (cli, "picard_solve", lambda *a, **k: self.add("solves"), False),
            (np.fft, "rfft", self._transform("rfft"), False),
            (np.fft, "irfft", self._transform("irfft"), False),
            (solver, "evaluate", lambda *a: self.add("evaluate_calls"), False),
            (certify, "evaluate", lambda *a: self.add("evaluate_calls"), False),
            (expr, "_run", lambda e, *a: self.add("tape_steps", len(e)), False),
            (greens, "_convex_residual", lambda *a: self.add("newton_passes"), False),
            (cli, "_write_atomic", self._write, False),
            (solver, "kernel_operators", lambda op: self.add("operator_bytes", _operator_bytes(op)), True),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _, _ in targets]
        for (owner, name, note, after), (_, _, real) in zip(targets, saved):
            setattr(owner, name, _wrap(real, note, after))
        try:
            yield
        finally:
            for owner, name, real in saved:
                setattr(owner, name, real)

    def run(self, group: str, argv: list[str]) -> None:
        self.group = group
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        self._settle()
        self.add(f"exit_code[{code}]")


def _wrap(real, note, after: bool):
    def wrapper(*args, **kwargs):
        if not after:
            note(*args, **kwargs)
        out = real(*args, **kwargs)
        if after:
            note(out)
        return out

    return wrapper


# counts every group reports, zero or not
_KEYS = ("sweeps", "candidates", "rejected_candidates", "solves", "evaluate_calls", "tape_steps",
         "newton_passes", "atomic_writes", "bytes_written", "operator_bytes")


def _summary(counts: Counter) -> dict:
    out = {key: counts[key] for key in _KEYS} | counts
    out["accepted_candidates"] = out["candidates"] - out["rejected_candidates"]
    out["probe_restarts"] = out.pop("runs", 0) - out["solves"]
    return dict(sorted(out.items()))


def ledger() -> dict:
    """The counts of each corpus group and their total, with numpy's version
    and the corpus they count."""
    book = _Ledger()
    with tempfile.TemporaryDirectory() as tmp, book.wrapped():
        for group, argv in _corpus(Path(tmp)):
            book.run(group, argv)
    out = {group: _summary(counts) for group, counts in book.counts.items()}
    out["total"] = _summary(sum(book.counts.values(), Counter()))
    return {"corpus": CORPUS, "numpy": np.__version__} | out


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=2))
