"""The work ledger script counts the same work on every run, quickly, and
the work it counts is the committed BENCH_work.json."""

import json
import time
from pathlib import Path

import numpy as np

from fracbvp import cli, greens, solver

import work_ledger

ROOT = Path(__file__).resolve().parents[1]


def test_ledger_is_deterministic_and_cheap():
    originals = (solver._step, solver._Anderson.candidate, cli._write_atomic, greens._convex_residual, np.fft.rfft)
    texts = []
    for _ in range(2):
        start = time.perf_counter()
        texts.append(json.dumps(work_ledger.ledger(), indent=2))
        assert time.perf_counter() - start < 3.0
    assert texts[0] == texts[1]
    # every wrapper is removed again
    assert originals == (
        solver._step,
        solver._Anderson.candidate,
        cli._write_atomic,
        greens._convex_residual,
        np.fft.rfft,
    )
    total = json.loads(texts[0])["total"]
    # the example and 8 ops of each of the three workloads, all succeeding
    assert total["exit_code[0]"] == 25 and total["solves"] == 17
    assert total["sweeps"] > 0 and total["newton_passes"] > 0 and total["evaluate_calls"] > 0
    assert total["accepted_candidates"] + total["rejected_candidates"] == total["candidates"]
    # the same work as the committed baseline; the CSV bytes move with
    # numpy's SIMD dispatch and have tests of their own
    committed = json.loads((ROOT / "BENCH_work.json").read_text(encoding="utf-8"))
    fresh = json.loads(texts[0])
    assert fresh["corpus"] == committed["corpus"]
    groups = [key for key, value in committed.items() if isinstance(value, dict)]
    assert groups == [key for key, value in fresh.items() if isinstance(value, dict)]
    for group in groups:
        counts = {key: n for key, n in fresh[group].items() if key != "bytes_written"}
        assert counts == {key: n for key, n in committed[group].items() if key != "bytes_written"}, group


def test_ledger_tells_rejected_candidates_from_kept_ones(tmp_path, monkeypatch):
    # a constant candidate is rejected every time; each rejection is an
    # accelerated sweep followed by a plain one in report.json
    monkeypatch.setattr(solver._Anderson, "candidate", lambda self: np.full_like(self.g, 3.0))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 0.5*u + cos(t)\ngrid_n = 129\n")
    book = work_ledger._Ledger()
    with book.wrapped():
        book.run("solve", ["solve", "--config", str(cfg), "--out", str(tmp_path)])
    counts = work_ledger._summary(book.counts["solve"])
    flags = json.loads((tmp_path / "report.json").read_text())["accelerated"]
    rejected = sum(a and not b for a, b in zip(flags, flags[1:]))
    assert counts["rejected_candidates"] == counts["candidates"] == rejected > 0
    assert counts["sweeps"] == len(flags) and counts["solves"] == 1
