"""Hand-written mutants of the library, each with the tests that kill it.

A mutant replaces one text, which occurs exactly once in its file, by a
slightly wrong one: a loosened tolerance, a boundary moved by one case, a
dropped check.  Run from the repository root as

    python3 tests/mutants.py

It copies the repository to a temporary directory, checks that the named
tests pass there, then applies each mutant in turn and runs its named
tests.  A survivor of its named tests also gets the whole suite.  It prints
a JSON kill table, one row per mutant with its status: "killed" (a named
test fails), "killed by the suite" (the named tests are the wrong ones),
"survived", or "error" (pytest could not run the tests, as when the mutant
breaks an import); it exits 1 unless every mutant is killed by its named
tests.

It runs pytest at least once per mutant, so it is not part of the test
suite; tests/test_mutants.py only checks that the list still applies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that fail under the mutant


MUTANTS = (
    Mutant(
        "src/fracbvp/certify.py",
        "unique=d < 1.0,",
        "unique=d <= 1.0,",
        ("tests/test_certify.py::test_a_contraction_constant_of_exactly_one_is_not_unique",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "if slope >= 1.0:",
        "if slope > 1.0:",
        ("tests/test_certify.py::test_a_growth_slope_of_exactly_one_has_no_radius",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "if quotient[i, j, l] > k + 1e-9 * (k + size.max()):",
        "if quotient[i, j, l] > k + 1e-3 * (k + size.max()):",
        ("tests/test_certify.py::test_contradiction_refuses_a_k_a_millionth_below_the_quotients",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "excess = size - bound - 1e-9 * (1.0 + size)",
        "excess = size - bound - 1e-4 * (1.0 + size)",
        ("tests/test_certify.py::test_contradiction_refuses_a_growth_bound_a_millionth_too_low",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "self.a > 0.0",
        "self.a >= 0.0",
        ("tests/test_certify.py::test_growth_spec_validation",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "if not (math.isfinite(self.b) and self.b >= 0.0):",
        "if False:",
        ("tests/test_certify.py::test_growth_spec_validation",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "self.p_star >= 0.0",
        "self.p_star > 0.0",
        ("tests/test_certify.py::test_a_zero_p_star_is_a_growth_bound_with_radius_zero",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "kernel_bound = max(gs, th)",
        "kernel_bound = th",
        ("tests/test_bench_checks.py::test_benchmark_ops_pass_the_benchmark_checks",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "x[::32]",
        "x[::64]",
        ("tests/test_certify.py::test_every_sampled_check_reads_one_state_lattice",),
    ),
    Mutant(
        "src/fracbvp/certify.py",
        "_DU, _DV = 1e-6 * (1.0 + np.abs(_NODE_U)), 1e-6 * (1.0 + np.abs(_NODE_V))",
        "_DU, _DV = 1e-3 * (1.0 + np.abs(_NODE_U)), 1e-3 * (1.0 + np.abs(_NODE_V))",
        ("tests/test_certify.py::test_every_sampled_check_reads_one_state_lattice",),
    ),
    # the scan drops t = 1
    Mutant(
        "src/fracbvp/greens.py",
        "np.linspace(0.0, 1.0, m))))",
        "np.linspace(0.0, 1.0, m)[:-1])))",
        ("tests/test_greens.py::test_gstar_matches_oracle",),
    ),
    Mutant(
        "src/fracbvp/greens.py",
        "_NEWTON_MAX_PASSES, _NEWTON_ROUNDOFF = 64, 4e-16",
        "_NEWTON_MAX_PASSES, _NEWTON_ROUNDOFF = 64, 4e-10",
        ("tests/test_greens.py::test_newton_root_mass_matches_bisection",),
    ),
    Mutant(
        "src/fracbvp/greens.py",
        "_NEWTON_MAX_PASSES, _NEWTON_ROUNDOFF = 64, 4e-16",
        "_NEWTON_MAX_PASSES, _NEWTON_ROUNDOFF = 3, 4e-16",
        ("tests/test_greens.py::test_newton_root_mass_matches_bisection",),
    ),
    Mutant(
        "src/fracbvp/greens.py",
        "grow = (step > z) & (f > _NEWTON_ROUNDOFF * positive)",
        "grow = (step > z) & (f > 0.0)",
        ("tests/test_greens.py::test_newton_loop_pass_count",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "_RISE = 0.01",
        "_RISE = 0.2",
        ("tests/test_solver.py::test_witness",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "_JUMP = 0.01",
        "_JUMP = 0.0",
        ("tests/test_solver.py::test_history_restarts_after_a_jump",),
    ),
    # test_witness fails for the witness count itself; the CSV pin of v(1)
    # fails too, but only by accident
    Mutant(
        "src/fracbvp/solver.py",
        "_WITNESS = 3",
        "_WITNESS = 1",
        ("tests/test_solver.py::test_witness",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "accept = not candidate or diff <= witness * last",
        "accept = True",
        ("tests/test_solver.py::test_rejected_candidates_leave_the_plain_trajectory",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "if report.iterations == 1:",
        "if False:",
        ("tests/test_acceptance.py::test_criterion_10_divergence_detection",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "DIVERGENCE_CAP = 1e8",
        "DIVERGENCE_CAP = 1e300",
        ("tests/test_solver.py::test_candidates_that_fail_are_rejected",),
    ),
    Mutant(
        "src/fracbvp/_csvtext.py",
        "e = ((ah * sh - p) + ah * sl + al * sh) + al * sl",
        "e = 0.0 * p",
        ("tests/test_cli.py::test_solution_csv_matches_per_value_writer_on_solver_output",),
    ),
    Mutant(
        "src/fracbvp/_csvtext.py",
        "0.5 + 0.25 * np.sign((p - whole - 0.5) + e)",
        "0.5 + 0.25 * np.sign((p - whole - 0.5) + e + 0.5)",
        ("tests/test_cli.py::test_solution_csv_matches_per_value_writer",),
    ),
    Mutant(
        "src/fracbvp/expr.py",
        "if arity > depth:",
        "if False:",
        ("tests/test_expr.py::test_expr_accepts_only_a_program_of_finite_literals",),
    ),
    Mutant(
        "src/fracbvp/expr.py",
        'if key == "num" and not math.isfinite(payload):',
        "if False:",
        ("tests/test_expr.py::test_expr_accepts_only_a_program_of_finite_literals",),
    ),
    Mutant(
        "src/fracbvp/expr.py",
        '(lambda a, b, r: b == 0.0, "division by zero")',
        '(lambda a, b, r: b != b, "division by zero")',
        ("tests/test_expr.py::test_evaluation_errors",),
    ),
)


def _pytest(copy: Path, args: list[str]) -> str:
    """pytest's outcome on ``args`` in the copy: "passed", "failed" (a test
    ran and failed) or "error".  No bytecode is written, so a mutant of the
    same length as its original is never read from a stale cache."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    code = subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode
    return {0: "passed", 1: "failed"}.get(code, "error")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")
        shutil.copytree(ROOT, copy, ignore=skip)
        named = sorted({test for m in MUTANTS for test in m.tests})
        if _pytest(copy, named) != "passed":
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 2
        table = []
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                raise SystemExit(f"{m.file}: {m.old!r} does not occur exactly once")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                status = {"failed": "killed", "error": "error"}.get(_pytest(copy, list(m.tests)))
                if status is None:
                    suite = _pytest(copy, ["tests"])
                    status = {"failed": "killed by the suite", "error": "error"}.get(suite, "survived")
            finally:
                path.write_text(text, encoding="utf-8")
            table.append({**m._asdict(), "status": status})
    print(json.dumps(table, indent=2))
    return 0 if all(row["status"] == "killed" for row in table) else 1


if __name__ == "__main__":
    sys.exit(main())
