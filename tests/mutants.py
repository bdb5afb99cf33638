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
"survived", "error" (pytest could not run the tests, as when the mutant
breaks an import) or "equivalent" (a row that names no tests but a reason
why no test can tell it from the original; it is not run).  It exits 1
unless every mutant is killed by its named tests or is equivalent.

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
    reason: str = ""  # why an equivalent mutant, which names no tests, is one


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
    Mutant(
        "src/fracbvp/certify.py",
        "(f[..., 0] - f[..., 1]) / (2 * _DU), (f[..., 2] - f[..., 3]) / (2 * _DV)",
        "(f[..., 0] - f[..., 1]) / _DU, (f[..., 2] - f[..., 3]) / _DV",
        ("tests/test_certify.py::test_certify_estimates_k_when_missing",),
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
        "src/fracbvp/greens.py",
        "gamma(q + 1.0)",
        "gamma(q)",
        ("tests/test_greens.py::test_coarse_bound_value",),
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
        "src/fracbvp/solver.py",
        "return self.g - y @ np.array(self.dg)",
        "return self.g + y @ np.array(self.dg)",
        ("tests/test_solver.py::test_anderson_candidate_is_the_least_squares_extrapolation",),
    ),
    Mutant(
        "src/fracbvp/solver.py",
        "_PROBE_SEED = 1.0",
        "_PROBE_SEED = 0.0",
        ("tests/test_acceptance.py::test_criterion_10_divergence_detection",),
    ),
    # the boundary derivative's weights run forwards
    Mutant(
        "src/fracbvp/solver.py",
        "_power_steps(1.0 - b, grid.n)[::-1] * np.diff(u)",
        "_power_steps(1.0 - b, grid.n) * np.diff(u)",
        ("tests/test_acceptance.py::test_criterion_07_residual_check",),
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
        "src/fracbvp/_csvtext.py",
        "_BLOCK_ROWS = 2048",
        "_BLOCK_ROWS = 4096",
        (),
        "csv_rows' text does not depend on the block size: identical at 1, 7, 1024, "
        "4096 and 10**6 rows of random, subnormal, signed-zero, inf and nan values",
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
    Mutant(
        "src/fracbvp/expr.py",
        '(lambda x, r: x <= 0.0, "ln of a non-positive value")',
        '(lambda x, r: x < 0.0, "ln of a non-positive value")',
        ("tests/test_expr.py::test_evaluation_errors",),
    ),
    Mutant(
        "src/fracbvp/expr.py",
        "lambda a, b: a * a if (b == 2.0).all() else np.power(a, b)",
        "lambda a, b: np.power(a, b)",
        ("tests/test_expr.py::test_squares_are_the_base_times_itself",),
    ),
    # evaluate returns the input array itself for a bare variable
    Mutant(
        "src/fracbvp/expr.py",
        'if e[-1][0] == "var":',
        "if False:",
        ("tests/test_expr.py::test_evaluate_result_does_not_alias_inputs",),
    ),
    # the operator skips its column-0 replacement
    Mutant(
        "src/fracbvp/fracops.py",
        "out[:, 0] = head * x[0]",
        "pass",
        ("tests/test_acceptance.py::test_criterion_04_linear_oracle",),
    ),
    # an FFT shorter than 2n - 1 wraps the convolution around
    Mutant(
        "src/fracbvp/fracops.py",
        "return 1 << max(2 * n - 3, 0).bit_length()",
        "return 2 * n - 4",
        ("tests/test_fracops.py::test_kernel_operator_matches_convolution",),
    ),
    # a one-column factor read through a dot product instead of by index
    Mutant(
        "src/fracbvp/fracops.py",
        "x[right] if isinstance(right, int) else right @ x",
        "np.eye(1, n, right)[0] @ x if isinstance(right, int) else right @ x",
        ("tests/test_cli.py::test_negative_zero_forcing_at_t0_leaves_v0_positive",),
    ),
    Mutant(
        "src/fracbvp/fracops.py",
        "/ gamma(2.0 - gamma_ord))",
        "/ gamma(1.0 - gamma_ord))",
        ("tests/test_fracops.py::test_caputo_grid_linear_input_is_exact",),
    ),
    Mutant(
        "src/fracbvp/cli.py",
        "if check is not None and not check[0](value):",
        "if False:",
        ("tests/test_cli.py::test_parse_config_errors",),
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
            if not m.tests:
                table.append({**m._asdict(), "status": "equivalent"})
                continue
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
    return 0 if all(row["status"] in ("killed", "equivalent") for row in table) else 1


if __name__ == "__main__":
    sys.exit(main())
