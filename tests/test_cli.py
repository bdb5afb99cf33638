"""Config parsing, subcommand workflows, exit codes, output files."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fracbvp import AffinePsi, ConfigError, GrowthSpec, cli
from fracbvp.cli import main, parse_config

from conftest import oracle_green_csv, oracle_solution_csv

EXAMPLE_LINES = """\
# worked example configuration
alpha = 1.5
beta = 0.5
xi = 0.5
rhs = sin(t)^2/(11*(exp(2*t)+3*exp(t)+1))*(3+t+5*u+v)
k = 0.09090909090909091
grid_n = 513
tol = 1e-10
"""


def write_config(tmp_path, text=EXAMPLE_LINES, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_parse_config_example(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.params.alpha == 1.5 and cfg.params.beta == 0.5 and cfg.params.xi == 0.5
    assert cfg.grid_n == 513
    assert cfg.tol == 1e-10
    assert cfg.max_iter == 200  # default
    assert cfg.k == pytest.approx(1.0 / 11.0)
    assert cfg.growth is None
    assert cfg.output_dir is None


def test_parse_config_defaults(tmp_path):
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.grid_n == 513
    assert cfg.tol == 1e-8
    assert cfg.max_iter == 200
    assert cfg.k is None


def test_parse_config_comments_and_spacing(tmp_path):
    text = "\n# leading comment\nalpha=1.5\n  beta =  0.5  # trailing comment\n\nxi=0.5\nrhs = t + 1\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.params.beta == 0.5


def test_parse_config_growth_block(tmp_path):
    text = EXAMPLE_LINES + "psi_kind = affine\npsi_a = 1.0\npsi_b = 0.25\np_star = 2.0\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.growth == GrowthSpec(2.0, AffinePsi(1.0, 0.25))
    text = EXAMPLE_LINES + "psi_kind = constant\npsi_a = 1.5\np_star = 2.0\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.growth == GrowthSpec(2.0, AffinePsi(1.5))


def test_parse_config_errors(tmp_path):
    # one fault per file, each with its message as printed after the path
    base = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\n"
    bad = (
        ("alpha = 1.5\nbeta = 0.5\nxi = 0.5\n", "missing required key 'rhs'"),
        (base + "what = 3\n", ":5: unknown key 'what'"),
        ("alpha = 1.5\nalpha = 1.6\nbeta = 0.5\nxi = 0.5\nrhs = 1\n", ":2: duplicate key 'alpha'"),
        ("alpha = oops\nbeta = 0.5\nxi = 0.5\nrhs = 1\n", "key 'alpha': expected a number, got 'oops'"),
        (base + "grid_n = 32\n", "grid_n must be >= 129, got 32"),
        (base + "grid_n = 1.5\n", "key 'grid_n': expected an integer, got '1.5'"),
        # int() and float() would read these as 1029, 1290, 10.0 and 1e-10
        (base + "grid_n = 1_029\n", "key 'grid_n': expected an integer, got '1_029'"),
        (base + "grid_n = \u0661\u0662\u0669\u0660\n", "key 'grid_n': expected an integer, got '\u0661\u0662\u0669\u0660'"),
        (base + "k = 1_0\n", "key 'k': expected a number, got '1_0'"),
        (base + "tol = 1e-1_0\n", "key 'tol': expected a number, got '1e-1_0'"),
        (base + "tol = 0.5\n", "tol must lie in (0, 1e-2], got 0.5"),
        (base + "tol = inf\n", "key 'tol': value must be finite, got 'inf'"),
        (base + "max_iter = 0\n", "max_iter must be >= 1, got 0"),
        (base + "max_iter = 2.5\n", "key 'max_iter': expected an integer, got '2.5'"),
        (base + "k = -1\n", "k must be >= 0, got -1.0"),
        (base + "k = nan\n", "key 'k': value must be finite, got 'nan'"),
        (base + "psi_kind = affine\n", "psi_kind=affine needs psi_a"),
        (base + "psi_kind = constant\np_star = 1\n", "psi_kind=constant needs psi_a"),
        (base + "p_star = 1.0\n", "growth condition needs both psi_kind and p_star"),
        (base + "psi_a = 1\np_star = 1\n", "psi_a/psi_b need psi_kind"),
        (
            base + "psi_kind = quadratic\npsi_a = 1\np_star = 1\n",
            "psi_kind must be 'constant' or 'affine', got 'quadratic'",
        ),
        (
            base + "psi_kind = constant\npsi_a = 1\npsi_b = 7\np_star = 1\n",
            "psi_b applies only to psi_kind=affine",
        ),
        (base + "psi_kind = affine\npsi_a = -1\np_star = 1\n", "growth envelope needs a > 0, got -1.0"),
        (base + "psi_kind = affine\npsi_a = 1\npsi_b = -1\np_star = 1\n", "growth envelope needs b >= 0, got -1.0"),
        (base + "psi_kind = affine\npsi_a = 1\npsi_b = x\np_star = 1\n", "key 'psi_b': expected a number, got 'x'"),
        (base + "psi_kind = affine\npsi_a = 1\np_star = -1\n", "p_star must be >= 0, got -1.0"),
        (base + "tol =\n", ":5: key 'tol' has no value"),
        (base + "tol 1e-3\n", ":5: expected 'key = value', got 'tol 1e-3'"),
        (
            "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = sin(\n",
            "key 'rhs': unexpected 'end of input' at offset 5; "
            "expected one of: number, 'pi', variable, function, '(', '-'",
        ),
    )
    for text, message in bad:
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(write_config(tmp_path, text))


def test_solve_writes_solution_and_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    csv_lines = (out / "solution.csv").read_text().splitlines()
    assert csv_lines[0] == "t,u,v"
    assert len(csv_lines) == 1 + 513
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] >= 1
    for key in (
        "final_diff",
        "observed_ratio",
        "differential_residual",
        "boundary_value_defect",
        "boundary_fractional_defect",
        "consistency_defect",
    ):
        assert key in report
    assert len(report["diffs"]) == len(report["accelerated"]) == report["iterations"]
    assert report["differential_residual"] <= 5e-3


def test_solve_constant_forcing_spot_value(tmp_path):
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\ngrid_n = 1025\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    first_row = (out / "solution.csv").read_text().splitlines()[1].split(",")
    assert first_row[0] == "0"
    assert abs(float(first_row[1]) + 0.133974) <= 1e-4
    assert float(first_row[2]) == 0.0


def test_solve_deterministic_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_accelerated_solve_output_is_byte_identical_across_runs(tmp_path):
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 2.5*u + 0.05*sin(v) + cos(3*t)\n"
    cfg = write_config(tmp_path, text + "tol = 1e-10\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert any(json.loads((out1 / "report.json").read_text())["accelerated"])
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_solve_divergence_exit_code(tmp_path, capsys):
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 100*u\ngrid_n = 129\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "solution.csv").exists()  # no partial outputs


def test_invalid_config_exit_code(tmp_path, capsys):
    text = "alpha = 2.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\n"
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    # psi_b is affine-only; a constant growth function must not drop it silently
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\npsi_kind = constant\npsi_a = 1\npsi_b = 7\np_star = 1\n"
    assert main(["certify", "--config", write_config(tmp_path, text)]) == 2
    assert "psi_b" in capsys.readouterr().err
    # an overflowing literal is a parse error, not a math domain error later
    text = "alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = sin(1e400)\ngrid_n = 129\n"
    cfg = write_config(tmp_path, text)
    for cmd in (["solve", "--config", cfg, "--out", str(tmp_path / "y")], ["certify", "--config", cfg]):
        assert main(cmd) == 2
        assert "'1e400' at offset 5 is not finite" in capsys.readouterr().err
    # a file that is not UTF-8 cannot be read; that is a config error too
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"alpha = 1.5\nbeta = 0.5\nxi = 0.5\nrhs = 1\n# caf\xe9\n")
    assert main(["certify", "--config", str(latin1)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_grid_and_tol_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--grid", "129", "--tol", "1e-6"]) == 0
    csv_lines = (out / "solution.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 129
    for flags, message in (
        (["--grid", "32"], "--grid must be >= 129, got 32"),
        (["--tol", "0.5"], "--tol must lie in (0, 1e-2], got 0.5"),
        (["--tol", "nan"], "--tol must lie in (0, 1e-2], got nan"),
        # flags follow the config file's number rule
        (["--grid", "1_29"], "--grid: expected an integer, got '1_29'"),
        (["--grid", "\u0661\u0662\u0669"], "--grid: expected an integer, got '\u0661\u0662\u0669'"),
        (["--grid", "129.0"], "--grid: expected an integer, got '129.0'"),
        (["--tol", "1e-0_8"], "--tol: expected a number, got '1e-0_8'"),
    ):
        capsys.readouterr()
        assert main(["solve", "--config", cfg, "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify", "green"])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, EXAMPLE_LINES.replace("grid_n = 513", "grid_n = 129"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}{os.sep}") and err.count("\n") == 1, err
    assert "File exists" in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["certify", "green"])
@pytest.mark.parametrize("flag", ["--grid", "--tol"])
def test_grid_and_tol_are_solve_flags_only(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, flag, "129"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify", "green"])
def test_outputs_get_the_mode_the_umask_allows(tmp_path, capsys, command):
    cfg = write_config(tmp_path, EXAMPLE_LINES.replace("grid_n = 513", "grid_n = 129"))
    out = tmp_path / "run"
    old = os.umask(0o022)
    try:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert modes and set(modes.values()) == {0o644}, modes


def test_outputs_are_written_without_touching_the_umask(tmp_path, capsys, monkeypatch):
    # the umask is process-wide, so setting it even briefly races with every
    # other thread's file creation
    def no_umask(mask):
        raise AssertionError("os.umask must not be called")

    cfg = write_config(tmp_path, EXAMPLE_LINES.replace("grid_n = 513", "grid_n = 129"))
    old = os.umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        for command in ("solve", "certify", "green"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
            assert modes and set(modes.values()) == {0o644}, modes
    finally:
        monkeypatch.undo()
        os.umask(old)


def test_grid_below_residual_minimum_fails_before_solving(tmp_path, capsys, monkeypatch):
    # the residual check needs n >= 129, so a smaller grid is a config error
    # raised before any Picard step runs
    def no_solve(*args, **kwargs):
        raise AssertionError("picard_solve must not run")

    monkeypatch.setattr(cli, "picard_solve", no_solve)
    out = tmp_path / "run"
    small = write_config(tmp_path, EXAMPLE_LINES.replace("grid_n = 513", "grid_n = 65"), "small.cfg")
    cfg = write_config(tmp_path)
    for argv, message in (
        (["solve", "--config", small, "--out", str(out)], "grid_n must be >= 129, got 65"),
        (["solve", "--config", cfg, "--out", str(out), "--grid", "65"], "--grid must be >= 129, got 65"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("n", [33, 513, 8193])
def test_solution_csv_matches_per_value_writer(n):
    edge = [5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1e-320, 0.0, -0.0]
    rng = np.random.default_rng(n)
    pool = np.concatenate((edge, rng.normal(size=7) * 10.0 ** rng.integers(-20, 20, size=7)))
    u, v = (rng.permutation(np.resize(pool, n)) for _ in range(2))
    nodes = np.linspace(0.0, 1.0, n)
    assert cli._solution_csv(nodes, u, v) == oracle_solution_csv(nodes, u, v)


def test_solution_csv_matches_per_value_writer_on_solver_output(example_solution):
    pair, _ = example_solution
    args = (pair.grid.nodes, pair.u.values, pair.v.values)
    assert cli._solution_csv(*args) == oracle_solution_csv(*args)


def test_main_calls_share_no_arguments(tmp_path, capsys, monkeypatch):
    # the argument parser is built once per process; each call's flags are its own
    assert cli._build_arg_parser() is cli._build_arg_parser()
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--grid", "129"]) == 0
    assert len((out / "solution.csv").read_text().splitlines()) == 1 + 129
    seen = []
    monkeypatch.setattr(cli, "cmd_certify", lambda config, out_dir: seen.append((config, out_dir)) or 0)
    assert main(["certify", "--config", cfg]) == 0
    (config, out_dir), = seen
    assert config.grid_n == 513 and config.tol == 1e-10
    assert out_dir is None
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fracbvp")


def test_certify_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    printed = read_kv(capsys.readouterr().out)
    on_disk = read_kv((out / "certificate.txt").read_text())
    assert printed == on_disk
    assert printed["theta"] == "2.000000000000"
    assert printed["unique"] == "true"
    assert printed["estimated_k"] == "false"
    assert printed["d"].startswith("0.363636")
    assert printed["d_paper"] == "0.574563"  # reproduction of the published figure
    assert abs(float(printed["gstar_value"]) - 0.5527) <= 1e-3
    assert abs(float(printed["gstar_paper_bound"]) - 3.276959407) <= 1e-9
    assert printed["r"] == "none"
    assert printed["exists"] == "false"


@pytest.mark.parametrize(
    "line, written",
    [("output_dir = .\n", True), ("output_dir = ./\n", True), ("", False)],
    ids=("dot", "dot-slash", "no-key"),
)
def test_certify_writes_a_file_when_output_dir_is_given(tmp_path, monkeypatch, capsys, line, written):
    # an explicit "." is a directory like any other; only no key means stdout
    # only, while the commands that always write fall back to "."
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "alpha = 1.7\nbeta = 0.5\nxi = 0.5\nrhs = 1\nk = 0.0\n" + line)
    assert main(["certify", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    cert = tmp_path / "certificate.txt"
    assert cert.exists() == written
    if written:
        assert cert.read_text() == printed
    assert main(["green", "--config", cfg, "--mt", "2", "--ms", "2"]) == 0
    assert (tmp_path / "green.csv").exists()


def test_certify_no_reproduction_line_off_example(tmp_path, capsys):
    text = "alpha = 1.7\nbeta = 0.5\nxi = 0.5\nrhs = 1\nk = 0.0\n"
    cfg = write_config(tmp_path, text)
    assert main(["certify", "--config", cfg]) == 0
    printed = read_kv(capsys.readouterr().out)
    assert "d_paper" not in printed
    assert printed["d"] == "0.000000000000"
    assert printed["unique"] == "true"


def test_certify_estimated_flag(tmp_path, capsys):
    text = EXAMPLE_LINES.replace("k = 0.09090909090909091\n", "")
    cfg = write_config(tmp_path, text)
    assert main(["certify", "--config", cfg]) == 0
    printed = read_kv(capsys.readouterr().out)
    assert printed["estimated_k"] == "true"


def test_certify_affine_growth_with_estimated_k_stdout(tmp_path, capsys):
    # a finite existence radius, a sampled k, and no reproduction line
    text = (
        "alpha = 1.7\nbeta = 0.5\nxi = 0.5\nrhs = 0.1*sin(u) + 0.05*v + 1\n"
        "p_star = 1\npsi_kind = affine\npsi_a = 1\npsi_b = 0.1\n"
    )
    assert main(["certify", "--config", write_config(tmp_path, text)]) == 0
    assert capsys.readouterr().out == (
        "gstar_value=0.444737363973\n"
        "gstar_paper_bound=2.903447298741\n"
        "theta=1.896232964377\n"
        "k=0.100000000058\n"
        "d=0.379246593097\n"
        "unique=true\n"
        "r=2.339940124193\n"
        "exists=true\n"
        "estimated_k=true\n"
    )


def test_green_table_values(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "g"
    assert main(["green", "--config", cfg, "--out", str(out), "--mt", "3", "--ms", "3"]) == 0
    lines = (out / "green.csv").read_text().splitlines()
    assert lines[0] == "t,s,G"
    assert len(lines) == 1 + 9
    table = {}
    for line in lines[1:]:
        t, s, val = line.split(",")
        table[(float(t), float(s))] = float(val)
    assert abs(table[(0.0, 0.0)] - 0.242152) <= 1e-5
    assert abs(table[(1.0, 0.0)] - 0.484302) <= 1e-5
    assert abs(table[(0.0, 1.0)] - 0.5 * table[(1.0, 1.0)]) <= 1e-12


def test_green_table_omits_singular_row(tmp_path):
    text = "alpha = 1.6\nbeta = 0.7\nxi = 0.5\nrhs = 1\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "g"
    assert main(["green", "--config", cfg, "--out", str(out), "--mt", "2", "--ms", "3"]) == 0
    lines = (out / "green.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert "alpha-beta < 1" in lines[0]
    data = [line for line in lines if not line.startswith("#") and line != "t,s,G"]
    assert len(data) == 2 * 2  # s = 1 column dropped
    assert all(line.split(",")[1] != "1" for line in data)


def test_green_lattice_validation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["green", "--config", cfg, "--out", str(tmp_path / "g"), "--mt", "1", "--ms", "3"]) == 2


@pytest.mark.parametrize(
    "text, m_t, m_s",
    [(EXAMPLE_LINES, 13, 9), ("alpha = 1.6\nbeta = 0.7\nxi = 0.5\nrhs = 1\n", 9, 13)],
    ids=("regular", "singular-row-dropped"),
)
def test_green_csv_matches_per_value_writer(tmp_path, capsys, text, m_t, m_s):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "g"
    assert main(["green", "--config", cfg, "--out", str(out), "--mt", str(m_t), "--ms", str(m_s)]) == 0
    params = parse_config(cfg).params
    assert (out / "green.csv").read_bytes() == oracle_green_csv(params, m_t, m_s).encode("ascii")


def test_lattice_flags_follow_the_config_number_rule(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "g"
    for flags, message in (
        (["--mt", "1_1"], "--mt: expected an integer, got '1_1'"),
        (["--ms", "\u0663"], "--ms: expected an integer, got '\u0663'"),
        (["--mt", "3.0"], "--mt: expected an integer, got '3.0'"),
        (["--ms", "1e1"], "--ms: expected an integer, got '1e1'"),
    ):
        capsys.readouterr()
        assert main(["green", "--config", cfg, "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert main(["green", "--config", cfg, "--out", str(out), "--mt", "3", "--ms", "4"]) == 0
    assert len((out / "green.csv").read_text().splitlines()) == 1 + 3 * 4


def test_example_command(capsys):
    assert main(["example"]) == 0
    printed = read_kv(capsys.readouterr().out)
    assert printed["theta"] == "2.000000000000"
    assert printed["second_term"] == "0.363636"
    assert printed["gstar_reported"] == "3.1601"
    assert printed["first_term_paper"] == "0.574563"
    assert printed["unique"] == "true"
    assert printed["converged"] == "true"
    assert abs(float(printed["gstar_value"]) - 0.5527021926) <= 1e-6
    assert float(printed["d"]) < 1.0
    assert float(printed["differential_residual"]) <= 5e-3
    assert float(printed["boundary_value_defect"]) <= 1e-4
    assert float(printed["boundary_fractional_defect"]) <= 1e-4


def test_module_entry_point(tmp_path):
    # one subprocess smoke test of python -m dispatch
    cfg = write_config(tmp_path)
    # the child imports the package under test, also when only pytest's
    # pythonpath setting put it on sys.path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fracbvp", "certify", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "unique=true" in proc.stdout
