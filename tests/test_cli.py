"""Command line interface: flags, config file, outputs, exit codes."""

import re

import pytest

from nested_bddc.bddc import BddcError
from nested_bddc.cli import main
from nested_bddc.krylov import InvariantViolation, PcgBreakdownError
from nested_bddc.nested_driver import NestedSolver


def run_cli(args):
    return main(args)


def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "L,level,M,nsub,n,n_gamma,iter,cond"
    assert lines[1].startswith("2,1,2,9,225,36,")
    err = capsys.readouterr().err
    assert "boundary fluxes" in err  # finest-level dof accounting note


def test_preset_runs_multiple_specs(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli(
        ["solve", "--preset", "fig3-right", "--k1", "10", "--k3", "0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + three downsweep levels of the 4-level run


def test_invalid_arguments_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--coeff", "bogus"])
    assert exc.value.code == 2
    # setup failures (indivisible hierarchy) are caught, not raised
    code = run_cli(["solve", "--levels", "4", "--ratio", "3", "--coeff", "jump-left",
                    "--k1", "1", "--out", str(tmp_path / "x.csv"), "--config",
                    str(tmp_path / "missing.cfg")])
    assert code == 2


def test_singular_setup_exit_2(tmp_path, capsys):
    # contrast 1e16 leaves a local KKT numerically singular at build
    out = tmp_path / "r.csv"
    code = run_cli(
        ["solve", "--preset", "fig3-right", "--k1", "1e8", "--k3", "1e-8", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid setup" in err and "singular" in err
    assert not out.exists()


def test_nonconvergence_exit_3(tmp_path):
    # an unreachable tolerance stagnates at the round-off floor
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--tol", "1e-30",
                    "--out", str(tmp_path / "r.csv")])
    assert code == 3


@pytest.mark.parametrize("error", [InvariantViolation, PcgBreakdownError])
def test_pcg_failure_exit_3_and_next_experiment(error, tmp_path, capsys, monkeypatch):
    # A PCG error from the first experiment's solve ends in one message
    # naming it and exit 3, and the next experiment of the preset still runs.
    real_solve, calls = NestedSolver.solve, []

    def failing_first(self):
        calls.append(self.spec.name())
        if len(calls) == 1:
            raise error("injected failure")
        return real_solve(self)

    monkeypatch.setattr(NestedSolver, "solve", failing_first)
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--preset", "table1-ratio6", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "bddc: L2-r6-constant: injected failure" in err
    assert "Traceback" not in err
    assert calls == ["L2-r6-constant", "L3-r6-constant"]
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [["3", "1"], ["3", "2"]]


@pytest.mark.parametrize("phase", ["__init__", "solve"])
def test_library_error_exit_2_with_one_message(phase, tmp_path, capsys, monkeypatch):
    # Any library error that no other code claims, here a BddcError from
    # set-up or from the solve, exits 2 with one line naming the experiment.
    def failing(self, *args):
        raise BddcError("injected failure")

    monkeypatch.setattr(NestedSolver, phase, failing)
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"bddc: L2-r3-constant: {'invalid setup: ' if phase == '__init__' else ''}injected failure"
    ]
    assert not out.exists()


def test_verify_flag_success(tmp_path):
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--verify",
                    "--out", str(tmp_path / "r.csv")])
    assert code == 0


def test_verify_exit_4_when_direct_solve_rejects_system(tmp_path, capsys):
    # At a 1e14 contrast the nested solve converges, but the direct solve's
    # pivot check rejects the fine KKT: the verification asked for cannot be
    # made, which is exit 4 with one message and no CSV.
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--levels", "3", "--ratio", "2", "--coeff", "jump-right",
                    "--k1", "1e7", "--k3", "1e-7", "--verify", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "bddc: L3-r2-jump-right: cannot verify: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_dump_history(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--dump-history",
                    "--out", str(out)])
    assert code == 0
    hist = tmp_path / "res_history.csv"
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "spec,L,level,iteration,relres,precond_relres,div_defect"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[1] == "2" and first[2] == "1" and first[3] == "1"


def test_dump_matrices(tmp_path):
    from scipy.io import mmread

    prefix = str(tmp_path / "dbg_")
    code = run_cli(["solve", "--levels", "2", "--ratio", "3",
                    "--dump-matrices", prefix, "--out", str(tmp_path / "r.csv")])
    assert code == 0
    a = mmread(prefix + "A.mtx")
    b = mmread(prefix + "B.mtx")
    assert a.shape == (144, 144)
    assert b.shape == (81, 144)


def test_dump_matrices_rejects_multiple_experiments(tmp_path, capsys):
    # one PREFIXA.mtx / PREFIXB.mtx pair cannot hold several experiments
    prefix = str(tmp_path / "dbg_")
    code = run_cli(["solve", "--preset", "table1-ratio3", "--dump-matrices", prefix,
                    "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "--dump-matrices" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--dump-matrices", "--out"])
def test_unwritable_output_exit_2(tmp_path, capsys, flag):
    # a path in a missing directory is reported, not written silently or
    # raised as a traceback
    missing = str(tmp_path / "missing" / "x")
    args = ["solve", "--levels", "2", "--ratio", "3", "--out", str(tmp_path / "r.csv")]
    code = run_cli(args + [flag, missing])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"bddc: cannot write {missing}")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("source", ["flag", "config", "preset"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_invalid_tolerance_exit_2(tmp_path, capsys, source, tol):
    out = tmp_path / "r.csv"
    args = ["solve", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol = {tol}\n")
        args += ["--config", str(cfg)]
    else:
        args += [f"--tol={tol}"] + (["--preset", "fig3-left"] if source == "preset" else [])
    code = run_cli(args)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "tolerance" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("field, value", [("levels", "-2"), ("levels", "1"), ("ratio", "0"), ("ratio", "1")])
def test_impossible_shape_exit_2(tmp_path, capsys, source, field, value):
    # rejected with the hierarchy's message before any mesh is built
    message = {"levels": "at least two levels", "ratio": "ratio must be an integer >= 2"}[field]
    out = tmp_path / "r.csv"
    args = ["solve", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field} = {value}\n")
        args += ["--config", str(cfg)]
    else:
        args += [f"--{field}={value}"]
    code = run_cli(args)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


def test_unused_invalid_contrast_exit_2(tmp_path, capsys):
    # the constant pattern uses k1 only; bad k2 and k3 are still rejected
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--k2", "-5", "--k3", "nan",
                    "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "contrast k2 must be finite and > 0" in err[0]
    assert not list(tmp_path.iterdir())


def test_jump_left_below_four_levels_exit_2(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--coeff", "jump-left", "--levels", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'jump-left' needs at least 4 levels" in err[0]
    assert not out.exists()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 3\nratio = 3\ntol = 1e-6  # comment\n")
    out = tmp_path / "r.csv"
    # CLI --levels overrides the config value
    code = run_cli(["solve", "--levels", "2", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,1,")
    # without the override the config's three levels apply
    code = run_cli(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("3,1,")


def test_bad_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    code = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_nonconvergence_keeps_failing_level_history(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["solve", "--levels", "3", "--ratio", "3", "--tol", "1e-30",
                    "--dump-history", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    match = re.search(r"L3-r3-constant: level 2: PCG did not reach 1e-30 within (\d+) iterations", err)
    assert match
    rows = [line.split(",") for line in (tmp_path / "r_history.csv").read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["L3-r3-constant", "3", "2"]] * int(match[1])
    assert [int(row[3]) for row in rows] == list(range(1, len(rows) + 1))


@pytest.mark.parametrize("source", ["flag", "config", "config-preset"])
@pytest.mark.parametrize("field, value", [("levels", "5"), ("ratio", "4"), ("coeff", "constant")])
def test_preset_shape_override_exit_2(tmp_path, capsys, source, field, value):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "run.cfg"
    args = ["solve", "--out", str(out)]
    if source == "flag":
        args += ["--preset", "fig3-left", f"--{field}", value]
    else:
        preset_line = "preset = fig3-left\n" if source == "config-preset" else ""
        cfg.write_text(f"{preset_line}{field} = {value}\n")
        args += ["--config", str(cfg)]
        if source == "config":
            args += ["--preset", "fig3-left"]
    code = run_cli(args)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "fig3-left" in err[0] and field in err[0]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("coeff", "bogus"), ("gamma", "0.5"), ("levels", "two")])
def test_invalid_config_value_fails_like_flag(tmp_path, capsys, key, value):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    from_config = capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli(["solve", f"--{key}", value, "--out", str(out)])
    assert capsys.readouterr().err == from_config
    assert f"argument --{key}" in from_config
    assert not out.exists()


def test_config_preset_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = fig3-right\nk1 = 100\nk3 = 5\n")
    from_config = tmp_path / "config.csv"
    assert run_cli(["solve", "--config", str(cfg), "--k3", "0.01", "--out", str(from_config)]) == 0
    from_flags = tmp_path / "flags.csv"
    assert run_cli(["solve", "--preset", "fig3-right", "--out", str(from_flags)]) == 0
    assert from_config.read_text() == from_flags.read_text()
