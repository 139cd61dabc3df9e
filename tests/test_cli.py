"""Command line interface: flags, config file, outputs, exit codes."""

import pytest

from nested_bddc.cli import main


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


def test_verify_flag_success(tmp_path):
    code = run_cli(["solve", "--levels", "2", "--ratio", "3", "--verify",
                    "--out", str(tmp_path / "r.csv")])
    assert code == 0


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
