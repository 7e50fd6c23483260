import numpy as np
import pytest

from strichartz_lab.cli import main
from strichartz_lab.experiments import (
    ConfigError,
    ExperimentConfig,
    default_config,
    run,
    validate_config,
)
from strichartz_lab.extremizer import ANDERSON_DEPTH


def strip_meta(text: str) -> str:
    return text.split("[meta]")[0]


def test_config_round_trip():
    cfg = default_config("sharp-constant")
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again.experiment == cfg.experiment
    assert again.entries == cfg.entries


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        default_config("no-such-experiment")
    cfg = default_config("sharp-constant")
    del cfg.entries["grid.n"]
    with pytest.raises(ConfigError):
        validate_config(cfg)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("grid.n = 64\n")  # no experiment line
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("experiment = sharp-constant\nbroken line\n")


def test_run_rejects_bad_config_without_output(tmp_path):
    cfg = default_config("sharp-constant")
    del cfg.entries["grid.n"]
    out = tmp_path / "never"
    with pytest.raises(ConfigError):
        run(cfg, out)
    assert not out.exists()


def test_sharp_constant_experiment(tmp_path):
    report = run(default_config("sharp-constant"), tmp_path / "sc")
    assert report.all_pass
    assert (tmp_path / "sc" / "report.txt").exists()
    assert (tmp_path / "sc" / "input_state.csv").exists()
    assert float(report.results["ratio"]) == pytest.approx(12 ** (-1 / 12), abs=1e-3)


def test_power_sums_experiment(tmp_path):
    report = run(default_config("power-sums"), tmp_path / "ps")
    assert report.all_pass
    table = (tmp_path / "ps" / "power_sums.txt").read_text().splitlines()
    assert table[1].split() == ["k", "lucas", "p", "bound_num", "bound_den", "holds"]
    assert len(table) == 2 + 198


def test_functional_residual_determinism(tmp_path):
    cfg = default_config("functional-residual")
    cfg.entries["sampler.n_samples"] = "2000"
    r1 = run(cfg, tmp_path / "a")
    r2 = run(cfg, tmp_path / "b")
    assert strip_meta(r1.to_text()) == strip_meta(r2.to_text())
    body_a = strip_meta((tmp_path / "a" / "report.txt").read_text())
    body_b = strip_meta((tmp_path / "b" / "report.txt").read_text())
    assert body_a == body_b
    assert r1.all_pass


def test_iterate_determinism(tmp_path):
    # the Anderson mixing adds a least-squares solve to every Picard step
    cfg = default_config("iterate")
    r1 = run(cfg, tmp_path / "a")
    r2 = run(cfg, tmp_path / "b")
    body_a = strip_meta((tmp_path / "a" / "report.txt").read_text())
    body_b = strip_meta((tmp_path / "b" / "report.txt").read_text())
    assert body_a == body_b
    assert r1.all_pass
    assert r1.results["mixing_depth"] == str(ANDERSON_DEPTH)
    assert int(r1.results["lambda_evaluations"]) == int(r1.results["steps"])


def test_decay_report_experiment(tmp_path):
    report = run(default_config("decay-report"), tmp_path / "decay")
    assert report.all_pass
    assert (tmp_path / "decay" / "bootstrap_report.txt").exists()
    h_lines = (tmp_path / "decay" / "h_curve.csv").read_text().splitlines()
    assert h_lines[0] == "eps,H"
    assert len(h_lines) == 1 + 1 + 10  # header, eps = 0 row, 10-point grid


def test_failed_check_reported_not_raised(tmp_path):
    cfg = default_config("iterate")
    cfg.entries["picard.max_steps"] = "1"
    cfg.entries["picard.tol_l2"] = "1e-15"
    cfg.entries["start.linear_perturbation"] = "0.5"
    report = run(cfg, tmp_path / "it")
    assert not report.all_pass
    assert not report.checks["picard_converged"]
    assert (tmp_path / "it" / "report.txt").exists()
    assert (tmp_path / "it" / "trajectory.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["power-sums", "--out", str(tmp_path / "ok")]) == 0
    # malformed config: missing required keys -> usage error, no partial output
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = sharp-constant\nseed = 1\n")
    out_dir = tmp_path / "never"
    assert main(["sharp-constant", "--config", str(bad), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    # config naming a different experiment than the subcommand
    mismatched = tmp_path / "mismatch.cfg"
    mismatched.write_text(default_config("power-sums").to_text())
    assert main(["sharp-constant", "--config", str(mismatched)]) == 2
    # unknown experiment is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["no-such-thing"])
    assert exc.value.code == 2


def test_cli_check_failure_exit_code(tmp_path):
    cfg = default_config("iterate")
    cfg.entries["picard.max_steps"] = "1"
    cfg.entries["picard.tol_l2"] = "1e-15"
    path = tmp_path / "it.cfg"
    path.write_text(cfg.to_text())
    code = main(["iterate", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert (tmp_path / "run" / "report.txt").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "fr.cfg"
    cfg = default_config("functional-residual")
    cfg.entries["sampler.n_samples"] = "500"
    cfg_path.write_text(cfg.to_text())
    assert main(["functional-residual", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r1"), "--seed", "99"]) == 0
    report = (tmp_path / "r1" / "report.txt").read_text()
    assert "seed = 99" in report
