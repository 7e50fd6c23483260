from contextlib import nullcontext

import numpy as np
import pytest

from strichartz_lab.cli import main
from strichartz_lab.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    default_config,
    run,
    validate_config,
)
from strichartz_lab.extremizer import ANDERSON_DEPTH
from strichartz_lab.functional_equation import PhaseUnwrapWarning
from strichartz_lab.lattice import AliasingWarning


#: a config per experiment small enough for Tier-1; every experiment needs one
REDUCED = {
    "sharp-constant": {},
    "iterate": {},
    "bilinear-sweep": {"sweep.separation_list": "4,8"},
    "functional-residual": {"sampler.n_samples": "2000"},
    "power-sums": {},
    "decay-report": {},
    "q-crosscheck": {"crosscheck.n_random_sextuples": "1"},
}


def strip_meta(text: str) -> str:
    return text.split("[meta]")[0]


@pytest.fixture(scope="module")
def reduced_run(tmp_path_factory):
    """(directory, first report, second report) of each experiment run twice
    on its reduced config, into directory/a and directory/b, on first request."""
    done = {}

    def get(name):
        if name not in done:
            cfg = default_config(name)
            cfg.entries.update(REDUCED[name])
            base = tmp_path_factory.mktemp(name)
            # hard flat bands fill the box, and the gauge switch warns so
            expected = (pytest.warns(AliasingWarning, match="fills the box")
                        if name == "bilinear-sweep" else nullcontext())
            with expected:
                done[name] = base, run(cfg, base / "a"), run(cfg, base / "b")
        return done[name]

    return get


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
    cfg = default_config("sharp-constant")
    cfg.entries["grid.spacing"] = "0.1"
    with pytest.raises(ConfigError, match="grid.spacing"):
        validate_config(cfg)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("grid.n = 64\n")  # no experiment line
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("experiment = sharp-constant\nbroken line\n")
    with pytest.raises(ConfigError, match="line 3: repeated key 'powersums.kmax'"):
        ExperimentConfig.from_text("experiment = power-sums\npowersums.kmax = 200\n"
                                   "powersums.kmax = 5\nexperiment = sharp-constant\n")


def test_run_rejects_bad_config_without_output(tmp_path):
    cfg = default_config("sharp-constant")
    del cfg.entries["grid.n"]
    out = tmp_path / "never"
    with pytest.raises(ConfigError):
        run(cfg, out)
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_passes_deterministically(name, reduced_run):
    assert name in REDUCED, f"{name} needs a reduced config in REDUCED"
    base, r1, r2 = reduced_run(name)
    assert r1.all_pass
    assert all((base / "a" / f).exists() for f in r1.files.values())
    body_a = strip_meta((base / "a" / "report.txt").read_text())
    body_b = strip_meta((base / "b" / "report.txt").read_text())
    assert body_a == body_b == strip_meta(r2.to_text())
    # the fixed acceptance gates are listed in the report body
    listed = body_a.split("[gates]\n")[1].split("[results]\n")[0].splitlines()
    assert listed == [f"{k} = {v!r}" for k, v in EXPERIMENTS[name]["gates"].items()]


def test_no_config_key_is_a_gate():
    for spec in EXPERIMENTS.values():
        assert not [k for k in spec["defaults"] if k.startswith("check.")]


def test_sharp_constant_experiment(reduced_run):
    _, report, _ = reduced_run("sharp-constant")
    assert float(report.results["ratio"]) == pytest.approx(12 ** (-1 / 12), abs=1e-3)


def test_power_sums_experiment(reduced_run):
    base, _, _ = reduced_run("power-sums")
    table = (base / "a" / "power_sums.txt").read_text().splitlines()
    assert table[1].split() == ["k", "lucas", "p", "bound_num", "bound_den", "holds"]
    assert len(table) == 2 + 198


def test_iterate_experiment(reduced_run):
    # the Anderson mixing adds a least-squares solve to every Picard step
    _, report, _ = reduced_run("iterate")
    assert report.results["mixing_depth"] == str(ANDERSON_DEPTH)
    assert int(report.results["lambda_evaluations"]) == int(report.results["steps"])


def test_decay_report_experiment(reduced_run):
    base, _, _ = reduced_run("decay-report")
    h_lines = (base / "a" / "h_curve.csv").read_text().splitlines()
    assert h_lines[0] == "eps,H"
    assert len(h_lines) == 1 + 1 + 10  # header, eps = 0 row, 10-point grid
    g_lines = (base / "a" / "g_scan.csv").read_text().splitlines()
    assert g_lines[0] == "C,M,x0,x1"
    assert len(g_lines) == 1 + 3  # header, one row per barrier constant


def test_bilinear_sweep_skips_missing_bound(tmp_path):
    # at s = pi/8 the N = 1 bands touch on the grid and have no
    # Hausdorff-Young bound; the check runs over the other points
    cfg = default_config("bilinear-sweep")
    cfg.entries.update({"sweep.band_scale_xi": repr(np.pi / 8),
                        "sweep.separation_list": "1,4,8"})
    with pytest.warns(AliasingWarning, match="fills the box"):
        report = run(cfg, tmp_path / "sweep")
    assert report.results["hy_bound_N_1"] == "nan"
    assert report.checks["hausdorff_young_upper_bound"]


def test_failed_check_reported_not_raised(tmp_path):
    cfg = default_config("iterate")
    cfg.entries["picard.max_steps"] = "1"
    cfg.entries["picard.tol_l2"] = "1e-15"
    cfg.entries["start.linear_perturbation"] = "0.5"
    # one step leaves a state whose phase jumps too far for the log fit
    with pytest.warns(PhaseUnwrapWarning, match="phase jumps"):
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


@pytest.mark.parametrize("experiment, entries, args, named", [
    ("sharp-constant", {"check.ratio_abs_tol": "1e-3"}, [], "check.ratio_abs_tol"),
    ("sharp-constant", {"grid.spacing": "0.1"}, [], "grid.spacing"),
    ("power-sums", None, ["--seed", "5"], "seed"),
    ("sharp-constant", {"grid.n": "abc"}, [], "'abc'"),
    ("sharp-constant", {"grid.n": "1000"}, [], "1000"),
    ("bilinear-sweep", {"sweep.profile": "nope"}, [], "'nope'"),
    ("decay-report", None, ["--seed", "5"], "seed"),
    pytest.param("power-sums", "powersums.kmax = 5\n", [],
                 "line 3: repeated key 'powersums.kmax'", id="repeated-key"),
    pytest.param("power-sums", "experiment = power-sums\n", [],
                 "line 3: repeated key 'experiment'", id="repeated-experiment"),
])
def test_cli_refused_config_exits_2_without_output(tmp_path, capsys, experiment, entries,
                                                   args, named):
    # a key the experiment does not read, a repeated line, or a value that
    # does not parse or that the library rejects: one error line, exit 2, no
    # directory made.  Entries given as text are appended to the defaults.
    if entries is not None:
        cfg = default_config(experiment)
        if isinstance(entries, str):
            text = cfg.to_text() + entries
        else:
            cfg.entries.update(entries)
            text = cfg.to_text()
        path = tmp_path / "run.cfg"
        path.write_text(text)
        args = [*args, "--config", str(path)]
    assert main([experiment, "--out", str(tmp_path / "runs" / "never"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "runs").exists()
