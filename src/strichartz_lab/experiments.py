"""Named, reproducible experiments over the library.

Each experiment consumes a plain-text key-value config that holds its
inputs and nothing else (every key it reads, echoed in full into each
report; a key it does not read is refused), runs one module pipeline,
writes a structured report plus CSV data files, and reports pass/fail per
named check against fixed acceptance gates, which each report lists under
[gates].  Identical configs and seeds produce byte-identical report
bodies; wall clock and versions live in a trailing metadata section
excluded from that guarantee.
"""

from __future__ import annotations

import platform
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import bilinear as bl
from . import decay as dc
from . import extremizer as ex
from . import functional_equation as fe
from . import lattice as lt
from . import propagator as pr
from . import sextic_form as sx

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "default_config",
    "run",
]


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    """Flat key-value configuration; keys are dotted and unit-tagged."""

    experiment: str
    entries: dict[str, str] = field(default_factory=dict)

    def get(self, key: str) -> str:
        if key not in self.entries:
            raise ConfigError(f"config is missing required key {key!r}")
        return self.entries[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.get(key))
        except ValueError as err:
            raise ConfigError(f"key {key!r} is not an integer: {self.entries[key]!r}") from err

    def get_float(self, key: str) -> float:
        try:
            return float(self.get(key))
        except ValueError as err:
            raise ConfigError(f"key {key!r} is not a number: {self.entries[key]!r}") from err

    def get_float_list(self, key: str) -> list[float]:
        raw = self.get(key)
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigError(f"key {key!r} is not a comma list: {raw!r}") from err

    def to_text(self) -> str:
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {v}" for k, v in sorted(self.entries.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        entries = {}
        experiment = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in entries or (key == "experiment" and experiment is not None):
                raise ConfigError(f"line {ln}: repeated key {key!r}")
            if key == "experiment":
                experiment = value
            else:
                entries[key] = value
        if experiment is None:
            raise ConfigError("config does not name an experiment")
        return cls(experiment=experiment, entries=entries)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    gates: dict[str, float] = field(default_factory=dict)
    results: dict[str, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    def body_text(self) -> str:
        lines = ["# strichartz-lab experiment report", "[config]"]
        lines.append(self.config.to_text().rstrip("\n"))
        lines.append("[gates]")
        lines += [f"{k} = {v!r}" for k, v in self.gates.items()]
        lines.append("[results]")
        lines += [f"{k} = {v}" for k, v in self.results.items()]
        lines.append("[checks]")
        lines += [f"{k} = {'PASS' if ok else 'FAIL'}" for k, ok in self.checks.items()]
        if self.files:
            lines.append("[files]")
            lines += [f"{k} = {v}" for k, v in self.files.items()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        meta_lines = ["[meta]"]
        meta_lines += [f"{k} = {v}" for k, v in self.meta.items()]
        return self.body_text() + "\n".join(meta_lines) + "\n"


def _record(results: dict, key: str, value) -> None:
    if isinstance(value, float):
        results[key] = repr(float(value))  # plain-float repr, even for numpy scalars
    elif isinstance(value, complex):
        results[key] = repr(complex(value))
    else:
        results[key] = str(value)


def _grid_from(config: ExperimentConfig) -> lt.UniformGrid:
    return lt.UniformGrid.symmetric(n=config.get_int("grid.n"),
                                    half_width=config.get_float("grid.half_width_x"))


def _tq_from(config: ExperimentConfig) -> pr.TimeQuadrature:
    return pr.TimeQuadrature.compactified(config.get_int("time.nodes"))


def _random_smooth_profile(grid: lt.UniformGrid, rng: np.random.Generator) -> lt.WaveFunction:
    """Unit-norm profile with a smooth, compactly concentrated transform:
    a few complex Gaussian bumps at random centers and widths."""
    dual = grid.dual()
    xi = dual.xi
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(3):
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        center = rng.uniform(-4.0, 4.0)
        width = rng.uniform(1.0, 2.0)
        vals += amp * np.exp(-((xi - center) / width) ** 2)
    f = lt.inverse_transform(lt.WaveFunction(dual, vals))
    f.values /= lt.lp_norm(f, 2)
    return f


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _run_sharp_constant(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    grid = _grid_from(config)
    tq = _tq_from(config)
    gate = report.gates
    f = lt.make_gaussian(grid)
    ratio = pr.strichartz_ratio(f, tq)
    coarse = pr.strichartz_ratio(f, pr.TimeQuadrature.compactified((len(tq.nodes) + 1) // 2))
    _record(report.results, "ratio", ratio)
    _record(report.results, "reference_12^(-1/12)", pr.sharp_ratio_exact)
    error = abs(ratio - pr.sharp_ratio_exact)
    _record(report.results, "abs_error", error)
    _record(report.results, "quadrature_error_estimate", abs(ratio - coarse))
    _record(report.results, "time_nodes", len(tq.nodes))
    report.checks["sharp_constant_matches"] = error <= gate["ratio_abs_tol"]

    # foundations: round trip, Plancherel constant, flow unitarity
    rng = np.random.default_rng(config.get_int("seed"))
    worst_round = 0.0
    for _ in range(3):
        g = _random_smooth_profile(grid, rng)
        back = lt.inverse_transform(lt.forward_transform(g))
        err = lt.lp_norm(lt.WaveFunction(grid, back.values - g.values), 2)
        worst_round = max(worst_round, err / lt.lp_norm(g, 2))
    g2 = lt.make_gaussian(grid, a=0.7, b=0.4j)
    ref = 2 * np.pi * lt.inner_product(f, g2)
    plancherel = abs(lt.inner_product(lt.forward_transform(f), lt.forward_transform(g2))
                     - ref) / abs(ref)
    unitarity = max(abs(lt.lp_norm(pr.evolve(f, t), 2) / lt.lp_norm(f, 2) - 1.0)
                    for t in (0.05, 0.3, 1.0))
    _record(report.results, "roundtrip_rel_error", worst_round)
    _record(report.results, "plancherel_rel_defect", plancherel)
    _record(report.results, "unitarity_rel_drift", unitarity)
    report.checks["fourier_round_trip"] = worst_round <= gate["roundtrip_rel_tol"]
    report.checks["plancherel_constant_2pi"] = plancherel <= gate["plancherel_rel_tol"]
    report.checks["evolution_unitary"] = unitarity <= gate["unitarity_rel_tol"]

    lt.save_wavefunction(f, out / "input_state.csv")
    report.files["input_state"] = "input_state.csv"


def _run_iterate(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    grid = _grid_from(config)
    tq = _tq_from(config)
    strength = config.get_float("start.linear_perturbation")
    tol = config.get_float("picard.tol_l2")
    max_steps = config.get_int("picard.max_steps")
    gate = report.gates

    # stationarity at the reference profile: Lambda g0 = omega g0
    g0 = ex.gauge_fix(lt.make_gaussian(grid))
    lam = ex.lambda_apply(g0, tq)
    omega = ex.omega_of(g0, tq)
    eigen_residual = lt.lp_norm(
        lt.WaveFunction(grid, lam.values - omega * g0.values), 2) / omega
    _record(report.results, "omega_reference", omega)
    _record(report.results, "eigen_residual", eigen_residual)
    report.checks["euler_lagrange_fixed_point"] = eigen_residual <= gate["eigen_residual_tol"]

    x = grid.x
    f0 = lt.WaveFunction(grid, (1.0 + strength * x) * np.exp(-x ** 2))
    result = ex.picard_iterate(f0, tol=tol, max_steps=max_steps, tq=tq)
    final = result.final
    fit = fe.quadratic_log_fit(final.f)
    sup_res, rms_res = fe.residual_statistic(final.f, 10_000,
                                             seed=config.get_int("seed"),
                                             sampler_box=3.0)
    _record(report.results, "converged", result.converged)
    _record(report.results, "steps", final.step_index)
    _record(report.results, "mixing_depth", result.depth)
    # every state but the last is observed through one Lambda pass
    _record(report.results, "lambda_evaluations", len(result.states) - 1)
    _record(report.results, "final_delta", final.delta)
    _record(report.results, "final_ratio", final.ratio)
    _record(report.results, "final_omega", final.omega_estimate)
    _record(report.results, "logfit_residual", fit.residual)
    _record(report.results, "logfit_A", fit.A)
    _record(report.results, "product_sup_residual", sup_res)
    _record(report.results, "product_rms_residual", rms_res)
    report.checks["picard_converged"] = result.converged
    report.checks["ratio_at_sharp_constant"] = (abs(final.ratio - pr.sharp_ratio_exact)
                                                <= gate["ratio_abs_tol"])
    report.checks["gaussian_certified"] = fit.gaussian_certified
    report.checks["functional_equation_residual"] = sup_res <= gate["product_residual_tol"]
    ex.save_trajectory(result, out / "trajectory.csv")
    lt.save_wavefunction(final.f, out / "final_state.csv")
    report.files["trajectory"] = "trajectory.csv"
    report.files["final_state"] = "final_state.csv"


def _run_bilinear_sweep(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    s = config.get_float("sweep.band_scale_xi")
    ns = config.get_float_list("sweep.separation_list")
    box = config.get_float("sweep.box_half_width_x")
    seed = config.get_int("seed")
    result = bl.separation_sweep(s, ns, profile=config.get("sweep.profile"),
                                 seed=seed, box_half_width=box)
    _record(report.results, "fitted_slope", result.slope)
    _record(report.results, "reference_slope_-1/6", -1.0 / 6.0)
    for n_val, v, b in zip(result.ns, result.values, result.bounds):
        _record(report.results, f"value_N_{n_val:g}", v)
        _record(report.results, f"hy_bound_N_{n_val:g}", b)
    report.checks["slope_at_most_bound"] = result.slope <= report.gates["slope_max"]
    report.checks["hausdorff_young_upper_bound"] = all(
        v <= b * (1.0 + report.gates["hy_bound_rel_slack"])
        for v, b in zip(result.values, result.bounds) if not np.isnan(b)
    )
    bl.save_sweep(result, out / "sweep.csv")
    report.files["sweep"] = "sweep.csv"


def _run_functional_residual(config: ExperimentConfig, out: Path,
                             report: ExperimentReport) -> None:
    n_samples = config.get_int("sampler.n_samples")
    box = config.get_float("sampler.box_half_width_x")
    seed = config.get_int("seed")

    def gaussian(v):
        return np.exp(-np.asarray(v) ** 2 + 2.0 * np.asarray(v) + 1.0)

    def sech(v):
        return 1.0 / np.cosh(np.asarray(v))

    res_g = fe.residual_samples(gaussian, n_samples, seed=seed, sampler_box=box)
    res_s = fe.residual_samples(sech, n_samples, seed=seed, sampler_box=box)
    sup_g, rms_g = float(res_g.max()), float(np.sqrt(np.mean(res_g ** 2)))
    sup_s, rms_s = float(res_s.max()), float(np.sqrt(np.mean(res_s ** 2)))
    _record(report.results, "gaussian_sup_residual", sup_g)
    _record(report.results, "gaussian_rms_residual", rms_g)
    _record(report.results, "sech_sup_residual", sup_s)
    _record(report.results, "sech_rms_residual", rms_s)
    report.checks["gaussian_residual_vanishes"] = sup_g <= report.gates["gaussian_sup_tol"]
    report.checks["sech_residual_discriminates"] = sup_s >= report.gates["sech_sup_floor"]
    with open(out / "residuals.csv", "w") as fh:
        fh.write("profile,sup,rms\n")
        fh.write(f"log-quadratic,{sup_g!r},{rms_g!r}\n")
        fh.write(f"sech,{sup_s!r},{rms_s!r}\n")
    # histogram of log10 residuals (zeros folded into the lowest bin)
    edges = np.linspace(-18.0, 0.0, 37)
    with open(out / "residual_histogram.csv", "w") as fh:
        fh.write("log10_bin_left,log10_bin_right,count_log_quadratic,count_sech\n")
        hist_g, _ = np.histogram(np.log10(np.maximum(res_g, 1e-18)), bins=edges)
        hist_s, _ = np.histogram(np.log10(np.maximum(res_s, 1e-18)), bins=edges)
        for left, right, cg, cs in zip(edges[:-1], edges[1:], hist_g, hist_s):
            fh.write(f"{float(left)!r},{float(right)!r},{int(cg)},{int(cs)}\n")
    report.files["residuals"] = "residuals.csv"
    report.files["residual_histogram"] = "residual_histogram.csv"


def _run_power_sums(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    kmax = config.get_int("powersums.kmax")
    rows = fe.golden_power_sums(kmax)
    nonzero = all(r.p != 0 for r in rows)
    bounds = all(r.bound_holds for r in rows)
    _record(report.results, "kmax", kmax)
    _record(report.results, "rows", len(rows))
    _record(report.results, "p_3", rows[0].p)
    _record(report.results, "p_4", rows[1].p)
    _record(report.results, "p_5", rows[2].p)
    report.checks["all_power_sums_nonzero"] = nonzero
    report.checks["exact_rational_bounds_hold"] = bounds
    with open(out / "power_sums.txt", "w") as fh:
        fh.write("# exact golden-ratio power sums: p_k = 2 + (-1)^k - L_k\n")
        fh.write("k lucas p bound_num bound_den holds\n")
        for r in rows:
            fh.write(f"{r.k} {r.lucas} {r.p} {r.bound.numerator} "
                     f"{r.bound.denominator} {r.bound_holds}\n")
    report.files["power_sums"] = "power_sums.txt"


def _run_decay_report(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    grid = _grid_from(config)
    s = config.get_float("decay.band_threshold_xi")
    s_grid = config.get_float_list("decay.threshold_list_xi")
    c_grid = config.get_float_list("decay.barrier_c_list")
    gate = report.gates

    f = lt.make_gaussian(grid)
    fit = dc.mu_slope_fit(f)
    eps_grid = list(np.logspace(-8, 6, 10))
    h_values = [dc.tail_norm_H(f, s, eps) for eps in eps_grid]
    h_zero = dc.tail_norm_H(f, s, 0.0)
    o_pairs = [dc.bootstrap_smallness(f, sv) for sv in s_grid]
    omega = ex.omega_of(f, _tq_from(config))
    scans = [dc.g_polynomial_scan(omega, c) for c in c_grid]
    values, crs = dc.analytic_extension_probe(f, [1j])

    _record(report.results, "mu_hat", fit.mu_hat)
    _record(report.results, "mu_fit_residual", fit.residual)
    _record(report.results, "mu_certified", fit.certified_mu)
    _record(report.results, "H_eps0", h_zero)
    _record(report.results, "H_eps_min", h_values[0])
    _record(report.results, "omega", omega)
    _record(report.results, "probe_value_at_i", values[0])
    _record(report.results, "probe_reference_e", float(np.e))
    _record(report.results, "cauchy_riemann_residual", float(crs[0]))
    for sv, (o1, o2) in zip(s_grid, o_pairs):
        _record(report.results, f"o1_s_{sv:g}", o1)
        _record(report.results, f"o2_s_{sv:g}", o2)

    report.checks["mu_matches_quarter"] = abs(fit.mu_hat - 0.25) <= gate["mu_abs_tol"]
    report.checks["h_monotone_nonincreasing"] = all(
        a >= b - gate["h_monotone_abs_slack"] for a, b in zip(h_values, h_values[1:])
    )
    report.checks["h_limit_matches_eps0"] = (abs(h_values[0] - h_zero)
                                            <= gate["h_limit_rel_tol"] * h_zero)
    o1s = [p[0] for p in o_pairs]
    report.checks["o1_strictly_decreasing"] = all(a > b for a, b in zip(o1s, o1s[1:]))
    report.checks["probe_matches_entire_gaussian"] = (abs(values[0] - np.e)
                                                      <= gate["probe_abs_tol"])
    report.checks["cauchy_riemann_residual_small"] = float(crs[0]) <= gate["cauchy_riemann_tol"]

    with open(out / "g_scan.csv", "w") as fh:
        fh.write("C,M,x0,x1\n")
        for c, scan in zip(c_grid, scans):
            fh.write(f"{float(c)!r},{float(scan.m_sup)!r},{float(scan.x0)!r},"
                     f"{float(scan.x1)!r}\n")
    with open(out / "h_curve.csv", "w") as fh:
        fh.write("eps,H\n")
        fh.write(f"0.0,{float(h_zero)!r}\n")
        for eps, hval in zip(eps_grid, h_values):
            fh.write(f"{float(eps)!r},{float(hval)!r}\n")
    report.files["g_scan"] = "g_scan.csv"
    report.files["h_curve"] = "h_curve.csv"


def _run_q_crosscheck(config: ExperimentConfig, out: Path, report: ExperimentReport) -> None:
    grid = _grid_from(config)
    tq = _tq_from(config)
    seed = config.get_int("seed")
    n_random = config.get_int("crosscheck.n_random_sextuples")

    calib = [
        lt.make_gaussian(grid),
        lt.make_gaussian(grid, a=0.5, b=0.3),
        lt.make_gaussian(grid, a=1.3 + 0.2j, b=1.0 + 0.5j),
    ]
    ratios, spread = sx.calibrate_kappa(calib, tq)
    _record(report.results, "kappa_frozen", sx.KAPPA)
    for i, r in enumerate(ratios):
        _record(report.results, f"kappa_ratio_{i}", float(r))
    _record(report.results, "kappa_spread", spread)
    _record(report.results, "quadrature_outer_points_per_panel", sx.N_OUTER)
    _record(report.results, "quadrature_angular_points", sx.N_PHI)
    _record(report.results, "time_nodes", len(tq.nodes))
    report.checks["kappa_constant_across_inputs"] = spread <= report.gates["kappa_spread_tol"]

    g = calib[0]
    qs = sx.q_spacetime(g, g, g, g, g, g, tq)
    qq = sx.q_quadrature(g, g, g, g, g, g)
    gauss_rel = abs(qs - qq) / abs(qs)
    _record(report.results, "gaussian_q_spacetime", qs)
    _record(report.results, "gaussian_q_quadrature", qq)
    _record(report.results, "gaussian_rel_diff", gauss_rel)
    report.checks["gaussian_oracle_agreement"] = gauss_rel <= report.gates["gaussian_rel_tol"]

    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for i in range(n_random):
        sextet = [_random_smooth_profile(grid, rng) for _ in range(6)]
        v_st = sx.q_spacetime(*sextet, tq)
        v_quad = sx.q_quadrature(*sextet)
        rel = abs(v_st - v_quad) / max(abs(v_st), 1e-300)
        worst = max(worst, rel)
        rows.append((i, v_st, v_quad, rel))
    _record(report.results, "random_sextuples", n_random)
    _record(report.results, "random_worst_rel_diff", worst)
    report.checks["random_oracle_agreement"] = worst <= report.gates["random_rel_tol"]

    with open(out / "crosscheck.csv", "w") as fh:
        fh.write("case,re_spacetime,im_spacetime,re_quadrature,im_quadrature,rel_diff\n")
        fh.write(f"gaussian,{qs.real!r},{qs.imag!r},{qq.real!r},{qq.imag!r},{gauss_rel!r}\n")
        for i, v_st, v_quad, rel in rows:
            fh.write(f"random_{i},{v_st.real!r},{v_st.imag!r},"
                     f"{v_quad.real!r},{v_quad.imag!r},{rel!r}\n")
    report.files["crosscheck"] = "crosscheck.csv"


# ---------------------------------------------------------------------------
# registry and entry point
# ---------------------------------------------------------------------------

_GRID_DEFAULTS = {
    "grid.n": "1024",
    "grid.half_width_x": "20.0",
    "time.nodes": "257",
}
_COMMON_DEFAULTS = {"seed": "12345", **_GRID_DEFAULTS}

# "defaults" holds every config key an experiment reads, and nothing else;
# "gates" holds its fixed acceptance tolerances, listed in each report.
EXPERIMENTS: dict[str, dict] = {
    "sharp-constant": {
        "runner": _run_sharp_constant,
        "defaults": _COMMON_DEFAULTS,
        "gates": {"ratio_abs_tol": 1e-3, "roundtrip_rel_tol": 1e-12,
                  "plancherel_rel_tol": 1e-10, "unitarity_rel_tol": 1e-12},
    },
    "iterate": {
        "runner": _run_iterate,
        "defaults": {
            **_COMMON_DEFAULTS,
            "start.linear_perturbation": "0.1",
            "picard.tol_l2": "1e-8",
            "picard.max_steps": "200",
        },
        "gates": {"ratio_abs_tol": 1e-3, "logfit_residual_tol": fe.LOGFIT_RESIDUAL_TOL,
                  "eigen_residual_tol": 1e-3, "product_residual_tol": 1e-2},
    },
    "bilinear-sweep": {
        "runner": _run_bilinear_sweep,
        "defaults": {
            "seed": "12345",
            "sweep.band_scale_xi": "1.0",
            "sweep.separation_list": "4,8,16,32,64",
            "sweep.box_half_width_x": "80.0",
            "sweep.profile": "flat",
        },
        "gates": {"slope_max": -0.11666666666666667, "hy_bound_rel_slack": 1e-8},
    },
    "functional-residual": {
        "runner": _run_functional_residual,
        "defaults": {
            "seed": "12345",
            "sampler.n_samples": "10000",
            "sampler.box_half_width_x": "3.0",
        },
        "gates": {"gaussian_sup_tol": 1e-10, "sech_sup_floor": 0.05},
    },
    "power-sums": {
        "runner": _run_power_sums,
        "defaults": {"powersums.kmax": "200"},
        "gates": {},  # both checks are exact integer comparisons
    },
    "decay-report": {
        "runner": _run_decay_report,
        "defaults": {
            **_GRID_DEFAULTS,
            "decay.band_threshold_xi": "2.0",
            "decay.threshold_list_xi": "2.0,2.5,3.0",
            "decay.barrier_c_list": "1.0,10.0,100.0",
        },
        "gates": {"mu_abs_tol": 1e-3, "h_monotone_abs_slack": 1e-15, "h_limit_rel_tol": 1e-6,
                  "probe_abs_tol": 1e-8, "cauchy_riemann_tol": 1e-6},
    },
    "q-crosscheck": {
        "runner": _run_q_crosscheck,
        "defaults": {**_COMMON_DEFAULTS, "crosscheck.n_random_sextuples": "10"},
        "gates": {"kappa_spread_tol": 1e-3, "gaussian_rel_tol": 1e-2, "random_rel_tol": 2e-2},
    },
}


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment=experiment,
                            entries=dict(EXPERIMENTS[experiment]["defaults"]))


def validate_config(config: ExperimentConfig) -> None:
    """The config must hold exactly the keys the experiment reads: a config
    file is complete or rejected (no silent default filling), and a key
    that would change nothing, such as an acceptance gate, is refused."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    keys = EXPERIMENTS[config.experiment]["defaults"].keys()
    missing = sorted(keys - config.entries.keys())
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
    unknown = sorted(config.entries.keys() - keys)
    if unknown:
        raise ConfigError(f"config has keys {config.experiment} does not read: "
                          f"{', '.join(unknown)}")


def run(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Execute one experiment; writes report.txt and data files into out_dir.

    Raises ConfigError for an unusable config, including a value that does
    not parse or that the library rejects, and then leaves no directory
    behind that the call created.  Check failures do not raise; they are
    recorded in the report.
    """
    validate_config(config)
    spec = EXPERIMENTS[config.experiment]
    out = Path(out_dir)
    created = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(config=config, gates=dict(spec["gates"]))
    started = time.perf_counter()
    try:
        spec["runner"](config, out, report)
    except ValueError as err:  # ConfigError, or a value the library rejects
        if created is not None:
            shutil.rmtree(created)
        raise ConfigError(str(err)) from err
    elapsed = time.perf_counter() - started
    report.meta["versions"] = (
        f"python {platform.python_version()}; numpy {np.__version__}; "
        f"scipy {scipy.__version__}"
    )
    report.meta["wall_clock_seconds"] = f"{elapsed:.3f}"
    report.meta["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(out / "report.txt", "w") as fh:
        fh.write(report.to_text())
    return report
