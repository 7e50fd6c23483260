import numpy as np
import pytest

from strichartz_lab.extremizer import (
    _resample_scaled,
    gauge_fix,
    lambda_apply,
    omega_of,
    picard_iterate,
    save_trajectory,
)
from strichartz_lab.lattice import (
    AliasingWarning,
    WaveFunction,
    inner_product,
    lp_norm,
    make_gaussian,
)
from strichartz_lab.propagator import sharp_ratio_exact, strichartz_ratio
from strichartz_lab.sextic_form import KAPPA, q_spacetime

from conftest import random_band_limited

OMEGA_GAUSSIAN = KAPPA / (2 * np.sqrt(3))  # ~ 449.9


def test_adjoint_identity(grid, unit_gaussian, tq, rng):
    lam = lambda_apply(unit_gaussian, tq)
    for _ in range(5):
        g = random_band_limited(grid, rng)
        lhs = inner_product(g, lam)
        rhs = q_spacetime(g, unit_gaussian, unit_gaussian, unit_gaussian,
                          unit_gaussian, unit_gaussian, tq)
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


def test_gaussian_eigenrelation(grid, gaussian, tq):
    g0 = gauge_fix(gaussian)
    lam = lambda_apply(g0, tq)
    om = omega_of(g0, tq)
    assert om == pytest.approx(OMEGA_GAUSSIAN, abs=0.5)
    residual = lp_norm(WaveFunction(grid, lam.values - om * g0.values), 2) / om
    assert residual <= 1e-3
    renorm = WaveFunction(grid, lam.values / lp_norm(lam, 2))
    assert lp_norm(WaveFunction(grid, renorm.values - g0.values), 2) <= 1e-3


def test_omega_modulation_invariance(grid, unit_gaussian, tq):
    om = omega_of(unit_gaussian, tq)
    modulated = WaveFunction(grid, np.exp(1j * 2.0 * grid.x) * unit_gaussian.values)
    assert omega_of(modulated, tq) == pytest.approx(om, rel=1e-6)


def test_omega_homogeneity(grid, unit_gaussian, tq):
    om = omega_of(unit_gaussian, tq)
    c = 1.7 - 0.3j
    scaled = WaveFunction(grid, c * unit_gaussian.values)
    assert omega_of(scaled, tq) == pytest.approx(abs(c) ** 4 * om, rel=1e-10)


def test_lambda_homogeneity(grid, unit_gaussian, tq):
    c = 0.8 + 0.6j
    lam = lambda_apply(unit_gaussian, tq)
    lam_scaled = lambda_apply(WaveFunction(grid, c * unit_gaussian.values), tq)
    expected = abs(c) ** 4 * c * lam.values
    err = np.abs(lam_scaled.values - expected).max() / np.abs(expected).max()
    assert err <= 1e-10


def test_lambda_zero_input(grid, tq):
    with pytest.raises(ValueError):
        lambda_apply(WaveFunction(grid, np.zeros(grid.n)), tq)


def test_gauge_fix_fixed_point(unit_gaussian):
    fixed = gauge_fix(unit_gaussian)
    assert lp_norm(WaveFunction(fixed.grid, fixed.values - unit_gaussian.values), 2) <= 1e-10


def test_gauge_fix_symmetry_action(grid, unit_gaussian):
    shifted = WaveFunction(grid, np.exp(3j * grid.x) * np.exp(-(grid.x - 2.0) ** 2))
    fixed = gauge_fix(shifted)
    assert lp_norm(WaveFunction(grid, fixed.values - unit_gaussian.values), 2) <= 1e-8


def test_gauge_fix_idempotent(grid, rng):
    f = random_band_limited(grid, rng)
    once = gauge_fix(f)
    twice = gauge_fix(once)
    assert lp_norm(WaveFunction(grid, twice.values - once.values), 2) <= 1e-10


def test_gauge_fix_preserves_ratio(grid):
    f = WaveFunction(grid, np.exp(1j * grid.x) * (1 + 0.2 * grid.x) * np.exp(-grid.x ** 2))
    assert strichartz_ratio(gauge_fix(f)) == pytest.approx(strichartz_ratio(f), abs=1e-6)


@pytest.mark.parametrize("lam", [0.8, 1.05, 1.3])
@pytest.mark.parametrize("a", [1.0, 1.0 + 0.5j])
def test_resample_scaled_closed_form(grid, lam, a):
    # the dense Fourier sum reaches ~1.4e-15 here; a chirp-z evaluation
    # reaches only ~1.5e-11
    x = grid.x
    f = WaveFunction(grid, np.exp(-a * x ** 2 + 0.5j * x))
    expected = np.sqrt(lam) * np.exp(-a * (lam * x) ** 2 + 0.5j * lam * x)
    assert np.abs(_resample_scaled(f, lam) - expected).max() <= 1e-14


def test_picard_from_gaussian_immediate(grid, gaussian, tq):
    result = picard_iterate(gaussian, tol=1e-8, max_steps=5, tq=tq)
    assert result.converged
    assert result.final.step_index <= 2
    assert result.final.ratio == pytest.approx(sharp_ratio_exact, abs=1e-4)


def test_picard_consistency_of_functionals(grid, gaussian, tq):
    result = picard_iterate(gaussian, tol=1e-8, max_steps=5, tq=tq)
    final = result.final
    assert final.omega_estimate == pytest.approx(KAPPA * final.ratio ** 6, rel=0.01)
    assert final.ratio <= sharp_ratio_exact + 2e-3
    assert lp_norm(final.f, 2) == pytest.approx(1.0, abs=1e-10)


def test_picard_unconverged_flagged(grid, tq):
    bumpy = WaveFunction(grid, (1 + 0.5 * grid.x) * np.exp(-grid.x ** 2))
    result = picard_iterate(bumpy, tol=1e-14, max_steps=2, tq=tq)
    assert not result.converged
    assert len(result.states) == 3  # initial + 2 steps, trajectory kept


@pytest.mark.parametrize("bumpy, tol, max_steps, n_states", [
    (False, 1e-8, 5, 2),   # converged
    (True, 1e-14, 2, 3),   # unconverged after max_steps
])
def test_picard_states_match_functionals(grid, tq, bumpy, tol, max_steps, n_states):
    # each state's ratio and omega come from the Lambda pass over that same
    # iterate (or, for the last state, a separate pass); an off-by-one
    # between the observed and the stored iterate shows here
    x = grid.x
    f0 = WaveFunction(grid, (1 + (0.5 * x if bumpy else 0.0)) * np.exp(-x ** 2))
    result = picard_iterate(f0, tol=tol, max_steps=max_steps, tq=tq)
    assert result.converged == (not bumpy)
    assert len(result.states) == n_states
    for st in result.states:
        assert st.ratio == pytest.approx(strichartz_ratio(st.f, tq), rel=1e-14)
        assert st.omega_estimate == pytest.approx(omega_of(st.f, tq), rel=1e-13)


def test_picard_zero_start(grid, tq):
    with pytest.raises(ValueError):
        picard_iterate(WaveFunction(grid, np.zeros(grid.n)), tq=tq)


def test_picard_from_indicator_records_outcome(grid, tq):
    # exploratory start far outside the Gaussian basin documentation: either
    # a converged certified profile or an unconverged flag, never silence
    import warnings

    indicator = WaveFunction(grid, (np.abs(grid.x) <= 1.0).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = picard_iterate(indicator, tol=1e-8, max_steps=8, tq=tq)
    assert isinstance(result.converged, bool)
    assert len(result.states) >= 2
    assert all(np.isfinite(st.ratio) and st.ratio > 0 for st in result.states)
    if result.converged:
        from strichartz_lab.functional_equation import quadratic_log_fit

        assert quadratic_log_fit(result.final.f).gaussian_certified


def test_trajectory_csv(tmp_path, gaussian, tq):
    result = picard_iterate(gaussian, tol=1e-8, max_steps=3, tq=tq)
    path = tmp_path / "trajectory.csv"
    save_trajectory(result, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "step,delta,ratio,omega"
    assert len(lines) == 2 + len(result.states)


def test_lambda_apply_band_edge_raises(band_edge):
    with pytest.warns(AliasingWarning), pytest.raises(ValueError, match="band edge"):
        lambda_apply(band_edge)
