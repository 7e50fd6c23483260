import warnings
from fractions import Fraction

import numpy as np
import pytest

from strichartz_lab.functional_equation import (
    ConstraintSextuple,
    constraint_circle,
    golden_power_sums,
    product_residual,
    quadratic_log_fit,
    residual_samples,
    residual_statistic,
)
from strichartz_lab.lattice import UniformGrid, WaveFunction, forward_transform, make_gaussian

PHI = (1 + np.sqrt(5)) / 2
PSI = (1 - np.sqrt(5)) / 2


def test_constraint_circle_invariants(rng):
    xyz = rng.uniform(-3, 3, size=(100_000, 3))
    thetas = rng.uniform(0, 2 * np.pi, size=100_000)
    worst = 0.0
    for (x, y, z), theta in zip(xyz[:2000], thetas[:2000]):
        cs = constraint_circle(x, y, z, theta)
        s_def = sum(cs.left) - sum(cs.right)
        q_def = sum(v * v for v in cs.left) - sum(v * v for v in cs.right)
        worst = max(worst, abs(s_def), abs(q_def))
    assert worst <= 1e-12
    # vectorized check of the full 1e5 sample set through the same formulas
    s = xyz.sum(axis=1)
    q = (xyz ** 2).sum(axis=1)
    r = np.sqrt(np.maximum(q - s ** 2 / 3, 0))
    u1 = np.array([1, -1, 0]) / np.sqrt(2)
    u2 = np.array([1, 1, -2]) / np.sqrt(6)
    right = (s[:, None] / 3 + r[:, None] * (np.cos(thetas)[:, None] * u1
                                            + np.sin(thetas)[:, None] * u2))
    assert np.abs(right.sum(axis=1) - s).max() <= 1e-12 * (1 + np.abs(s).max())
    assert np.abs((right ** 2).sum(axis=1) - q).max() <= 1e-11 * (1 + q.max())


def test_constraint_circle_degenerate():
    cs = constraint_circle(1.0, 1.0, 1.0, 2.34)
    assert cs.right == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)


def test_constraint_circle_self_membership():
    x, y, z = 1.0, -1.0, 1.0
    s, q = x + y + z, 3.0
    center = np.full(3, s / 3)
    u1 = np.array([1, -1, 0]) / np.sqrt(2)
    u2 = np.array([1, 1, -2]) / np.sqrt(6)
    v = np.array([x, y, z]) - center
    theta_star = np.arctan2(v @ u2, v @ u1)
    cs = constraint_circle(x, y, z, theta_star)
    assert cs.right == pytest.approx((x, y, z), abs=1e-14)


def test_golden_pair_satisfies_constraints():
    cs = ConstraintSextuple((1.0, -1.0, 1.0), (PHI, PSI, 0.0))
    assert sum(cs.right) == pytest.approx(1.0, abs=1e-14)
    assert sum(v * v for v in cs.right) == pytest.approx(3.0, abs=1e-14)


def test_constraint_sextuple_rejects_violation():
    with pytest.raises(ValueError):
        ConstraintSextuple((1.0, 2.0, 3.0), (1.0, 2.0, 4.0))


def test_product_residual_log_quadratic(rng):
    def f(v):
        v = np.asarray(v)
        return np.exp(-v ** 2 + 2 * v + 1)

    worst = 0.0
    for _ in range(200):
        x, y, z = rng.uniform(-3, 3, 3)
        cs = constraint_circle(x, y, z, rng.uniform(0, 2 * np.pi))
        worst = max(worst, product_residual(f, cs))
    assert worst <= 1e-12


def test_product_residual_constant_function():
    cs = constraint_circle(0.3, -1.2, 2.0, 1.0)
    assert product_residual(lambda v: np.ones_like(np.asarray(v, dtype=float)), cs) == 0.0


def test_residual_statistic_discriminates(rng):
    sup_gauss, rms_gauss = residual_statistic(
        lambda v: np.exp(-np.asarray(v) ** 2 + 2 * np.asarray(v) + 1),
        10_000, seed=11)
    assert sup_gauss <= 1e-12
    sup_sech, _ = residual_statistic(lambda v: 1 / np.cosh(np.asarray(v)), 10_000, seed=11)
    assert sup_sech >= 0.05
    assert rms_gauss <= sup_gauss


def test_residual_statistic_deterministic(grid, gaussian):
    a = residual_statistic(gaussian, 2000, seed=5)
    b = residual_statistic(gaussian, 2000, seed=5)
    assert a == b


def test_residual_samples_keep_the_requested_box_where_the_grid_holds_it(gaussian):
    # the default grid holds boxes up to 11.5: the draws are those of [-3, 3]^3,
    # point for point, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = residual_samples(gaussian, 200, seed=5403)
    rng = np.random.default_rng(5403)
    xyz = rng.uniform(-3.0, 3.0, size=(200, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=200)
    each = [product_residual(gaussian, constraint_circle(*p, t)) for p, t in zip(xyz, theta)]
    assert res.tolist() == each


def test_residual_samples_shrink_a_box_whose_circles_leave_the_grid():
    # seed 5403 draws a triple of norm 5.14 in [-3, 3]^3, beyond the span
    # [-5, 4.92]; the box shrinks to 4.92 / sqrt 3
    g = make_gaussian(UniformGrid.symmetric(128, 5.0))
    with pytest.warns(UserWarning, match=r"sampler_box 3 .* using 2\.84"):
        sup, rms = residual_statistic(g, 10_000, seed=5403)
    assert 0 <= rms <= sup < 1e-3
    # a span with no room on one side of 0 holds no box
    edge = make_gaussian(UniformGrid(n=128, dx=0.1, x0=0.0))
    with pytest.raises(ValueError, match="holds no sampler box around 0"):
        residual_samples(edge, 10, seed=1)


def test_residual_statistic_grid_gaussian_within_interpolation_budget(gaussian):
    sup, _ = residual_statistic(gaussian, 10_000, seed=3)
    # acceptance gate for the quintic Taylor table off the grid; it reaches
    # 4.1e-8 here, guarded in test_precision_guards.py
    assert sup <= 1e-2


def test_golden_power_sums_hand_values():
    rows = golden_power_sums(5)
    by_k = {r.k: r for r in rows}
    assert by_k[3].lucas == 4 and by_k[3].p == -3
    assert by_k[4].lucas == 7 and by_k[4].p == -4
    assert by_k[4].bound == Fraction(33, 16)
    assert by_k[5].lucas == 11 and by_k[5].p == -10
    assert by_k[5].bound == Fraction(179, 32)
    assert all(r.bound_holds for r in rows)


def test_golden_power_sums_exact_to_200():
    rows = golden_power_sums(200)
    assert len(rows) == 198
    assert all(r.p != 0 for r in rows)
    assert all(r.bound_holds for r in rows)
    # exact integers: the recurrence result matches round(phi^k + psi^k)
    for r in rows[:40]:
        assert r.lucas == round(PHI ** r.k + PSI ** r.k)


def test_golden_power_sums_domain_error():
    with pytest.raises(ValueError):
        golden_power_sums(2)


def test_quadratic_log_fit_real_gaussian(gaussian):
    fit = quadratic_log_fit(gaussian)
    assert fit.A == pytest.approx(-1.0, abs=1e-10)
    assert abs(fit.B) <= 1e-10
    assert abs(fit.C) <= 1e-10
    assert fit.residual <= 1e-10
    assert fit.gaussian_certified


def test_quadratic_log_fit_complex_model(grid):
    a, b, c = -1 + 0.5j, 2 - 1j, 3 + 0.2j
    f = WaveFunction(grid, np.exp(a * grid.x ** 2 + b * grid.x + c))
    fit = quadratic_log_fit(f)
    assert fit.A == pytest.approx(a, abs=1e-8)
    assert fit.B == pytest.approx(b, abs=1e-8)
    assert fit.C == pytest.approx(c, abs=1e-8)
    assert fit.gaussian_certified


def test_quadratic_log_fit_rejects_sech(grid):
    f = WaveFunction(grid, 1 / np.cosh(grid.x))
    fit = quadratic_log_fit(f)
    assert fit.residual >= 1e-2
    assert not fit.gaussian_certified


def test_quadratic_log_fit_translation_equivariance(grid, gaussian):
    from strichartz_lab.lattice import forward_transform, inverse_transform

    shift = 0.7
    fhat = forward_transform(gaussian)
    fhat.values = fhat.values * np.exp(1j * shift * fhat.grid.xi)  # f(x + shift)
    shifted = inverse_transform(fhat)
    base = quadratic_log_fit(gaussian)
    moved = quadratic_log_fit(shifted)
    assert moved.A == pytest.approx(base.A, abs=1e-8)
    assert moved.B == pytest.approx(base.B + 2 * base.A * shift, abs=1e-7)


def test_quadratic_log_fit_window_too_small(grid):
    # about 9 samples of e^{-400x^2} lie above LOGFIT_FLOOR of its peak
    with pytest.raises(ValueError, match="need at least 32"):
        quadratic_log_fit(make_gaussian(grid, a=400.0))


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda g: forward_transform(make_gaussian(g)), "spatial-grid", id="spectrum"),
    pytest.param(lambda g: WaveFunction(g, np.zeros(g.n)), "zero function", id="zero"),
])
def test_quadratic_log_fit_refuses_spectra_and_zero(grid, make, match):
    with pytest.raises(ValueError, match=match):
        quadratic_log_fit(make(grid))
