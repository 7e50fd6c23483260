"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from strichartz_lab.bilinear import separation_sweep
from strichartz_lab.decay import (
    analytic_extension_probe,
    bootstrap_smallness,
    mu_slope_fit,
    tail_norm_H,
)
from strichartz_lab.extremizer import gauge_fix, lambda_apply, omega_of, picard_iterate
from strichartz_lab.functional_equation import (
    golden_power_sums,
    quadratic_log_fit,
    residual_statistic,
)
from strichartz_lab.lattice import (
    AliasingWarning,
    UniformGrid,
    WaveFunction,
    forward_transform,
    inner_product,
    inverse_transform,
    lp_norm,
    make_gaussian,
)
from strichartz_lab.propagator import (
    default_time_quadrature,
    evolve,
    sharp_ratio_exact,
    strichartz_ratio,
)
from strichartz_lab.sextic_form import KAPPA, calibrate_kappa, q_quadrature, q_spacetime

from conftest import random_band_limited


@pytest.fixture(scope="module")
def acceptance_grid():
    return UniformGrid.symmetric(n=1024, half_width=20.0)


@pytest.fixture(scope="module")
def acceptance_tq():
    return default_time_quadrature(257)


@pytest.fixture(scope="module")
def picard_run(acceptance_grid, acceptance_tq):
    x = acceptance_grid.x
    f0 = WaveFunction(acceptance_grid, (1.0 + 0.1 * x) * np.exp(-x ** 2))
    started = time.perf_counter()
    result = picard_iterate(f0, tol=1e-8, max_steps=200, tq=acceptance_tq)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_criterion_1_sharp_constant(acceptance_grid, acceptance_tq):
    f = make_gaussian(acceptance_grid)
    started = time.perf_counter()
    ratio = strichartz_ratio(f, acceptance_tq)
    elapsed = time.perf_counter() - started
    assert ratio == pytest.approx(sharp_ratio_exact, abs=1e-3)
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS sharp constant: ratio = {ratio:.6f} "
          f"(reference 12^(-1/12) = {sharp_ratio_exact:.6f}, {elapsed:.2f} s)")


def test_criterion_2_q_oracle_equivalence(acceptance_grid, acceptance_tq):
    # kappa constancy across three unrelated inputs before trusting (2 pi)^4
    calib = [
        make_gaussian(acceptance_grid),
        make_gaussian(acceptance_grid, a=0.5, b=0.3),
        make_gaussian(acceptance_grid, a=1.3 + 0.2j, b=1.0 + 0.5j),
    ]
    ratios, spread = calibrate_kappa(calib, acceptance_tq)
    assert spread <= 1e-3

    g = calib[0]
    qs = q_spacetime(g, g, g, g, g, g, acceptance_tq)
    qq = q_quadrature(g, g, g, g, g, g)
    gauss_rel = abs(qs - qq) / abs(qs)
    assert gauss_rel <= 1e-2

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(10):
        sextet = [random_band_limited(acceptance_grid, rng) for _ in range(6)]
        v_st = q_spacetime(*sextet, acceptance_tq)
        v_quad = q_quadrature(*sextet)
        worst = max(worst, abs(v_st - v_quad) / abs(v_st))
    assert worst <= 2e-2
    print(f"\n[criterion 2] PASS sextic-form oracles: kappa spread = {spread:.2e}, "
          f"gaussian rel diff = {gauss_rel:.2e}, worst of 10 random = {worst:.2e}")


def test_criterion_3_euler_lagrange_fixed_point(acceptance_grid, acceptance_tq):
    g0 = gauge_fix(make_gaussian(acceptance_grid))
    lam = lambda_apply(g0, acceptance_tq)
    omega = omega_of(g0, acceptance_tq)
    assert omega == pytest.approx(KAPPA / (2 * np.sqrt(3)), abs=0.5)
    residual = lp_norm(WaveFunction(acceptance_grid, lam.values - omega * g0.values),
                       2) / omega
    assert residual <= 1e-3
    print(f"\n[criterion 3] PASS Euler-Lagrange fixed point: omega = {omega:.4f} "
          f"(reference {KAPPA / (2 * np.sqrt(3)):.4f}), eigen residual = {residual:.2e}")


def test_criterion_4_extremizer_pipeline(picard_run):
    result, elapsed = picard_run
    assert result.converged
    final = result.final
    assert final.step_index <= 200
    assert final.delta <= 1e-8
    assert final.ratio == pytest.approx(sharp_ratio_exact, abs=1e-3)
    fit = quadratic_log_fit(final.f)
    assert fit.residual <= 1e-3
    assert fit.A.real < 0
    assert elapsed < 300.0
    print(f"\n[criterion 4] PASS extremizer pipeline: {final.step_index} steps, "
          f"delta = {final.delta:.2e}, ratio = {final.ratio:.6f}, "
          f"log-fit residual = {fit.residual:.2e}, Re A = {fit.A.real:.4f} "
          f"({elapsed:.1f} s)")


def test_criterion_5_bilinear_decay():
    with pytest.warns(AliasingWarning, match="fills the box"):
        sweep = separation_sweep(1.0, [4, 8, 16, 32, 64], profile="flat", seed=0)
    assert sweep.slope <= -1.0 / 6.0 + 0.05
    assert all(v <= b * (1 + 1e-8) for v, b in zip(sweep.values, sweep.bounds))
    print(f"\n[criterion 5] PASS bilinear decay: fitted slope = {sweep.slope:.4f} "
          f"(bound -1/6 + 0.05 = {-1 / 6 + 0.05:.4f}); Hausdorff-Young bound holds "
          f"on all {len(sweep.ns)} pairs")


def test_criterion_6_power_sums():
    started = time.perf_counter()
    rows = golden_power_sums(200)
    elapsed = time.perf_counter() - started
    assert all(r.p != 0 for r in rows)
    assert all(r.bound_holds for r in rows)
    assert elapsed < 1.0
    print(f"\n[criterion 6] PASS power sums: p_k != 0 and exact bounds hold for "
          f"3 <= k <= 200 ({elapsed * 1000:.1f} ms)")


def test_criterion_7_functional_equation(picard_run):
    def log_quadratic(v):
        v = np.asarray(v)
        return np.exp(-v ** 2 + 2.0 * v + 1.0)

    sup_gauss, _ = residual_statistic(log_quadratic, 10_000, seed=12345, sampler_box=3.0)
    assert sup_gauss <= 1e-10
    sup_sech, _ = residual_statistic(lambda v: 1 / np.cosh(np.asarray(v)),
                                     10_000, seed=12345, sampler_box=3.0)
    assert sup_sech >= 0.05
    result, _ = picard_run
    sup_iter, _ = residual_statistic(result.final.f, 10_000, seed=12345, sampler_box=3.0)
    assert sup_iter <= 1e-2
    print(f"\n[criterion 7] PASS functional equation: gaussian sup = {sup_gauss:.2e}, "
          f"sech sup = {sup_sech:.3f}, converged-iterate sup = {sup_iter:.2e}")


def test_criterion_8_decay_bootstrap(acceptance_grid):
    f = make_gaussian(acceptance_grid)
    fit = mu_slope_fit(f)
    assert fit.mu_hat == pytest.approx(0.25, abs=1e-3)

    eps_grid = np.logspace(-8, 6, 10)
    hs = [tail_norm_H(f, 2.0, e) for e in eps_grid]
    assert all(a >= b - 1e-15 for a, b in zip(hs, hs[1:]))
    h0 = tail_norm_H(f, 2.0, 0.0)
    assert abs(hs[0] - h0) <= 1e-6 * h0

    o1s = [bootstrap_smallness(f, s)[0] for s in (2.0, 2.5, 3.0)]
    assert o1s[0] > o1s[1] > o1s[2]

    values, crs = analytic_extension_probe(f, [1j])
    assert abs(values[0] - np.e) <= 1e-8
    assert crs[0] <= 1e-6
    print(f"\n[criterion 8] PASS decay bootstrap: mu_hat = {fit.mu_hat:.6f}, "
          f"H monotone with limit gap {abs(hs[0] - h0) / h0:.2e}, "
          f"o1 = {o1s[0]:.3f} > {o1s[1]:.3f} > {o1s[2]:.3f}, "
          f"probe |f(i) - e| = {abs(values[0] - np.e):.2e}, CR = {crs[0]:.2e}")


def test_criterion_9_foundations(acceptance_grid):
    rng = np.random.default_rng(31415)
    worst_round = 0.0
    for _ in range(5):
        f = random_band_limited(acceptance_grid, rng)
        back = inverse_transform(forward_transform(f))
        err = lp_norm(WaveFunction(acceptance_grid, back.values - f.values), 2)
        worst_round = max(worst_round, err / lp_norm(f, 2))
    assert worst_round <= 1e-12

    f = make_gaussian(acceptance_grid)
    g = make_gaussian(acceptance_grid, a=0.7, b=0.4j)
    plancherel = abs(inner_product(forward_transform(f), forward_transform(g))
                     - 2 * np.pi * inner_product(f, g)) / abs(2 * np.pi * inner_product(f, g))
    assert plancherel <= 1e-10

    worst_unitary = max(abs(lp_norm(evolve(f, t), 2) / lp_norm(f, 2) - 1.0)
                        for t in (0.05, 0.3, 1.0))
    assert worst_unitary <= 1e-12
    print(f"\n[criterion 9] PASS foundations: round trip = {worst_round:.2e}, "
          f"Plancherel defect = {plancherel:.2e}, unitarity drift = {worst_unitary:.2e}")
