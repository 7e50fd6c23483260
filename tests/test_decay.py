import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.special import erfc

from strichartz_lab.bilinear import make_band_limited
from strichartz_lab.decay import (
    analytic_extension_probe,
    band_decompose,
    bootstrap_smallness,
    g_polynomial_scan,
    mu_slope_fit,
    tail_norm_H,
)
from strichartz_lab.lattice import (
    FrequencyGrid,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    make_gaussian,
    sample_offgrid,
)
from strichartz_lab.propagator import gaussian_l6_sixth_exact
from strichartz_lab.sextic_form import KAPPA


def test_band_decompose_reassembly(grid, gaussian):
    d = band_decompose(gaussian, 2.0)
    fhat = forward_transform(gaussian)
    np.testing.assert_array_equal(d.low.values + d.middle.values + d.high.values,
                                  fhat.values)
    assert not np.any((d.low.values != 0) & (d.middle.values != 0))
    assert not np.any((d.middle.values != 0) & (d.high.values != 0))


def test_band_decompose_gaussian_tail_scale(gaussian):
    d = band_decompose(gaussian, 2.0)
    fhat = forward_transform(gaussian)
    ratio = lp_norm(d.high, 2) / lp_norm(fhat, 2)
    # independent oracle: the closed-form transform sqrt(pi) e^{-xi^2/4}
    # evaluated on the same samples and masked the same way
    xi = fhat.grid.xi
    closed = np.pi * np.exp(-xi ** 2 / 2)
    expected = np.sqrt(closed[np.abs(xi) > 4.0].sum() / closed.sum())
    assert ratio == pytest.approx(expected, rel=1e-9)
    # continuum scale: erfc(s^2/sqrt 2) mass fraction, below e^{-s^4/4}
    assert ratio == pytest.approx(np.sqrt(erfc(4.0 / np.sqrt(2.0))), rel=0.05)
    assert ratio <= np.exp(-2.0 ** 4 / 4.0)


def test_band_decompose_empty_tail(grid):
    f = make_band_limited(grid, 0.0, 1.5, "flat")
    d = band_decompose(f, 2.0)
    assert np.abs(d.high.values).max() <= 1e-12


def test_band_decompose_domain_errors(gaussian):
    with pytest.raises(ValueError):
        band_decompose(gaussian, 0.9)
    with pytest.raises(ValueError):
        band_decompose(gaussian, 9.5)  # s^2 beyond the Nyquist frequency


def test_tail_norm_closed_form(gaussian):
    # H(0)^2 = int_{|xi|>=4} pi e^{-3 xi^2 / 8} dxi for the unit-width Gaussian
    closed_sq, err = quad(lambda xi: np.pi * np.exp(-3 * xi ** 2 / 8), 4.0, 40.0)
    closed = np.sqrt(2 * closed_sq)
    assert err <= 1e-12
    analytic = np.sqrt(np.pi * np.sqrt(8 * np.pi / 3) * erfc(np.sqrt(6.0)))
    assert closed == pytest.approx(analytic, rel=1e-9)
    h0 = tail_norm_H(gaussian, 2.0, 0.0)
    # the hard band cut falls between grid samples: first-order budget
    budget = gaussian.grid.dual().dxi * np.pi * np.exp(-6.0) / (2 * closed_sq)
    assert h0 == pytest.approx(closed, rel=2 * budget)


def test_tail_norm_monotone_and_limits(gaussian):
    eps_grid = np.logspace(-8, 6, 10)
    hs = [tail_norm_H(gaussian, 2.0, e) for e in eps_grid]
    assert all(a >= b - 1e-15 for a, b in zip(hs, hs[1:]))
    h0 = tail_norm_H(gaussian, 2.0, 0.0)
    assert abs(hs[0] - h0) <= 1e-6 * h0
    # eps -> infinity removes the weight
    d = band_decompose(gaussian, 2.0)
    assert hs[-1] == pytest.approx(lp_norm(d.high, 2), rel=1e-6)


def test_tail_norm_continuity(gaussian):
    # refinement of eps shrinks the increment
    gaps = [abs(tail_norm_H(gaussian, 2.0, 1.0 + de) - tail_norm_H(gaussian, 2.0, 1.0))
            for de in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


def test_mu_slope_fit_gaussians(grid, gaussian):
    fit = mu_slope_fit(gaussian)
    assert fit.mu_hat == pytest.approx(0.25, abs=1e-3)
    assert fit.residual <= 1e-2
    assert fit.certified_mu == pytest.approx(fit.mu_hat / 2)
    wide = make_gaussian(grid, a=0.5)
    assert mu_slope_fit(wide).mu_hat == pytest.approx(0.5, abs=1e-3)


def test_mu_slope_fit_grid_converged(gaussian):
    fine = make_gaussian(UniformGrid.symmetric(2048, 20.0))
    assert mu_slope_fit(fine).mu_hat == pytest.approx(mu_slope_fit(gaussian).mu_hat,
                                                      abs=1e-4)


def test_mu_slope_fit_rejects_zeros():
    fg = FrequencyGrid(n=256, dxi=0.1)
    vals = np.exp(-fg.xi ** 2)
    vals[140] = 0.0  # exact zero inside the default window
    with pytest.raises(ValueError):
        mu_slope_fit(WaveFunction(fg, vals), window=(0.5, 8.0))


def test_bootstrap_smallness_values(gaussian):
    o1, o2 = bootstrap_smallness(gaussian, 2.0)
    assert o2 == pytest.approx(np.exp(2.0) * o1, rel=1e-12)
    o1s = [bootstrap_smallness(gaussian, s)[0] for s in (2.0, 2.5, 3.0)]
    assert o1s[0] > o1s[1] > o1s[2]


def test_bootstrap_smallness_compact_support(grid):
    # spectrum inside |xi| < s kills the middle band exactly
    f = make_band_limited(grid, 0.0, 1.5, "gaussian-bump")
    s = 2.0
    mu = s ** (-4.0)
    o1, _ = bootstrap_smallness(f, s)
    expected = np.exp(2.0) * s ** (-1 / 6) * np.exp(mu * s ** 2 - mu * s ** 4)
    assert o1 == pytest.approx(expected, rel=1e-12)


def test_g_polynomial_scan_self_consistent():
    scan = g_polynomial_scan(2.0, 1.0)

    def g(x):
        return x - x ** 2 - x ** 3 - x ** 4 - x ** 5

    assert 0 < scan.x0 < scan.x_max < scan.x1
    assert g(scan.x0) == pytest.approx(scan.m_sup / 2, abs=1e-10)
    assert g(scan.x1) == pytest.approx(scan.m_sup / 2, abs=1e-10)
    assert g(scan.x_max) == pytest.approx(scan.m_sup, abs=1e-12)


def test_g_polynomial_scan_scaling():
    base = g_polynomial_scan(2.0, 1.0)
    scaled = g_polynomial_scan(2.0 * 3.5, 1.0 * 3.5)
    assert scaled.m_sup == pytest.approx(3.5 * base.m_sup, rel=1e-10)
    assert scaled.x0 == pytest.approx(base.x0, abs=1e-9)
    assert scaled.x1 == pytest.approx(base.x1, abs=1e-9)


def test_g_polynomial_scan_concavity_samples():
    scan = g_polynomial_scan(7.3, 0.2)
    xs = np.linspace(scan.x1 / 1000, scan.x1, 1000)
    second = -0.2 * (2 + 6 * xs + 12 * xs ** 2 + 20 * xs ** 3)
    assert np.all(second < 0)


#: omega = Q(f, .., f) / ||f||_2^2 of e^{-x^2} in closed form, about 706.72
GAUSSIAN_OMEGA = KAPPA * gaussian_l6_sixth_exact / np.sqrt(np.pi / 2)
#: observed 3.44e-15 (|G'(x_max)| / (omega / 2), worst case below)
SCAN_SLOPE_BOUND = 3.5e-13
#: observed 8.29e-15 (|G(x_i) - M/2| / M, worst case below)
SCAN_LEVEL_BOUND = 8.3e-13


@pytest.mark.parametrize("omega, c", [(2.0, 1.0), (7.3, 0.2), (GAUSSIAN_OMEGA, 1.0),
                                      (GAUSSIAN_OMEGA, 10.0), (GAUSSIAN_OMEGA, 100.0)])
def test_g_polynomial_scan_roots_to_rounding(omega, c):
    # 100x the residuals of the root-based scan; a search stopped at a
    # bracket width leaves far larger ones
    scan = g_polynomial_scan(omega, c)
    g = Polynomial([0.0, 0.5 * omega, -c, -c, -c, -c])
    assert abs(g.deriv()(scan.x_max)) <= SCAN_SLOPE_BOUND * 0.5 * omega
    assert scan.m_sup == pytest.approx(g(scan.x_max), rel=1e-15)
    for x in (scan.x0, scan.x1):
        assert abs(g(x) - 0.5 * scan.m_sup) <= SCAN_LEVEL_BOUND * scan.m_sup


def test_g_polynomial_scan_domain_error():
    with pytest.raises(ValueError):
        g_polynomial_scan(0.0, 1.0)
    with pytest.raises(ValueError):
        g_polynomial_scan(1.0, -2.0)


def test_analytic_extension_probe_gaussian(gaussian):
    values, crs = analytic_extension_probe(gaussian, [1j, 0.5 + 0.2j])
    assert values[0] == pytest.approx(np.e, abs=1e-8)
    z = 0.5 + 0.2j
    assert values[1] == pytest.approx(np.exp(-z ** 2), abs=1e-8)
    assert np.all(crs <= 1e-6)


def test_analytic_extension_probe_real_axis(grid, gaussian):
    pts = np.array([0.3, -1.2, 2.7])
    values, _ = analytic_extension_probe(gaussian, pts.astype(complex))
    np.testing.assert_allclose(values.real, sample_offgrid(gaussian, pts).real, atol=1e-8)
    np.testing.assert_allclose(values.imag, 0.0, atol=1e-8)


def test_analytic_extension_probe_many_points(gaussian, rng):
    zs = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-0.9, 0.9, 20)
    values, crs = analytic_extension_probe(gaussian, zs)
    np.testing.assert_allclose(values, np.exp(-zs ** 2), atol=1e-7)
    assert np.all(crs <= 1e-6)


def test_analytic_extension_probe_precondition(gaussian):
    with pytest.raises(ValueError):
        analytic_extension_probe(gaussian, [4j])


def _weighted_tail_chain(grid, f, s=2.0, eps=1.0):
    """Both sides of the bootstrap inequality chain at one (s, eps) pair:
    |Q(g~, f, .., f)| with ghat~ = e^{2F} fhat 1_{|xi| >= s^2}, against
    M_F(h_>, h, .., h) with h = e^F fhat."""
    import warnings

    from strichartz_lab.lattice import inverse_transform
    from strichartz_lab.sextic_form import WeightParams, m_weighted, q_spacetime, weight

    f = WaveFunction(grid, f.values / lp_norm(f, 2))
    w = WeightParams(s ** (-4.0), eps)
    fhat = forward_transform(f)
    xi = fhat.grid.xi
    F = weight(xi, w)
    mask = np.abs(xi) >= s * s
    h = WaveFunction(fhat.grid, np.exp(F) * fhat.values)
    h_gt = WaveFunction(fhat.grid, np.where(mask, h.values, 0.0))
    g_tilde = inverse_transform(
        WaveFunction(fhat.grid, np.exp(2 * F) * np.where(mask, fhat.values, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # hard tail cut trips the band check
        lhs = abs(q_spacetime(g_tilde, f, f, f, f, f))
        rhs = m_weighted(h_gt, h, h, h, h, h, w, n_outer=48, n_phi=48)
    tail_sq = float(fhat.grid.dxi * np.sum(np.abs(h_gt.values) ** 2))
    return lhs, rhs, tail_sq


def test_bootstrap_inequality_chain_saturates_for_gaussian(grid, gaussian):
    from strichartz_lab.extremizer import omega_of

    lhs, rhs, tail_sq = _weighted_tail_chain(grid, gaussian)
    # Euler-Lagrange identity: Q(g~, f, ..) = omega ||e^F fhat_>||^2 / 2pi
    # (the 2 pi is the Plancherel constant of the nonunitary conventions)
    unit = WaveFunction(grid, gaussian.values / lp_norm(gaussian, 2))
    omega = omega_of(unit)
    assert lhs == pytest.approx(omega * tail_sq / (2 * np.pi), rel=1e-6)
    # log-quadratic phases cancel on the constraint set, so the triangle
    # inequality saturates; the hard band edge costs the quadrature an
    # edge-cell budget of order dxi / band-decay-scale
    assert lhs == pytest.approx(rhs, rel=0.3)


#: m_weighted(h_gt, h, .., h) of _weighted_tail_chain on the Gaussian at
#: commit 3204666, whose quadrature evaluated the splines point by point
TAIL_CHAIN_M_GAUSSIAN = 0.024797993668923764


def test_weighted_tail_chain_matches_recorded_value(grid, gaussian):
    _, rhs, _ = _weighted_tail_chain(grid, gaussian)
    assert rhs == pytest.approx(TAIL_CHAIN_M_GAUSSIAN, rel=1e-13, abs=0.0)


def test_bootstrap_inequality_chain_strict_for_generic_profile(grid):
    # seeded profile whose phase cancellation is far above the edge-cell
    # quadrature budget, so the <= direction is tested with a real margin
    from conftest import random_band_limited

    f = random_band_limited(grid, np.random.default_rng(5))
    lhs, rhs, _ = _weighted_tail_chain(grid, f)
    assert lhs <= rhs
    assert lhs <= 0.75 * rhs
