import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from strichartz_lab.decay import band_decompose
from strichartz_lab.lattice import (
    AliasingWarning,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    make_gaussian,
)
from strichartz_lab.propagator import gaussian_l6_sixth_exact
from strichartz_lab.sextic_form import (
    KAPPA,
    WeightParams,
    calibrate_kappa,
    m_weighted,
    q_quadrature,
    _cells,
    _hat_spline,
    _interpolate,
    q_spacetime,
    weight,
)

from conftest import random_band_limited

GAUSSIAN_Q_EXACT = KAPPA * gaussian_l6_sixth_exact  # = 2^{3/2} pi^{11/2} / sqrt 3


def test_weight_values():
    assert weight(3.0, WeightParams(mu=0.7, eps=0.0)) == pytest.approx(0.7 * 9.0, rel=1e-15)
    assert weight(2.0, WeightParams(mu=0.5, eps=0.25)) == pytest.approx(1.0, rel=1e-15)
    # saturates at mu / eps
    assert weight(1e9, WeightParams(mu=1.0, eps=1.0)) == pytest.approx(1.0, rel=1e-9)
    xi = np.linspace(0, 50, 200)
    vals = weight(xi, WeightParams(mu=0.3, eps=0.1))
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(ValueError):
        WeightParams(mu=-1.0, eps=0.0)


def test_q_spacetime_gaussian_closed_form(gaussian, tq):
    q = q_spacetime(gaussian, gaussian, gaussian, gaussian, gaussian, gaussian, tq)
    assert abs(q.imag) <= 1e-9 * abs(q.real)
    assert q.real == pytest.approx(GAUSSIAN_Q_EXACT, rel=1e-6)


def test_q_spacetime_zero_factor(grid, gaussian, tq):
    zero = WaveFunction(grid, np.zeros(grid.n))
    q = q_spacetime(gaussian, gaussian, zero, gaussian, gaussian, gaussian, tq)
    assert q == 0


def test_q_spacetime_diagonal_nonnegative(grid, rng, tq):
    f = random_band_limited(grid, rng)
    q = q_spacetime(f, f, f, f, f, f, tq)
    assert abs(q.imag) <= 1e-10 * abs(q.real)
    assert q.real >= 0
    # one object in all six slots is evolved once; six copies six times
    copies = [f.copy() for _ in range(6)]
    assert abs(q - q_spacetime(*copies, tq)) <= 1e-15 * abs(q)


def test_kappa_calibration(grid, tq):
    inputs = [
        make_gaussian(grid),
        make_gaussian(grid, a=0.5, b=0.3),
        make_gaussian(grid, a=1.3 + 0.2j, b=1.0 + 0.5j),
    ]
    ratios, spread = calibrate_kappa(inputs, tq)
    assert spread <= 1e-3
    assert np.abs(ratios / KAPPA - 1.0).max() <= 1e-3


def test_oracle_equivalence_gaussian(gaussian, tq):
    qs = q_spacetime(gaussian, gaussian, gaussian, gaussian, gaussian, gaussian, tq)
    qq = q_quadrature(gaussian, gaussian, gaussian, gaussian, gaussian, gaussian)
    assert abs(qs - qq) / abs(qs) <= 1e-2


def test_oracle_equivalence_random(grid, rng, tq):
    for _ in range(3):
        sextet = [random_band_limited(grid, rng) for _ in range(6)]
        qs = q_spacetime(*sextet, tq)
        qq = q_quadrature(*sextet)
        assert abs(qs - qq) / abs(qs) <= 2e-2


def test_multilinearity(grid, rng, tq):
    f = [random_band_limited(grid, rng) for _ in range(7)]
    a, b = 0.7 - 0.4j, -1.1 + 0.2j
    combo = WaveFunction(grid, a * f[3].values + b * f[6].values)
    # linear in slot 4
    lhs = q_spacetime(f[0], f[1], f[2], combo, f[4], f[5], tq)
    rhs = (a * q_spacetime(f[0], f[1], f[2], f[3], f[4], f[5], tq)
           + b * q_spacetime(f[0], f[1], f[2], f[6], f[4], f[5], tq))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    # conjugate linear in slot 1
    combo1 = WaveFunction(grid, a * f[0].values + b * f[6].values)
    lhs = q_spacetime(combo1, f[1], f[2], f[3], f[4], f[5], tq)
    rhs = (np.conj(a) * q_spacetime(f[0], f[1], f[2], f[3], f[4], f[5], tq)
           + np.conj(b) * q_spacetime(f[6], f[1], f[2], f[3], f[4], f[5], tq))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_permutation_symmetry_spacetime(grid, rng, tq):
    f = [random_band_limited(grid, rng) for _ in range(6)]
    base = q_spacetime(*f, tq)
    swapped_123 = q_spacetime(f[2], f[0], f[1], f[3], f[4], f[5], tq)
    swapped_456 = q_spacetime(f[0], f[1], f[2], f[5], f[3], f[4], tq)
    assert abs(base - swapped_123) <= 1e-10 * abs(base)
    assert abs(base - swapped_456) <= 1e-10 * abs(base)


def test_permutation_symmetry_quadrature(grid, rng):
    f = [random_band_limited(grid, rng) for _ in range(6)]
    base = q_quadrature(*f)
    # swaps inside the outer tensor slots and inside the root pair are exact
    swapped_123 = q_quadrature(f[1], f[0], f[2], f[3], f[4], f[5])
    swapped_56 = q_quadrature(f[0], f[1], f[2], f[3], f[5], f[4])
    assert abs(base - swapped_123) <= 1e-12 * abs(base)
    assert abs(base - swapped_56) <= 1e-12 * abs(base)
    # slot 4 plays the angular role; swapping it across the pair is exact only
    # in the continuum, so agreement is at quadrature accuracy
    swapped_45 = q_quadrature(f[0], f[1], f[2], f[4], f[3], f[5])
    assert abs(base - swapped_45) <= 1e-2 * abs(base)


def sampled_constraint_points(rng, n=2000):
    x1 = rng.uniform(-8, 8, n)
    x2 = rng.uniform(-8, 8, n)
    x3 = rng.uniform(-8, 8, n)
    phi = rng.uniform(-np.pi / 2, np.pi / 2, n)
    sigma = x1 + x2 + x3
    tau = x1 ** 2 + x2 ** 2 + x3 ** 2
    h = np.sqrt(np.maximum(2 * tau - 2 * sigma ** 2 / 3, 0.0) / 3)
    xi4 = sigma / 3 + h * np.sin(phi)
    half_gap = 0.5 * np.sqrt(3) * h * np.cos(phi)
    mid = 0.5 * (sigma - xi4)
    return x1, x2, x3, xi4, mid + half_gap, mid - half_gap


def test_constraint_support_inequality(rng):
    e1, e2, e3, e4, e5, e6 = sampled_constraint_points(rng)
    rest = e2 ** 2 + e3 ** 2 + e4 ** 2 + e5 ** 2 + e6 ** 2
    assert np.all(e1 ** 2 <= rest * (1 + 1e-12) + 1e-12)
    # hence the bootstrap weight never exceeds one on the constraint set
    w = WeightParams(mu=0.05, eps=0.3)
    exponent = weight(e1, w) - (weight(e2, w) + weight(e3, w) + weight(e4, w)
                                + weight(e5, w) + weight(e6, w))
    assert np.all(exponent <= 1e-12)


def test_m_weighted_mu_zero_is_unweighted(grid):
    g = forward_transform(make_gaussian(grid))
    m0 = m_weighted(g, g, g, g, g, g, WeightParams(0.0, 0.0), n_outer=32, n_phi=32)
    m0_eps = m_weighted(g, g, g, g, g, g, WeightParams(0.0, 5.0), n_outer=32, n_phi=32)
    assert m0 == pytest.approx(m0_eps, rel=1e-12)
    # unweighted absolute form of the Gaussian equals the closed-form value
    assert m0 == pytest.approx(GAUSSIAN_Q_EXACT, rel=1e-3)


def test_m_weighted_bounded_by_unweighted(grid, rng):
    h = forward_transform(random_band_limited(grid, rng))
    m0 = m_weighted(h, h, h, h, h, h, WeightParams(0.0, 0.0), n_outer=24, n_phi=24)
    mf = m_weighted(h, h, h, h, h, h, WeightParams(0.05, 0.2), n_outer=24, n_phi=24)
    assert mf <= m0 * (1 + 1e-10)


def test_m_weighted_monotone_in_eps(grid):
    # the weight exponent rises pointwise to 0 as eps grows, so the weighted
    # form increases toward the unweighted limit
    g = forward_transform(make_gaussian(grid))
    vals = [m_weighted(g, g, g, g, g, g, WeightParams(0.01, eps), n_outer=24, n_phi=24)
            for eps in (0.01, 0.1, 1.0, 10.0, 1000.0)]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
    assert all(v > 0 and np.isfinite(v) for v in vals)


def test_m_weighted_requires_frequency_grid(gaussian):
    with pytest.raises(Exception):
        m_weighted(gaussian, gaussian, gaussian, gaussian, gaussian, gaussian,
                   WeightParams(0.0, 0.0))


def test_q_spacetime_aliasing_warning_names_the_caller(grid):
    narrow = make_gaussian(grid, a=40.0)
    with pytest.warns(AliasingWarning, match="q_spacetime") as record:
        q_spacetime(narrow, narrow, narrow, narrow, narrow, narrow)
    assert {w.filename for w in record} == {__file__}


@pytest.mark.parametrize("piece", ["smooth", "banded"])
def test_hat_spline_table_matches_bspline(grid, piece):
    rng = np.random.default_rng(17)
    fhat = forward_transform(random_band_limited(grid, rng))
    if piece == "banded":
        fhat = band_decompose(fhat, 2.0).middle
    table, _ = _hat_spline(fhat)
    xi = fhat.grid.xi
    pts = rng.uniform(xi[0], xi[-1], 10_000)
    vals = _interpolate(table, _cells(fhat.grid, pts))
    ref = make_interp_spline(xi, fhat.values, k=5)(pts)
    cell = np.floor((pts - xi[0]) / fhat.grid.dxi).astype(int)
    live = (fhat.values[cell] != 0) & (fhat.values[cell + 1] != 0)
    assert np.abs(vals - ref)[live].max() <= 1e-13 * np.abs(fhat.values).max()
    assert np.all(vals[~live] == 0)
    assert live.all() if piece == "smooth" else 0 < live.sum() < live.size
    outside = np.concatenate([xi[0] - rng.uniform(0, 50, 100), xi[-1] + rng.uniform(0, 50, 100)])
    assert np.all(_interpolate(table, _cells(fhat.grid, outside)) == 0)


def test_quadrature_slot_reuse_equals_copies(grid, rng):
    f = random_band_limited(grid, rng)
    copies = [f.copy() for _ in range(6)]
    assert q_quadrature(f, f, f, f, f, f, 24, 24) == q_quadrature(*copies, 24, 24)
    h = forward_transform(f)
    h_gt = band_decompose(h, 2.0).high
    w = WeightParams(0.0625, 1.0)
    hs = [h.copy() for _ in range(5)]
    assert (m_weighted(h_gt, h, h, h, h, h, w, n_outer=24, n_phi=24)
            == m_weighted(h_gt, *hs, w, n_outer=24, n_phi=24))


def test_m_weighted_requires_one_grid(grid):
    g = forward_transform(make_gaussian(grid))
    other = forward_transform(make_gaussian(UniformGrid.symmetric(n=512, half_width=20.0)))
    with pytest.raises(GridMismatchError):
        m_weighted(g, g, g, g, g, other, WeightParams(0.0, 0.0), n_outer=8, n_phi=8)
