import math
import sys
import threading
from itertools import permutations

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
    make_gaussian,
)
from strichartz_lab import sextic_form
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
    _support_panels,
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
    # swaps inside the outer tensor slots are exact
    swapped_123 = q_quadrature(f[1], f[0], f[2], f[3], f[4], f[5])
    assert abs(base - swapped_123) <= 1e-12 * abs(base)
    # the circle rule maps its nodes onto themselves under the rotation by
    # 2 pi / 3 and the reflection that permute the inner slots, so every order
    # of slots 4-6 sums the same terms, in another order (the Gauss-Legendre
    # rule in one angle spread them by 2.4e-9)
    for order in permutations(f[3:]):
        assert abs(q_quadrature(*f[:3], *order) - base) <= 1e-13 * abs(base), order


def test_m_weighted_symmetric_in_the_inner_slots(grid, rng):
    h = [forward_transform(random_band_limited(grid, rng)) for _ in range(6)]
    w = WeightParams(0.05, 0.2)
    base = m_weighted(*h, w, n_outer=24, n_phi=24)
    # three distinct inner inputs (the Gauss-Legendre rule spread them by 3.1e-4)
    for order in permutations(h[3:]):
        assert abs(m_weighted(*h[:3], *order, w, n_outer=24, n_phi=24) - base) <= 1e-13 * base


def _lookup_points(monkeypatch, fields, n):
    """q_quadrature(fields, n, n) and the number of points it looks up."""
    points = []

    def counting(grid, pts, out=None):
        points.append(np.size(pts))  # one append per lookup, safe from any thread
        return _cells(grid, pts, out)

    monkeypatch.setattr(sextic_form, "_cells", counting)
    return q_quadrature(*fields, n, n), sum(points)


def test_quadrature_circle_once_per_orbit(grid, rng, monkeypatch):
    # each of the three outer slots looks up its 9 nodes; each node triple
    # looks up the 5 points its 9-point circle rule reads, in all three inner
    # slots
    g = make_gaussian(grid)
    _, points = _lookup_points(monkeypatch, [g] * 6, 9)
    assert points == 3 * 9 + math.comb(11, 3) * 5     # sorted triples, not 9^3
    f = random_band_limited(grid, rng)
    values = []
    for odd in range(3):
        outer = [f] * 3
        outer[odd] = g
        q, points = _lookup_points(monkeypatch, outer + [g] * 3, 9)
        assert points == 3 * 9 + (9 * math.comb(10, 2)) * 5   # one sorted pair
        values.append(q)
    assert max(abs(q - values[0]) for q in values) <= 1e-13 * abs(values[0])


def test_threads_calling_q_quadrature_match_sequential_calls(grid):
    rng = np.random.default_rng(7)
    sextuples = [[random_band_limited(grid, rng) for _ in range(6)] for _ in range(2)]
    expected = [q_quadrature(*s, 16, 24) for s in sextuples]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            start, got = threading.Barrier(len(sextuples)), {}

            def worker(k):
                start.wait()
                got[k] = q_quadrature(*sextuples[k], 16, 24)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(sextuples))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [got.get(k) for k in range(len(sextuples))] == expected
    finally:
        sys.setswitchinterval(interval)


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
    m0 = m_weighted(g, g, g, g, g, g, WeightParams(0.0, 0.0), n_outer=32, n_phi=33)
    m0_eps = m_weighted(g, g, g, g, g, g, WeightParams(0.0, 5.0), n_outer=32, n_phi=33)
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


def test_m_weighted_finite_where_the_outer_weight_overflows(grid):
    # F(xi) = xi^2 reaches 4800 on this spectrum, so e^{F(eta_1)} alone
    # overflows; the whole exponent is <= 0 on the constraint set
    h = forward_transform(make_gaussian(grid, a=40.0))
    m = m_weighted(h, h, h, h, h, h, WeightParams(1.0, 0.0), n_outer=8, n_phi=9)
    m0 = m_weighted(h, h, h, h, h, h, WeightParams(0.0, 0.0), n_outer=8, n_phi=9)
    assert 0 < m < m0


@pytest.mark.parametrize("n_phi, match", [(8, "n_phi must be a multiple of 3, got 8"),
                                           (47, "n_phi must be a multiple of 3, got 47"),
                                           (-3, "n_phi needs at least one node, got -3")])
def test_circle_rule_needs_a_positive_multiple_of_three(gaussian, n_phi, match):
    # the rotation by 2 pi / 3 between the inner slots maps nodes onto nodes
    # only when 3 divides n_phi
    with pytest.raises(ValueError, match=match):
        q_quadrature(*[gaussian] * 6, n_phi=n_phi)


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
        m_weighted(g, g, g, g, g, other, WeightParams(0.0, 0.0), n_outer=8, n_phi=9)


def test_support_panels_merge_split_and_zero(grid):
    dual = grid.dual()
    xi, pad = dual.xi, 3.0 * dual.dxi

    def panels(*bands):
        vals = np.zeros(dual.n, dtype=complex)
        for lo, hi in bands:
            vals[lo:hi + 1] = 1.0
        return _support_panels(WaveFunction(dual, vals))

    # runs closer than three pads (15 cells between starts here) share one panel
    assert panels((500, 510), (516, 520)) == [(xi[500] - pad, xi[520] + pad)]
    assert panels((300, 310), (700, 710)) == [(xi[300] - pad, xi[310] + pad),
                                              (xi[700] - pad, xi[710] + pad)]
    assert panels() == [(-pad, pad)]
