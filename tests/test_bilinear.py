import numpy as np
import pytest

from strichartz_lab.bilinear import (
    bilinear_l3,
    hausdorff_young_density,
    make_band_limited,
    pair_time_quadrature,
    save_sweep,
    separation_sweep,
    sweep_grid,
)
from strichartz_lab.lattice import (
    AliasingWarning,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    make_gaussian,
)
from strichartz_lab.propagator import (
    FlowPlan,
    TimeQuadrature,
    _gauge_crossover,
    default_time_quadrature,
    strichartz_ratio,
    switch_time,
)

#: separation_sweep(1.0, [8, 16, 32], profile="random", seed=1).values at
#: commit 1251166, whose sweep used a band-top switch of its own
SWEEP_RANDOM_VALUES = tuple(map(float.fromhex, (
    "0x1.3d35de74fe9c6p-4", "0x1.ed59ebe2b4713p-5", "0x1.87a4cf6cfe71cp-5")))

#: separation_sweep(pi / 8, [1, 4, 8], profile="flat"): values, the bounds at
#: N = 4 and 8, and the slope at commit 7a2895f, whose N = 1 band took an
#: annulus branch of its own
SWEEP_TOUCHING_VALUES = tuple(map(float.fromhex, (
    "0x1.89a2a6cd61a3ap-2", "0x1.1c4a65ed9a984p-2", "0x1.e5297bdd9411ap-3")))
SWEEP_TOUCHING_BOUNDS = tuple(map(float.fromhex, (
    "0x1.f149e3ecb2750p-2", "0x1.b8ffdb62de05cp-2")))
SWEEP_TOUCHING_SLOPE = float.fromhex("-0x1.d4c96a35b5c69p-3")


def _l3_switched(h1, h2, tq, switch):
    """bilinear_l3(h1, h2, tq) with the gauge crossover at switch."""
    return FlowPlan(h1.grid, tq).integral([h1, h2], switch, power=3.0).real ** (1.0 / 3.0)


def test_make_band_limited_band_errors(grid):
    for lo, hi in [(2.0, 2.0), (5.0, 2.0), (-1.0, 2.0)]:
        with pytest.raises(ValueError, match="0 <= lo < hi"):
            make_band_limited(grid, lo, hi)


def test_make_band_limited_low_flat(grid):
    f = make_band_limited(grid, 0.0, 1.0, "flat")
    assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
    fhat = forward_transform(f)
    outside = np.abs(fhat.grid.xi) > 1.0
    assert np.abs(fhat.values[outside]).max() <= 1e-12


def test_make_band_limited_high_support(grid):
    f = make_band_limited(grid, 16.0, 32.0, "flat")
    fhat = forward_transform(f)
    xi = np.abs(fhat.grid.xi)
    outside = (xi < 16.0) | (xi > 32.0)
    assert np.abs(fhat.values[outside]).max() <= 1e-12


def test_make_band_limited_seed_reproducible(grid):
    a = make_band_limited(grid, 0.0, 2.0, "random", seed=7)
    b = make_band_limited(grid, 0.0, 2.0, "random", seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = make_band_limited(grid, 0.0, 2.0, "random", seed=8)
    assert not np.array_equal(a.values, c.values)


def test_make_band_limited_nyquist_error(grid):
    with pytest.raises(ValueError):
        make_band_limited(grid, 64.0, 128.0, "flat")


def test_bilinear_gaussian_no_separation(grid, tq):
    f = make_gaussian(grid)
    val = bilinear_l3(f, f, tq)
    l6 = strichartz_ratio(f, tq) * lp_norm(f, 2)
    assert val == pytest.approx(l6 ** 2, rel=1e-10)
    assert val == pytest.approx(0.8281, abs=2e-3)


def test_bilinear_zero_input(grid, unit_gaussian, tq):
    zero = WaveFunction(grid, np.zeros(grid.n))
    assert bilinear_l3(unit_gaussian, zero, tq) == 0.0


def test_bilinear_separated_under_bound():
    g = sweep_grid(16, 1.0)
    h1 = make_band_limited(g, 0.0, 1.0, "flat")
    h2 = make_band_limited(g, 16.0, 32.0, "flat")
    val = bilinear_l3(h1, h2, pair_time_quadrature(16, 1.0))
    bound = hausdorff_young_density(h1, h2)
    assert val <= bound
    # the bound itself scales like N^{-1/6} with an order-one constant
    assert val <= 1.0 * 16 ** (-1 / 6)


def test_bilinear_galilean_invariance():
    # smooth in-band profiles: hard-edged bands shed slowly decaying tails
    # whose box truncation is not translation invariant
    g = sweep_grid(8, 1.0)
    dual = g.dual()
    xi = dual.xi
    from strichartz_lab.lattice import inverse_transform

    def profile(center, width):
        h = inverse_transform(WaveFunction(dual, np.exp(-((xi - center) / width) ** 2)))
        h.values /= lp_norm(h, 2)
        return h

    h1 = profile(0.0, 0.4)
    h2 = profile(12.0, 1.5)
    tq = pair_time_quadrature(8, 1.0)
    base = _l3_switched(h1, h2, tq, 0.2)
    b = 1.0
    m1 = WaveFunction(g, np.exp(1j * b * g.x) * h1.values)
    m2 = WaveFunction(g, np.exp(1j * b * g.x) * h2.values)
    moved = _l3_switched(m1, m2, tq, 0.2)
    assert moved == pytest.approx(base, rel=1e-6)


def test_hausdorff_young_swap_symmetry():
    g = sweep_grid(8, 1.0)
    h1 = make_band_limited(g, 0.0, 1.0, "random", seed=3)
    h2 = make_band_limited(g, 8.0, 16.0, "random", seed=4)
    assert hausdorff_young_density(h1, h2) == pytest.approx(
        hausdorff_young_density(h2, h1), rel=1e-12)


def test_hausdorff_young_overlap_error(grid):
    h1 = make_band_limited(grid, 0.0, 2.0, "flat")
    h2 = make_band_limited(grid, 1.0, 3.0, "flat")
    with pytest.raises(ValueError):
        hausdorff_young_density(h1, h2)


def test_hausdorff_young_bounds_smooth_pairs(grid, tq):
    # separated smooth profiles, not just hard bands
    dual = grid.dual()
    low = WaveFunction(dual, np.exp(-dual.xi ** 2) * (np.abs(dual.xi) <= 3.0))
    hi_mask = (np.abs(dual.xi) >= 12.0) & (np.abs(dual.xi) <= 24.0)
    high = WaveFunction(dual, np.exp(-((np.abs(dual.xi) - 18.0) / 3.0) ** 2) * hi_mask)
    from strichartz_lab.lattice import inverse_transform

    h1 = inverse_transform(low)
    h1.values /= lp_norm(h1, 2)
    h2 = inverse_transform(high)
    h2.values /= lp_norm(h2, 2)
    assert bilinear_l3(h1, h2, tq) <= hausdorff_young_density(h1, h2)


def test_separation_sweep_slope_window():
    with pytest.warns(AliasingWarning, match="fills the box"):
        res = separation_sweep(1.0, [4, 8, 16], profile="flat")
    assert -0.30 <= res.slope <= -1 / 6 + 0.05
    assert all(v <= b * (1 + 1e-8) for v, b in zip(res.values, res.bounds))


def test_separation_sweep_width_robustness():
    with pytest.warns(AliasingWarning, match="fills the box"):
        res1 = separation_sweep(1.0, [4, 8, 16], profile="flat")
        res2 = separation_sweep(2.0, [4, 8, 16], profile="flat")
    assert abs(res1.slope - res2.slope) <= 0.03


def test_separation_sweep_excludes_control_point():
    with pytest.warns(AliasingWarning, match="fills the box"):
        res = separation_sweep(1.0, [1, 4, 8], profile="flat")
        res_no_control = separation_sweep(1.0, [4, 8], profile="flat")
    assert len(res.values) == 3  # control point evaluated, not fitted
    assert res.slope == pytest.approx(res_no_control.slope, rel=1e-12)


def test_separation_sweep_touching_control_point():
    # dxi = pi/80 on every sweep grid, so xi = s = pi/8 is a grid sample and
    # the N = 1 bands [0, s] and [s, 2s] share it: no Hausdorff-Young bound
    with pytest.warns(AliasingWarning, match="fills the box"):
        res = separation_sweep(np.pi / 8, [1, 4, 8], profile="flat")
    assert res.values == pytest.approx(SWEEP_TOUCHING_VALUES, rel=1e-15, abs=0.0)
    assert np.isnan(res.bounds[0])
    assert res.bounds[1:] == pytest.approx(SWEEP_TOUCHING_BOUNDS, rel=1e-15, abs=0.0)
    assert res.slope == pytest.approx(SWEEP_TOUCHING_SLOPE, rel=1e-15, abs=0.0)


def test_separation_sweep_clipping_error():
    tiny = UniformGrid.symmetric(64, 10.0)
    with pytest.raises(ValueError):
        make_band_limited(tiny, 16.0, 32.0, "flat")


def test_sweep_csv(tmp_path):
    with pytest.warns(AliasingWarning, match="fills the box"):
        res = separation_sweep(np.float64(1.0), [4, 8], profile="flat")
    path = tmp_path / "sweep.csv"
    save_sweep(res, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# bilinear-sweep s=1.0 ")  # a plain float, not numpy's repr
    assert lines[1] == "N,value,bound,slope_so_far,log10_N,log10_value"
    assert len(lines) == 2 + 2


def test_band_edge_pair_raises(band_edge):
    with pytest.raises(ValueError, match="band edge"):
        bilinear_l3(band_edge, band_edge)


def test_box_filling_pair_switches_past_factored_bound():
    # hard random bands shed tails that fill the box at both mass tails
    g = sweep_grid(16, 1.0)
    h1 = make_band_limited(g, 0.0, 1.0, "random", 1)
    h2 = make_band_limited(g, 16.0, 32.0, "random", 2)
    t_fact, t_direct = _gauge_crossover([h1, h2])[0]
    assert t_direct == 0.0 and np.isfinite(t_fact)
    with pytest.warns(AliasingWarning, match="fills the box"):
        assert switch_time([h1, h2]) == 1.2 * t_fact
    tq = TimeQuadrature.compactified(65, rate=16.0)
    with pytest.warns(AliasingWarning, match="fills the box"):
        value = bilinear_l3(h1, h2, tq)
    assert value == _l3_switched(h1, h2, tq, 1.2 * t_fact)


def test_box_filling_warning_names_the_caller():
    g = sweep_grid(16, 1.0)
    h1 = make_band_limited(g, 0.0, 1.0, "random", 1)
    h2 = make_band_limited(g, 16.0, 32.0, "random", 2)
    with pytest.warns(AliasingWarning, match="fills the box") as record:
        bilinear_l3(h1, h2, TimeQuadrature.compactified(65, rate=16.0))
    assert {w.filename for w in record} == {__file__}


def test_separation_sweep_matches_recorded_values():
    with pytest.warns(AliasingWarning, match="fills the box"):
        res = separation_sweep(1.0, [8, 16, 32], profile="random", seed=1)
    assert res.values == pytest.approx(SWEEP_RANDOM_VALUES, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("call, error, match", [
    # the default grid's frequencies are 2 pi / 40 ~ 0.157 apart
    pytest.param(lambda g: make_band_limited(g, 0.2, 0.3), ValueError, "no grid frequencies",
                 id="band-between-frequencies"),
    pytest.param(lambda g: hausdorff_young_density(
        make_band_limited(g, 0.0, 1.0),
        make_band_limited(UniformGrid.symmetric(g.n, 10.0), 4.0, 8.0)),
        GridMismatchError, "one grid", id="two-grids"),
    pytest.param(lambda g: hausdorff_young_density(
        WaveFunction(g, np.zeros(g.n)), make_band_limited(g, 4.0, 8.0)),
        ValueError, "empty frequency support", id="zero-input"),
    # log2 of N s <= 0 failed with "math domain error", naming neither
    pytest.param(lambda g: separation_sweep(0.0, [4]), ValueError,
                 "s must be positive and finite, got 0.0", id="s-zero"),
    pytest.param(lambda g: separation_sweep(1.0, [0.0, 4]), ValueError,
                 "N must be positive and finite, got 0.0", id="N-zero"),
    pytest.param(lambda g: sweep_grid(-4.0, -1.0), ValueError,
                 "N must be positive and finite, got -4.0", id="N-negative"),
    pytest.param(lambda g: sweep_grid(4.0, np.inf), ValueError,
                 "s must be positive and finite, got inf", id="s-infinite"),
])
def test_bilinear_refuses_empty_bands_and_mixed_grids(grid, call, error, match):
    with pytest.raises(error, match=match):
        call(grid)

