import numpy as np
import pytest

from strichartz_lab.lattice import (
    AliasingWarning,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    make_gaussian,
)
from strichartz_lab.propagator import (
    TimeQuadrature,
    _inverse_fourier_profile,
    default_time_quadrature,
    evolve,
    evolve_range,
    fourier_symmetry_check,
    gaussian_l6_sixth_exact,
    save_spacetime_field,
    sharp_ratio_exact,
    spacetime_lp,
    strichartz_ratio,
    switch_time,
)

from conftest import random_band_limited


def gaussian_flow(x, t):
    # closed form of the width-one Gaussian under the e^{+it xi^2} multiplier
    return (1 - 4j * t) ** -0.5 * np.exp(-x ** 2 / (1 - 4j * t))


def test_time_quadrature_invariants():
    tq = TimeQuadrature.compactified(257)
    assert np.all(np.diff(tq.nodes) > 0)
    assert np.all(tq.weights > 0)
    # integrates (1+16t^2)^{-1} over R exactly: the integrand is constant in theta
    val = np.sum(tq.weights / (1 + 16 * tq.nodes ** 2))
    assert val == pytest.approx(np.pi / 4, rel=1e-14)
    with pytest.raises(ValueError):
        TimeQuadrature(nodes=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeQuadrature(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]))


def test_time_quadrature_hashable():
    a = TimeQuadrature.compactified(33)
    b = TimeQuadrature.compactified(33)
    assert a == b and hash(a) == hash(b)
    assert {a: "rule"}[b] == "rule"
    assert hash(default_time_quadrature()) == hash(TimeQuadrature.compactified(257))
    # -0.0 and 0.0 nodes compare equal, so they must hash equal
    neg = TimeQuadrature(nodes=np.array([-0.0, 1.0]), weights=np.array([1.0, 1.0]))
    pos = TimeQuadrature(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))
    assert neg == pos and hash(neg) == hash(pos)
    assert a != TimeQuadrature.truncated(33, 1.0)


def test_evolve_identity_at_zero(gaussian):
    u = evolve(gaussian, 0.0)
    np.testing.assert_allclose(u.values, gaussian.values, atol=1e-14)


def test_evolve_gaussian_closed_form(grid, gaussian):
    u = evolve(gaussian, 0.5)
    np.testing.assert_allclose(u.values, gaussian_flow(grid.x, 0.5), atol=1e-9)


def test_evolve_group_law(grid, rng):
    f = random_band_limited(grid, rng)
    u = evolve(evolve(f, 0.2), 0.15)
    v = evolve(f, 0.35)
    err = lp_norm(WaveFunction(grid, u.values - v.values), 2) / lp_norm(f, 2)
    assert err <= 1e-12


def test_evolve_unitary(grid, rng):
    f = random_band_limited(grid, rng)
    base = lp_norm(f, 2)
    for t in (0.1, 0.5, 2.0):
        assert lp_norm(evolve(f, t), 2) == pytest.approx(base, rel=1e-12)


def test_evolve_aliasing_warning(grid):
    spiky = np.zeros(grid.n, dtype=complex)
    spiky[::2] = 1.0  # loads the top of the band
    with pytest.warns(AliasingWarning):
        evolve(WaveFunction(grid, spiky), 0.1)


def test_evolve_range_single_node(gaussian):
    field = evolve_range(gaussian, TimeQuadrature.single(0.0), switch=np.inf)
    np.testing.assert_allclose(field.values[0], gaussian.values, atol=1e-14)
    assert spacetime_lp(field, 6) == pytest.approx(lp_norm(gaussian, 6), rel=1e-12)


def test_evolve_range_gaussian_rows(grid, gaussian):
    tq = TimeQuadrature.truncated(33, 0.4)  # below the wrap horizon
    field = evolve_range(gaussian, tq, switch=np.inf)
    assert not field.row_factored.any()
    for k, t in enumerate(tq.nodes):
        np.testing.assert_allclose(field.values[k], gaussian_flow(grid.x, t), atol=1e-9)
        assert grid.dx * np.sum(np.abs(field.values[k]) ** 2) == pytest.approx(
            lp_norm(gaussian, 2) ** 2, rel=1e-12)


def test_evolve_range_ragged_blocks():
    # 4 rows per block at n = 16384, so 9 nodes leave a one-row block in
    # the direct run; rows must not depend on how the nodes are blocked
    grid = UniformGrid.symmetric(n=16384, half_width=80.0)
    f = make_gaussian(grid, a=1.0, b=0.5j)
    tq = TimeQuadrature.compactified(9)
    for switch in (np.inf, 0.5):
        field = evolve_range(f, tq, switch=switch)
        assert field.row_factored.sum() == (0 if switch == np.inf else 4)
        for k, t in enumerate(tq.nodes):
            single = evolve_range(f, TimeQuadrature.single(t), switch=switch)
            np.testing.assert_allclose(field.values[k], single.values[0], rtol=0, atol=1e-15)
            if not field.row_factored[k]:
                np.testing.assert_allclose(field.values[k], evolve(f, t).values,
                                           rtol=0, atol=1e-15)


def test_factored_rows_reconstruct_direct_samples(grid, gaussian, tq):
    field = evolve_range(gaussian, tq)
    assert field.row_factored.any() and (~field.row_factored).any()
    k = int(np.argmax(field.row_factored))  # most negative factored time
    t = field.times.nodes[k]
    row = field.direct_row(k)
    np.testing.assert_allclose(row, gaussian_flow(grid.x, t), atol=1e-7)


def test_spacetime_l6_gaussian_value(gaussian, tq):
    field = evolve_range(gaussian, tq)
    val = spacetime_lp(field, 6) ** 6
    assert val == pytest.approx(gaussian_l6_sixth_exact, rel=1e-4)


def test_spacetime_lp_time_translation_invariance(gaussian, tq):
    before = spacetime_lp(evolve_range(gaussian, tq), 6)
    after = spacetime_lp(evolve_range(evolve(gaussian, 0.3), tq), 6)
    assert after == pytest.approx(before, rel=1e-6)


def test_spacetime_lp_domain_error(gaussian, tq):
    field = evolve_range(gaussian, TimeQuadrature.single(0.0), switch=np.inf)
    with pytest.raises(ValueError):
        spacetime_lp(field, 0.5)


def test_strichartz_ratio_gaussian(gaussian):
    assert strichartz_ratio(gaussian) == pytest.approx(sharp_ratio_exact, abs=1e-3)


def test_strichartz_ratio_invariances(grid, gaussian):
    base = strichartz_ratio(gaussian)
    assert strichartz_ratio(make_gaussian(grid, a=4.0)) == pytest.approx(base, abs=1e-4)
    assert strichartz_ratio(make_gaussian(grid, b=2.0)) == pytest.approx(base, abs=1e-4)
    modulated = WaveFunction(grid, np.exp(3j * grid.x) * gaussian.values)
    assert strichartz_ratio(modulated) == pytest.approx(base, abs=1e-4)
    scaled = WaveFunction(grid, 2.7 * gaussian.values)
    assert strichartz_ratio(scaled) == pytest.approx(base, abs=1e-4)


def test_strichartz_ratio_indicator_below_sharp(grid):
    indicator = WaveFunction(grid, (np.abs(grid.x) <= 1.0).astype(complex))
    with pytest.warns(AliasingWarning):
        ratio = strichartz_ratio(indicator)
    assert ratio < sharp_ratio_exact - 0.01


def test_strichartz_ratio_upper_bound(grid, rng):
    profiles = [
        make_gaussian(grid),
        make_gaussian(grid, a=0.3, b=1.0 + 0.5j),
        WaveFunction(grid, (1 + 0.4 * grid.x ** 2) * np.exp(-grid.x ** 2 / 2)),
        random_band_limited(grid, rng),
        random_band_limited(grid, rng),
    ]
    for f in profiles:
        assert strichartz_ratio(f) <= sharp_ratio_exact + 2e-3


def test_strichartz_ratio_zero_input(grid):
    with pytest.raises(ValueError):
        strichartz_ratio(WaveFunction(grid, np.zeros(grid.n)))


def test_switch_time_overlap(grid, gaussian):
    t_switch = switch_time(gaussian)
    assert 0.05 < t_switch < 0.6


def test_band_edge_input_has_no_crossover(band_edge):
    with pytest.raises(ValueError, match="band edge"):
        switch_time(band_edge)
    with pytest.warns(AliasingWarning), pytest.raises(ValueError, match="band edge"):
        strichartz_ratio(band_edge)


def test_fourier_symmetry_constant_across_inputs(grid, gaussian):
    res_g = fourier_symmetry_check(gaussian)
    hermite = WaveFunction(grid, (1 + 0.3 * grid.x + 0.2 * grid.x ** 2)
                           * np.exp(-grid.x ** 2 / 2))
    res_h = fourier_symmetry_check(hermite)
    assert res_g.fitted_c == pytest.approx(res_h.fitted_c, rel=1e-3)
    # under these conventions the constant comes out at sqrt(2 pi)
    assert res_g.fitted_c == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)


def test_fourier_symmetry_real_even(grid):
    f = make_gaussian(grid, a=0.7)
    res = fourier_symmetry_check(f)
    assert np.isfinite(res.ratio_finv) and res.ratio_finv > 0
    assert res.ratio_f == pytest.approx(res.ratio_finv, rel=1e-9)


def test_fourier_symmetry_involution(gaussian):
    res1 = fourier_symmetry_check(gaussian)
    res2 = fourier_symmetry_check(_inverse_fourier_profile(gaussian))
    assert res1.fitted_c == pytest.approx(res2.fitted_c, rel=1e-9)


def test_spacetime_field_csv(tmp_path, gaussian):
    field = evolve_range(gaussian, TimeQuadrature.truncated(3, 0.2), switch=np.inf)
    path = tmp_path / "field.csv"
    save_spacetime_field(field, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# spacetime-field")
    assert lines[1] == "t,x,re,im"
    assert len(lines) == 2 + 3 * gaussian.grid.n
