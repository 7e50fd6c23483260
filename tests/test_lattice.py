import numpy as np
import pytest

from strichartz_lab.lattice import (
    FrequencyGrid,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    _fourier_sum,
    forward_transform,
    inner_product,
    inverse_transform,
    load_wavefunction,
    lp_norm,
    make_gaussian,
    sample_offgrid,
    save_wavefunction,
    write_table,
)

from conftest import random_band_limited


def test_grid_invariants():
    g = UniformGrid.symmetric(1024, 20.0)
    assert g.n == 1024 and g.dx > 0 and g.extent == pytest.approx(40.0)
    with pytest.raises(ValueError):
        UniformGrid(n=1000, dx=0.1, x0=0.0)  # not a power of two
    with pytest.raises(ValueError):
        UniformGrid(n=4, dx=0.1, x0=0.0)
    with pytest.raises(ValueError):
        UniformGrid(n=64, dx=-0.1, x0=0.0)
    with pytest.raises(GridMismatchError):
        WaveFunction(g, np.zeros(10))
    with pytest.raises(ValueError):
        WaveFunction(g, np.full(g.n, np.nan))


def test_dual_grid_nyquist(grid):
    dual = grid.dual()
    assert dual.nyquist == pytest.approx(np.pi / grid.dx)
    assert np.abs(dual.xi).max() <= dual.nyquist
    assert dual.spatial() == grid


def test_forward_point_mass(grid):
    # delta-like sample of weight 1 at x = 0 transforms to the constant 1
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.dx  # x = 0 sits at index n/2
    fhat = forward_transform(WaveFunction(grid, vals))
    np.testing.assert_allclose(fhat.values, 1.0, atol=1e-12)


def test_forward_gaussian_closed_form(grid, gaussian):
    fhat = forward_transform(gaussian)
    xi = fhat.grid.xi
    np.testing.assert_allclose(fhat.values, np.sqrt(np.pi) * np.exp(-xi ** 2 / 4),
                               atol=1e-10)


def test_forward_modulation_shift(grid):
    f = WaveFunction(grid, np.exp(2j * grid.x) * np.exp(-grid.x ** 2))
    fhat = forward_transform(f)
    xi = fhat.grid.xi
    np.testing.assert_allclose(fhat.values, np.sqrt(np.pi) * np.exp(-(xi - 2) ** 2 / 4),
                               atol=1e-10)


def test_round_trip_random_band_limited(grid, rng):
    for _ in range(5):
        f = random_band_limited(grid, rng)
        back = inverse_transform(forward_transform(f))
        err = lp_norm(WaveFunction(grid, back.values - f.values), 2) / lp_norm(f, 2)
        assert err <= 1e-12


def test_inverse_gaussian_pair(grid):
    dual = grid.dual()
    ghat = WaveFunction(dual, np.sqrt(np.pi) * np.exp(-dual.xi ** 2 / 4))
    f = inverse_transform(ghat)
    np.testing.assert_allclose(f.values, np.exp(-grid.x ** 2), atol=1e-10)


def test_inverse_zero(grid):
    dual = grid.dual()
    f = inverse_transform(WaveFunction(dual, np.zeros(grid.n)))
    assert np.all(f.values == 0)


def test_round_trip_off_center_grid():
    g = UniformGrid(n=512, dx=0.05, x0=-3.0)  # asymmetric origin
    x = g.x
    f = WaveFunction(g, np.exp(-((x - 5.0) / 1.5) ** 2) * np.exp(1j * x))
    back = inverse_transform(forward_transform(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_lp_norm_unit_box():
    # [-16, 16) grid puts x = 0 and x = 1 exactly on grid points
    g = UniformGrid.symmetric(1024, 16.0)
    vals = ((g.x >= 0.0) & (g.x < 1.0)).astype(complex)
    assert lp_norm(WaveFunction(g, vals), 2) == pytest.approx(1.0, abs=1e-14)


def test_lp_norm_gaussian_closed_forms(gaussian):
    assert lp_norm(gaussian, 2) == pytest.approx((np.pi / 2) ** 0.25, rel=1e-12)
    assert lp_norm(gaussian, 6) == pytest.approx((np.pi / 6) ** (1 / 12), rel=1e-12)


def test_lp_norm_homogeneous(grid, rng):
    f = random_band_limited(grid, rng)
    c = 2.7 - 1.3j
    scaled = WaveFunction(grid, c * f.values)
    for p in (1.0, 2.0, 6.0):
        assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)


def test_lp_norm_domain_error(gaussian):
    with pytest.raises(ValueError):
        lp_norm(gaussian, 0.5)


def test_inner_product_definitions(grid, rng):
    f = random_band_limited(grid, rng)
    g = random_band_limited(grid, rng)
    assert inner_product(f, f).real == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)
    # conjugate linearity in the first slot
    c = 1.2 + 0.7j
    cf = WaveFunction(grid, c * f.values)
    assert inner_product(cf, g) == pytest.approx(np.conj(c) * inner_product(f, g), rel=1e-12)


def test_inner_product_parity(grid, gaussian):
    odd = WaveFunction(grid, grid.x * gaussian.values)
    assert abs(inner_product(gaussian, odd)) <= 1e-14


def test_inner_product_grid_mismatch(grid, gaussian):
    other = UniformGrid.symmetric(512, 20.0)
    with pytest.raises(GridMismatchError):
        inner_product(gaussian, make_gaussian(other))


def test_plancherel_constant(grid, rng):
    for _ in range(3):
        f = random_band_limited(grid, rng)
        g = random_band_limited(grid, rng)
        lhs = inner_product(forward_transform(f), forward_transform(g))
        rhs = 2 * np.pi * inner_product(f, g)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_plancherel_norm(grid, gaussian):
    fhat = forward_transform(gaussian)
    assert lp_norm(fhat, 2) ** 2 == pytest.approx(2 * np.pi * lp_norm(gaussian, 2) ** 2,
                                                  rel=1e-10)


def test_parseval_polarization(grid, rng):
    # 4 <f,g> = ||f+g||^2 - ||f-g||^2 + i||f-ig||^2 - i||f+ig||^2
    f = random_band_limited(grid, rng)
    g = random_band_limited(grid, rng)

    def norm_sq(vals):
        return lp_norm(WaveFunction(grid, vals), 2) ** 2

    pol = (norm_sq(f.values + g.values) - norm_sq(f.values - g.values)
           + 1j * norm_sq(f.values - 1j * g.values) - 1j * norm_sq(f.values + 1j * g.values)) / 4
    assert pol == pytest.approx(inner_product(f, g), abs=1e-12)


def test_sample_offgrid_accuracy(grid):
    f = WaveFunction(grid, np.exp(-grid.x ** 2 / 2) * np.cos(2 * grid.x))
    pts = np.linspace(-3.0, 3.0, 101) + 0.0123
    exact = np.exp(-pts ** 2 / 2) * np.cos(2 * pts)
    np.testing.assert_allclose(sample_offgrid(f, pts), exact, atol=1e-9)
    with pytest.raises(ValueError):
        sample_offgrid(f, np.array([grid.x0 - 1.0]))


def test_sample_offgrid_reads_through_exact_zero_samples(grid):
    # the x = 0 sample is exactly 0.0; the constraint-set quadrature zeroes
    # the cells touching such a sample, and sample_offgrid must not
    f = WaveFunction(grid, grid.x * np.exp(-grid.x ** 2))
    assert f.values[grid.n // 2] == 0.0
    pts = np.linspace(-0.2, 0.2, 81) + 0.0013
    np.testing.assert_allclose(sample_offgrid(f, pts), pts * np.exp(-pts ** 2), rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", ["space", "frequency"])
def test_sample_offgrid_end_points_and_scalars(grid, kind):
    g = grid if kind == "space" else grid.dual()
    values = np.exp(0.3j * grid.x) * (1 + 0.1 * grid.x)  # far from zero at both ends
    f = WaveFunction(g, values)
    ends = sample_offgrid(f, f.axis[[0, -1]])
    assert np.abs(ends - values[[0, -1]]).max() <= 1e-12 * np.abs(values).max()
    last = sample_offgrid(f, f.axis[-1])
    assert np.ndim(last) == 0 and last == ends[1]
    with pytest.raises(ValueError):
        sample_offgrid(f, np.nan)


def test_only_lattice_builds_offgrid_interpolants():
    import ast
    import pathlib

    import strichartz_lab

    importers = set()
    for path in pathlib.Path(strichartz_lab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.interpolate" or name.startswith("scipy.interpolate.")
                   for name in names):
                importers.add(path.name)
    assert importers == {"lattice.py"}


def test_wavefunction_csv_round_trip(tmp_path, grid, rng):
    f = random_band_limited(grid, rng)
    path = tmp_path / "wf.csv"
    save_wavefunction(f, path)
    g = load_wavefunction(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)
    # frequency-side functions round trip too
    fhat = forward_transform(f)
    save_wavefunction(fhat, path)
    ghat = load_wavefunction(path)
    assert isinstance(ghat.grid, FrequencyGrid)
    assert ghat.grid == fhat.grid
    np.testing.assert_array_equal(ghat.values, fhat.values)
    # a grid built from numpy floats writes a header that reads back
    g = make_gaussian(UniformGrid.symmetric(64, np.float64(5.0)))
    for h in (g, forward_transform(g)):
        save_wavefunction(h, path)
        assert load_wavefunction(path).grid == h.grid


def test_write_table_cells(tmp_path):
    values = [0.1, 1.0 / 3.0, np.float64(np.pi), np.float64(-2.5e-300), float("nan")]
    path = tmp_path / "t.csv"
    write_table(path, ["k", "x", "n"], [(k, v, np.int64(7 * k)) for k, v in enumerate(values)])
    header, *lines = path.read_text().splitlines()
    assert header == "k,x,n"
    cells = [line.split(",") for line in lines]
    assert [c[0] for c in cells] == ["0", "1", "2", "3", "4"]
    assert [c[2] for c in cells] == ["0", "7", "14", "21", "28"]
    # float cells, numpy's included, are plain reprs that read back exactly
    assert cells[2][1] == repr(np.pi)
    np.testing.assert_array_equal([float(c[1]) for c in cells], values)
    path = tmp_path / "t.txt"
    write_table(path, ["k", "holds"], [(np.int64(2), True), (3, False)],
                comment="meta a=1", sep=" ")
    assert path.read_text() == "# meta a=1\nk holds\n2 True\n3 False\n"


def test_load_wavefunction_rejects_other_files(tmp_path, grid):
    other = tmp_path / "trajectory.csv"
    other.write_text("# picard-trajectory steps=1 converged=True depth=3\n"
                     "step,delta,ratio,omega\n0,,0.8,449.9\n")
    with pytest.raises(ValueError, match="trajectory.csv"):
        load_wavefunction(other)
    # an axis column that disagrees with the header's grid
    path = tmp_path / "wf.csv"
    save_wavefunction(make_gaussian(grid), path)
    lines = path.read_text().splitlines(keepends=True)
    x, rest = lines[5].split(",", 1)
    lines[5] = f"{float(x) + grid.dx!r},{rest}"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="wf.csv"):
        load_wavefunction(path)


#: observed 4.0e-15 at real and 1.2e-15 at complex points, over 20 seeds
FOURIER_SUM_BOUNDS = (4.0e-13, 1.2e-13)


@pytest.mark.parametrize("seed", [0, 1])
def test_fourier_sum_matches_the_dense_sum(grid, seed):
    rng = np.random.default_rng(seed)
    fhat = forward_transform(random_band_limited(grid, rng))
    xi = fhat.grid.xi

    def dense(z, values):
        return np.exp(1j * np.outer(z, xi)) @ values * (fhat.grid.dxi / (2.0 * np.pi))

    x = rng.uniform(-20.0, 20.0, 64)
    # a window that starts and ends inside a block of the split sum
    live = np.abs(xi - 1.0) <= 7.0
    z = x / 4.0 + 1j * rng.uniform(-1.0, 1.0, 64)
    cases = [(x, None, fhat.values), (z, live, np.where(live, fhat.values, 0.0))]
    for (points, mask, values), bound in zip(cases, FOURIER_SUM_BOUNDS):
        expected = dense(points, values)
        error = np.abs(_fourier_sum(fhat, points, mask) - expected).max()
        assert error <= bound * np.abs(expected).max()


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda g: forward_transform(forward_transform(make_gaussian(g))),
                 GridMismatchError, "spatial-grid", id="forward-of-spectrum"),
    pytest.param(lambda g: inverse_transform(make_gaussian(g)),
                 GridMismatchError, "frequency-grid", id="inverse-of-spatial"),
    pytest.param(lambda g: FrequencyGrid(n=1000, dxi=0.1), ValueError, "got 1000",
                 id="frequency-n"),
    pytest.param(lambda g: FrequencyGrid(n=64, dxi=0.0), ValueError, "dxi", id="frequency-dxi"),
    pytest.param(lambda g: FrequencyGrid(n=64, dxi=np.inf), ValueError, "dxi",
                 id="frequency-dxi-inf"),
    pytest.param(lambda g: UniformGrid(n=64, dx=0.1, x0=np.nan), ValueError, "x0", id="x0-nan"),
    pytest.param(lambda g: UniformGrid(n=64, dx=0.1, x0=-np.inf), ValueError, "x0", id="x0-inf"),
])
def test_lattice_refuses_wrong_side_and_bad_grids(grid, call, error, match):
    with pytest.raises(error, match=match):
        call(grid)
