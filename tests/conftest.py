import numpy as np
import pytest

from strichartz_lab.lattice import (
    UniformGrid,
    WaveFunction,
    lp_norm,
    make_gaussian,
    sample_offgrid,
)
from strichartz_lab.propagator import default_time_quadrature


@pytest.fixture(scope="session")
def grid():
    return UniformGrid.symmetric(n=1024, half_width=20.0)


@pytest.fixture(scope="session")
def tq():
    return default_time_quadrature()


@pytest.fixture()
def gaussian(grid):
    return make_gaussian(grid)


@pytest.fixture()
def unit_gaussian(grid):
    f = make_gaussian(grid)
    f.values /= lp_norm(f, 2)
    return f


@pytest.fixture()
def band_edge(grid):
    """Half of the spectrum sits at the Nyquist frequency: no gauge resolves it."""
    spiky = np.zeros(grid.n, dtype=complex)
    spiky[::2] = 1.0
    return WaveFunction(grid, spiky)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_band_limited(grid, rng, band=8.0):
    """Smooth random profile with spectrum inside |xi| <= band."""
    dual = grid.dual()
    xi = dual.xi
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(3):
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        center = rng.uniform(-band / 2, band / 2)
        width = rng.uniform(1.0, 2.0)
        vals += amp * np.exp(-((xi - center) / width) ** 2)
    from strichartz_lab.lattice import inverse_transform

    f = inverse_transform(WaveFunction(dual, vals))
    f.values /= lp_norm(f, 2)
    return f


def direct_samples(grid, t, ghat):
    """u(x_j, t) rebuilt from a factored row ghat_t of FlowPlan.blocks through
    the chirp factorization (-4 pi i t)^{-1/2} e^{-i x^2 / 4t} ghat_t(-x / 2t);
    ghat_t is read between dual grid points by sample_offgrid and taken as zero
    beyond the dual grid."""
    dual = grid.dual()
    w = -grid.x / (2.0 * t)
    inside = (w >= dual.xi[0]) & (w <= dual.xi[-1])
    vals = np.zeros(grid.n, dtype=complex)
    vals[inside] = sample_offgrid(WaveFunction(dual, ghat), w[inside])
    return (-4j * np.pi * t) ** -0.5 * np.exp(-1j * grid.x ** 2 / (4.0 * t)) * vals
