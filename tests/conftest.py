from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from strichartz_lab import propagator
from strichartz_lab.experiments import _random_smooth_profile
from strichartz_lab.lattice import (
    UniformGrid,
    WaveFunction,
    lp_norm,
    make_gaussian,
    sample_offgrid,
)
from strichartz_lab.propagator import default_time_quadrature


def pytest_configure(config):
    # like RuntimeWarning in pyproject.toml, the library's own warnings fail
    # any test that does not assert them; set here rather than there so that
    # a pytest run outside tests/ need not import the package
    for category in ("lattice.AliasingWarning", "functional_equation.PhaseUnwrapWarning"):
        config.addinivalue_line("filterwarnings", f"error::strichartz_lab.{category}")


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
def pool(monkeypatch):
    """use(threads, workers=threads - 1) runs the flow engine's pieces on
    that many threads: the calling thread and a private executor of workers
    (none for 0).  The engine is the pool's only user.  The executors are
    shut down and the process's own pool is restored when the test ends."""
    executors = []

    def use(threads, workers=None):
        workers = threads - 1 if workers is None else workers
        executor = ThreadPoolExecutor(workers) if workers else None
        if executor is not None:
            executors.append(executor)
        monkeypatch.setattr(propagator, "_POOL", (threads, executor))

    yield use
    for executor in executors:
        executor.shutdown()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


#: unit-norm smooth random profile: three complex Gaussian bumps in frequency,
#: centred in [-4, 4] with widths in [1, 2]
random_band_limited = _random_smooth_profile


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


def shared_nodes_sextuple(grid):
    """The default_rng(4) sextuple of random_band_limited profiles with its
    outer slots replaced by f, i f(x - 7dx) and f(x + 12dx): one |fhat|, so one
    set of quadrature nodes, under three different functions."""
    rng = np.random.default_rng(4)
    f, _, _, *rest = [random_band_limited(grid, rng) for _ in range(6)]
    return [f, WaveFunction(grid, 1j * np.roll(f.values, 7)),
            WaveFunction(grid, np.roll(f.values, -12)), *rest]
