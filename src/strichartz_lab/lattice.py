"""Uniform grids on the line, discrete Fourier analysis, and L^p primitives.

Conventions are nonunitary with angular frequency:

    fhat(xi) = int e^{-i x xi} f(x) dx
    f(x)     = (1/2pi) int e^{+i x xi} fhat(xi) dxi

so Plancherel reads ||fhat||_2^2 = 2 pi ||f||_2^2.  Every 2 pi factor is
carried explicitly; nothing here is unitarily normalized.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AliasingWarning",
    "FrequencyGrid",
    "GridMismatchError",
    "UniformGrid",
    "WaveFunction",
    "forward_transform",
    "inner_product",
    "inverse_transform",
    "lp_norm",
    "make_gaussian",
    "l2_mass_radius",
    "load_wavefunction",
    "sample_offgrid",
    "save_wavefunction",
    "spectral_tail_fraction",
    "warn_if_aliased",
]


class GridMismatchError(ValueError):
    """Two operands do not live on the same grid."""


class AliasingWarning(UserWarning):
    """Input carries significant spectral mass near the band-limit."""


def warn_at_caller(message: str, category: type[Warning]) -> None:
    """warnings.warn naming the first frame outside this package, the user's call."""
    package, frame, level = os.path.dirname(__file__) + os.sep, sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UniformGrid:
    """Evenly spaced spatial grid x_j = x0 + j dx, j = 0..n-1."""

    n: int
    dx: float
    x0: float

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.dx > 0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if not np.isfinite(self.x0):
            raise ValueError("x0 must be finite")

    @classmethod
    def symmetric(cls, n: int = 1024, half_width: float = 20.0) -> "UniformGrid":
        """Grid of n points covering [-half_width, half_width)."""
        dx = 2.0 * half_width / n
        return cls(n=n, dx=dx, x0=-half_width)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def extent(self) -> float:
        return self.n * self.dx

    @property
    def nyquist(self) -> float:
        return np.pi / self.dx

    def dual(self) -> "FrequencyGrid":
        return FrequencyGrid(n=self.n, dxi=2.0 * np.pi / (self.n * self.dx), x0_space=self.x0)


@dataclass(frozen=True)
class FrequencyGrid:
    """Centered frequency grid xi_k = (k - n/2) dxi dual to a UniformGrid.

    x0_space records the left endpoint of the spatial grid it came from, so
    the inverse transform can undo the origin phase exactly.
    """

    n: int
    dxi: float
    x0_space: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.dxi > 0 and np.isfinite(self.dxi)):
            raise ValueError(f"dxi must be positive and finite, got {self.dxi}")
        if self.x0_space is None:
            # default: symmetric spatial grid
            object.__setattr__(self, "x0_space", -np.pi / self.dxi)

    @property
    def xi(self) -> np.ndarray:
        return self.dxi * (np.arange(self.n) - self.n // 2)

    @property
    def nyquist(self) -> float:
        return self.dxi * (self.n // 2)

    def spatial(self) -> UniformGrid:
        return UniformGrid(n=self.n, dx=2.0 * np.pi / (self.n * self.dxi), x0=self.x0_space)

    def as_spatial_axis(self) -> UniformGrid:
        """Reinterpret this frequency axis as a spatial axis of its own.

        Used when an operator acts on the frequency variable (for instance a
        Fresnel step in xi); the samples keep their positions, only the role
        of the axis changes.
        """
        return UniformGrid(n=self.n, dx=self.dxi, x0=float(self.xi[0]))


Grid = UniformGrid | FrequencyGrid


@dataclass
class WaveFunction:
    """Complex samples of a function on a UniformGrid or FrequencyGrid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise GridMismatchError(
                f"values have shape {self.values.shape}, grid expects ({self.grid.n},)"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("wave function samples must be finite")

    @property
    def axis(self) -> np.ndarray:
        return self.grid.x if isinstance(self.grid, UniformGrid) else self.grid.xi

    @property
    def weight(self) -> float:
        """Quadrature weight of the grid (dx or dxi)."""
        return self.grid.dx if isinstance(self.grid, UniformGrid) else self.grid.dxi

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values.copy())


def make_gaussian(grid: UniformGrid, a: complex = 1.0, b: complex = 0.0, c: complex = 0.0) -> WaveFunction:
    """Samples of exp(-a x^2 + b x + c) on grid; Re(a) > 0 expected."""
    x = grid.x
    return WaveFunction(grid, np.exp(-a * x ** 2 + b * x + c))


def _check_same_grid(f: WaveFunction, g: WaveFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def forward_transform(f: WaveFunction) -> WaveFunction:
    """Trapezoidal/spectral discretization of fhat(xi) = int e^{-i x xi} f(x) dx.

    Includes the dx scaling and the phase correction for x0 != 0.  Exactly
    inverted by inverse_transform.
    """
    if not isinstance(f.grid, UniformGrid):
        raise GridMismatchError("forward_transform expects a spatial-grid function")
    g = f.grid
    dual = g.dual()
    vals = g.dx * np.exp(-1j * g.x0 * dual.xi) * np.fft.fftshift(np.fft.fft(f.values))
    return WaveFunction(dual, vals)


def inverse_transform(g: WaveFunction) -> WaveFunction:
    """Discretization of f(x) = (1/2pi) int e^{+i x xi} fhat(xi) dxi."""
    if not isinstance(g.grid, FrequencyGrid):
        raise GridMismatchError("inverse_transform expects a frequency-grid function")
    fg = g.grid
    spatial = fg.spatial()
    vals = np.fft.ifft(np.fft.ifftshift(np.exp(1j * fg.x0_space * fg.xi) * g.values)) / spatial.dx
    return WaveFunction(spatial, vals)


def lp_norm(f: WaveFunction, p: float) -> float:
    """Quadrature approximation of (int |f|^p)^{1/p} with the grid weight."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return float((f.weight * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def inner_product(f: WaveFunction, g: WaveFunction) -> complex:
    """L^2 pairing int conj(f) g, conjugate-linear in the first slot."""
    _check_same_grid(f, g)
    return complex(f.weight * np.sum(np.conj(f.values) * g.values))


def spectral_tail_fraction(f: WaveFunction, xi_cut: float) -> float:
    """Fraction of ||fhat||_2^2 carried by |xi| >= xi_cut."""
    fhat = forward_transform(f) if isinstance(f.grid, UniformGrid) else f
    xi = fhat.grid.xi
    power = np.abs(fhat.values) ** 2
    total = power.sum()
    if total == 0:
        return 0.0
    return float(power[np.abs(xi) >= xi_cut].sum() / total)


def warn_if_aliased(f: WaveFunction, band_fraction: float = 1.0 / 6.0, tol: float = 1e-8,
                    context: str = "") -> bool:
    """Warn when f carries more than tol of its spectral mass beyond
    band_fraction * nyquist.  Returns True when the warning fired."""
    frac = spectral_tail_fraction(f, band_fraction * f.grid.nyquist)
    if frac > tol:
        where = f" in {context}" if context else ""
        warn_at_caller(
            f"spectral tail mass {frac:.3e} beyond {band_fraction:.3g} of the "
            f"band limit{where}; pointwise products may alias",
            AliasingWarning,
        )
        return True
    return False


def l2_mass_radius(f: WaveFunction, tail: float = 1e-12) -> float:
    """Smallest radius R (about 0) such that the |f|^2 mass outside |axis| > R
    is at most tail * total.  Returns 0 for the zero function."""
    axis = np.abs(f.axis)
    power = np.abs(f.values) ** 2
    total = power.sum()
    if total == 0:
        return 0.0
    order = np.argsort(axis)
    cumulative = np.cumsum(power[order])
    idx = np.searchsorted(cumulative, (1.0 - tail) * total)
    idx = min(idx, len(axis) - 1)
    return float(axis[order][idx])


# ---------------------------------------------------------------------------
# off-grid evaluation
# ---------------------------------------------------------------------------

def sample_offgrid(f: WaveFunction, points: np.ndarray, order: int = 6) -> np.ndarray:
    """Evaluate grid samples at arbitrary points by local barycentric
    polynomial interpolation of the given order (order+1 point stencils).

    Points must lie inside the grid span.
    """
    axis = f.axis
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.min() < axis[0] or pts.max() > axis[-1]:
        raise ValueError("interpolation points fall outside the grid span")
    k = order
    n = f.grid.n
    step = f.weight
    # leftmost stencil index, clipped to keep the window inside the grid
    left = np.floor((pts - axis[0]) / step).astype(int) - k // 2
    left = np.clip(left, 0, n - (k + 1))
    offsets = np.arange(k + 1)
    stencil_idx = left[:, None] + offsets[None, :]
    xs = axis[stencil_idx]
    ys = f.values[stencil_idx]
    # barycentric weights for equispaced nodes: (-1)^j C(k, j)
    from math import comb

    bw = np.array([(-1) ** j * comb(k, j) for j in range(k + 1)], dtype=float)
    diff = pts[:, None] - xs
    exact = np.isclose(diff, 0.0, atol=1e-14 * step)
    safe = np.where(exact, 1.0, diff)
    terms = bw[None, :] / safe
    num = (terms * ys).sum(axis=1)
    den = terms.sum(axis=1)
    out = num / den
    hit_rows = exact.any(axis=1)
    if hit_rows.any():
        hit_cols = exact[hit_rows].argmax(axis=1)
        out[hit_rows] = ys[hit_rows, hit_cols]
    return out if np.ndim(points) else out[0]


# ---------------------------------------------------------------------------
# serialization: two-column complex CSV with a one-line metadata header
# ---------------------------------------------------------------------------

def save_wavefunction(f: WaveFunction, path) -> None:
    kind = "space" if isinstance(f.grid, UniformGrid) else "frequency"
    if kind == "space":
        meta = f"# wavefunction kind=space n={f.grid.n} dx={f.grid.dx!r} x0={f.grid.x0!r}"
        col = "x"
    else:
        meta = (f"# wavefunction kind=frequency n={f.grid.n} dxi={f.grid.dxi!r} "
                f"x0_space={f.grid.x0_space!r}")
        col = "xi"
    axis = f.axis
    with open(path, "w") as fh:
        fh.write(meta + "\n")
        fh.write(f"{col},re,im\n")
        for a, v in zip(axis, f.values):
            fh.write(f"{float(a)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def load_wavefunction(path) -> WaveFunction:
    with open(path) as fh:
        meta = fh.readline().strip()
        fh.readline()  # column header
        rows = [line.split(",") for line in fh if line.strip()]
    fields = dict(tok.split("=") for tok in meta.lstrip("# ").split()[2:])
    kind = meta.split("kind=")[1].split()[0]
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    if kind == "space":
        grid: Grid = UniformGrid(n=int(fields["n"]), dx=float(fields["dx"]), x0=float(fields["x0"]))
    else:
        grid = FrequencyGrid(n=int(fields["n"]), dxi=float(fields["dxi"]),
                             x0_space=float(fields["x0_space"]))
    return WaveFunction(grid, values)
