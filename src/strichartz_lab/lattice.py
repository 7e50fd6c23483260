"""Uniform grids on the line, discrete Fourier analysis, L^p primitives and off-grid evaluation.

Conventions are nonunitary with angular frequency:

    fhat(xi) = int e^{-i x xi} f(x) dx
    f(x)     = (1/2pi) int e^{+i x xi} fhat(xi) dxi

so Plancherel reads ||fhat||_2^2 = 2 pi ||f||_2^2.  Every 2 pi factor is
carried explicitly; nothing here is unitarily normalized.

Off the grid there is one spline route, sample_offgrid's per-cell Taylor
table, and one exact Fourier sum, _fourier_sum, which also continues f to
complex points.

write_table is the one writer of the lab's text tables (saved functions,
trajectories, sweeps and every experiment's data files): an optional
'# ...' line, a header, then cells whose floats are written as repr(float),
so that float() reads each back exactly.
"""

from __future__ import annotations

import math
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
    "load_wavefunction",
    "sample_offgrid",
    "save_wavefunction",
    "warn_if_aliased",
    "write_table",
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


def _check_size(n: int) -> None:
    if n < 8 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 8, got {n}")


@dataclass(frozen=True)
class UniformGrid:
    """Evenly spaced spatial grid x_j = x0 + j dx, j = 0..n-1."""

    n: int
    dx: float
    x0: float

    def __post_init__(self):
        _check_size(self.n)
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
        _check_size(self.n)
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


def make_gaussian(grid: UniformGrid, a: complex = 1.0, b: complex = 0.0) -> WaveFunction:
    """Samples of exp(-a x^2 + b x) on grid; Re(a) > 0 expected."""
    x = grid.x
    return WaveFunction(grid, np.exp(-a * x ** 2 + b * x))


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


def _spectrum(f: WaveFunction) -> WaveFunction:
    """fhat of f, on whichever side f lives: f itself on a frequency grid."""
    return f if isinstance(f.grid, FrequencyGrid) else forward_transform(f)


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


_ALIASING_TOL = 1e-8


def warn_if_aliased(f: WaveFunction, band_fraction: float = 1.0 / 6.0, context: str = "") -> bool:
    """Warn when f carries more than _ALIASING_TOL of its spectral mass
    ||fhat||_2^2 at |xi| >= band_fraction * nyquist.  Returns True when the
    warning fired."""
    fhat = _spectrum(f)
    power = np.abs(fhat.values) ** 2
    total = power.sum()
    tail = power[np.abs(fhat.grid.xi) >= band_fraction * f.grid.nyquist].sum()
    frac = float(tail / total) if total else 0.0
    if frac > _ALIASING_TOL:
        where = f" in {context}" if context else ""
        warn_at_caller(
            f"spectral tail mass {frac:.3e} beyond {band_fraction:.3g} of the "
            f"band limit{where}; pointwise products may alias",
            AliasingWarning,
        )
        return True
    return False


# ---------------------------------------------------------------------------
# off-grid evaluation: the spline table, and the exact Fourier sum
# ---------------------------------------------------------------------------

def _spline_table(f: WaveFunction) -> np.ndarray:
    """Taylor table of the quintic spline through the samples of f.

    make_interp_spline(axis, values, k=5) has its knots at samples, so it is
    one quintic on each cell [a_l, a_{l+1}]: column l of the (6, n) table
    holds c_{l,m} = s^{(m)}(a_l+) h^m / m! with h the grid step, and
    s(a_l + u h) = sum_m c_{l,m} u^m.  The last column, where _cells sends
    points outside the span, is zero.
    """
    # imported on first use: at the top of this base module it loads ahead
    # of the rest of scipy, and the package import took about 0.08 s longer
    # (2-CPU host)
    from scipy.interpolate import make_interp_spline

    axis, step = f.axis, f.weight
    spl = make_interp_spline(axis, f.values, k=5)
    table = np.zeros((6, f.grid.n), dtype=complex)
    for m in range(6):
        table[m, :-1] = spl(axis[:-1], nu=m) * (step ** m / math.factorial(m))
    return table


def _cells(grid: Grid, pts: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Table column and offset u in [0, 1) of each point; points outside
    [a_0, a_{n-1}) get column -1 or n - 1, the zero column.  out, a pair of
    an intp and a float array shaped like pts, receives (column, u); its
    float array may be pts itself."""
    start, step = (grid.x0, grid.dx) if isinstance(grid, UniformGrid) else (grid.xi[0], grid.dxi)
    shape = np.shape(pts)
    col, u = out if out is not None else (np.empty(shape, np.intp), np.empty(shape))
    np.subtract(pts, start, out=u)
    u /= step
    # points two cells or more outside read the zero column like nearer ones;
    # the clip keeps the cast below exact however far they lie
    np.clip(u, -2.0, grid.n, out=u)
    np.floor(u, out=col, casting="unsafe")
    u -= col
    np.clip(col, -1, grid.n - 1, out=col)
    return col, u


def _interpolate(table: np.ndarray, cells: tuple[np.ndarray, np.ndarray],
                 out=None) -> np.ndarray:
    """The spline of a _spline_table at looked-up points (Horner in u).  out,
    a pair of complex arrays shaped like the points, receives the values in
    its first array and each table row's values on the way in its second."""
    col, u = cells
    vals, row_vals = out if out is not None else (np.empty(col.shape, complex),
                                                  np.empty(col.shape, complex))
    # wrap reads column -1 as column n - 1, as indexing does; the default
    # mode, raise, would copy out first
    np.take(table[5], col, out=vals, mode="wrap")
    for row in table[4::-1]:
        vals *= u
        vals += np.take(row, col, out=row_vals, mode="wrap")
    return vals


def sample_offgrid(f: WaveFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate grid samples at arbitrary points through the quintic spline
    of the samples: one cell lookup and a Horner step in its _spline_table.

    Points must lie inside the grid span (NaN does not); one at the last
    sample reads the last cell at u = 1.  A scalar point gives a scalar.
    """
    axis = f.axis
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.all((axis[0] <= pts) & (pts <= axis[-1])):
        raise ValueError("interpolation points fall outside the grid span")
    col, u = _cells(f.grid, pts)
    last = col == f.grid.n - 1
    col[last] -= 1
    u[last] += 1.0
    out = _interpolate(_spline_table(f), (col, u))
    return out if np.ndim(points) else out[0]


#: samples of a spectrum at or below this fraction of its peak modulus are
#: rounding noise
_NOISE_FLOOR = 1e-14


def _live(mag: np.ndarray) -> np.ndarray:
    """Mask of the live samples of a spectrum's modulus mag, those above
    _NOISE_FLOOR of its peak; a zero spectrum has none."""
    return mag > _NOISE_FLOOR * mag.max()


def _fourier_sum(fhat: WaveFunction, z: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
    """(dxi / 2pi) sum_c fhat_c e^{i z c dxi} at the real or complex points z,
    c the centred frequency index: the trigonometric interpolant of f.

    c = m q + r with m ~ sqrt(n), a divisor of n / 2: two len(z) x m phase
    tables and one matmul in place of the len(z) x n kernel.  With a mask
    live the other samples read zero, and the sum runs over the blocks of m
    samples that hold the live ones.
    """
    n, dxi = fhat.grid.n, fhat.grid.dxi
    m = 1 << (n.bit_length() // 2)
    values, lo, hi = fhat.values, 0, n
    if live is not None:
        at = np.flatnonzero(live)
        lo, hi = at[0] - at[0] % m, -(-(at[-1] + 1) // m) * m
        values = np.where(live, values, 0.0)
    zi = z[:, None] * dxi
    q = np.arange(lo - n // 2, hi - n // 2, m) // m
    low = np.exp(1j * zi * np.arange(m)) @ values[lo:hi].reshape(-1, m).T
    return (np.exp(1j * (m * zi) * q) * low).sum(axis=1) * (dxi / (2.0 * np.pi))


# ---------------------------------------------------------------------------
# serialization: text tables whose float cells read back exactly
# ---------------------------------------------------------------------------

def _cell(c) -> str:
    """A float (numpy's included) as repr(float), which float() reads back
    exactly; a complex as repr(complex); any other cell by str."""
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return repr(complex(c)) if isinstance(c, complex) else str(c)


def write_table(path, header, rows, comment=None, sep=",") -> None:
    """Text table: an optional '# comment' line, the header, one line per row."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(sep.join(header) + "\n")
        fh.writelines(sep.join(map(_cell, row)) + "\n" for row in rows)


def save_wavefunction(f: WaveFunction, path) -> None:
    """Two-column complex CSV whose '# wavefunction' line describes the grid
    (plain float reprs, so that a grid built from numpy floats reads back)."""
    g = f.grid
    if isinstance(g, UniformGrid):
        col, meta = "x", f"kind=space n={g.n} dx={float(g.dx)!r} x0={float(g.x0)!r}"
    else:
        col, meta = "xi", (f"kind=frequency n={g.n} dxi={float(g.dxi)!r} "
                           f"x0_space={float(g.x0_space)!r}")
    write_table(path, [col, "re", "im"], zip(f.axis, f.values.real, f.values.imag),
                comment=f"wavefunction {meta}")


def load_wavefunction(path) -> WaveFunction:
    """Read a file written by save_wavefunction.

    Raises ValueError, naming the path, for a file that is not one or whose
    axis column disagrees with the grid its header describes.
    """
    with open(path) as fh:
        meta = fh.readline().split()
        fh.readline()  # column header
        rows = [line.split(",") for line in fh if line.strip()]
    try:
        if meta[:2] != ["#", "wavefunction"]:
            raise ValueError("no '# wavefunction' header line")
        fields = dict(tok.split("=") for tok in meta[2:])
        if fields["kind"] == "space":
            grid: Grid = UniformGrid(n=int(fields["n"]), dx=float(fields["dx"]),
                                     x0=float(fields["x0"]))
        else:
            grid = FrequencyGrid(n=int(fields["n"]), dxi=float(fields["dxi"]),
                                 x0_space=float(fields["x0_space"]))
        table = np.array(rows, dtype=float)
        f = WaveFunction(grid, table[:, 1] + 1j * table[:, 2])
    except (ValueError, KeyError, IndexError) as err:
        raise ValueError(f"{path} is not a wavefunction file: {err}") from err
    if not np.array_equal(table[:, 0], f.axis):
        raise ValueError(f"{path}: the axis column disagrees with the grid in its header")
    return f
