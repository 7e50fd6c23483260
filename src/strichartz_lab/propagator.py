"""Free Schrodinger flow, space-time Lebesgue norms, and the sharp-constant ratio.

The flow is the frequency multiplier e^{+i t xi^2}:

    u(x, t) = (1/2pi) int e^{i x xi + i t xi^2} fhat(xi) dxi.

Two complementary discretizations are used.  For moderate |t| the multiplier
acts directly on the FFT grid.  Once the solution would wrap around the
periodic box (dispersive spreading is ballistic), the exact chirp
factorization

    u(x, t) = (-4 pi i t)^{-1/2} e^{-i x^2 / 4t} ghat_t(-x / 2t),
    ghat_t  = F[ e^{-i y^2 / 4t} f(y) ],

is used instead: the chirped profile lives on the original spatial support,
so ghat_t is computable at spectral accuracy for arbitrarily large |t|.  All
space-time integrals reduce to quadratures of ghat_t on the frequency grid
with the Jacobian 2|t| and amplitude (4 pi |t|)^{-1/2} per factor.

One rule, switch_time, places the switch point from the inputs' spatial and
spectral extents.  It returns a time inside the window where both
representations are accurate; for an input that fills the box, so that the
direct gauge wraps before the factored one resolves, it switches just past
the factored bound with a warning; and when the spectrum reaches the band
edge, so that the factored gauge never resolves, it raises.

Every evaluation of the flow goes through one block engine, FlowPlan.  It
evolves its inputs over runs of nodes in one gauge, one batched FFT per
block of at most BLOCK_ENTRIES complex entries (1 MiB), and every space-time
functional here is a reduction over those blocks.  Its phase tables (the
multiplier e^{it xi^2}, the chirp e^{-ix^2/4t} and the Fresnel multiplier
of Lambda) are kept when one nodes x n table fits in TABLE_BYTES, and are
computed per block otherwise.

Time integrals over all of R use the compactification t = tan(theta)/4 with
Gauss-Legendre nodes in theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import leggauss

from .lattice import (
    AliasingWarning,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    l2_mass_radius,
    lp_norm,
    sample_offgrid,
    warn_at_caller,
    warn_if_aliased,
)

__all__ = [
    "FlowPlan",
    "SpaceTimeField",
    "TimeQuadrature",
    "default_grid",
    "default_time_quadrature",
    "evolve",
    "evolve_range",
    "fourier_symmetry_check",
    "gaussian_l6_sixth_exact",
    "save_spacetime_field",
    "sharp_ratio_exact",
    "spacetime_lp",
    "strichartz_ratio",
    "switch_time",
]

#: closed-form value of int int |e^{it Delta} e^{-x^2}|^6 dx dt
gaussian_l6_sixth_exact = np.pi ** 1.5 / (4.0 * np.sqrt(6.0))

#: the sharp constant 12^{-1/12}; its sixth power is 1/(2 sqrt 3)
sharp_ratio_exact = 12.0 ** (-1.0 / 12.0)

#: complex entries per block array (1 MiB): 64 rows at n = 1024, 4 at n = 16384
BLOCK_ENTRIES = 1 << 16
#: largest nodes x n phase table a plan keeps: 257 x 1024 fits, 2049 x 16384 does not
TABLE_BYTES = 1 << 23


@dataclass(frozen=True)
class TimeQuadrature:
    """Nodes and positive weights for integrals over the time axis."""

    nodes: np.ndarray
    weights: np.ndarray
    scheme: str = "compactified"

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.nodes)) or not np.all(np.isfinite(self.weights)):
            raise ValueError("nodes and weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

    def __eq__(self, other):
        return (isinstance(other, TimeQuadrature)
                and self.scheme == other.scheme
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        # + 0.0 maps a -0.0 node to 0.0, which __eq__ treats as equal
        return hash((self.scheme, (self.nodes + 0.0).tobytes(), self.weights.tobytes()))

    @classmethod
    def compactified(cls, n_nodes: int = 257, rate: float = 1.0) -> "TimeQuadrature":
        """Gauss-Legendre in theta on (-pi/2, pi/2) mapped through
        t = tan(theta) / (4 rate).

        Covers all of R; the Jacobian dt = dtheta / (4 rate cos^2 theta) is
        folded into the weights.  rate > 1 concentrates nodes near t = 0 for
        integrands with fast decoherence scales (high-frequency bands); the
        default rate matches O(1)-frequency profiles such as e^{-x^2}.
        """
        if rate <= 0:
            raise ValueError("rate must be positive")
        z, w = leggauss(n_nodes)
        theta = 0.5 * np.pi * z
        w_theta = 0.5 * np.pi * w
        nodes = np.tan(theta) / (4.0 * rate)
        weights = w_theta / (4.0 * rate * np.cos(theta) ** 2)
        return cls(nodes=nodes, weights=weights, scheme="compactified")

    @classmethod
    def truncated(cls, n_nodes: int, t_max: float) -> "TimeQuadrature":
        """Plain Gauss-Legendre on [-t_max, t_max]."""
        z, w = leggauss(n_nodes)
        return cls(nodes=t_max * z, weights=t_max * w, scheme="truncated")

    @classmethod
    def single(cls, t: float) -> "TimeQuadrature":
        return cls(nodes=np.array([t]), weights=np.array([1.0]), scheme="truncated")


@lru_cache(maxsize=8)
def _compactified_cached(n_nodes: int) -> TimeQuadrature:
    return TimeQuadrature.compactified(n_nodes)


def default_time_quadrature(n_nodes: int = 257) -> TimeQuadrature:
    return _compactified_cached(n_nodes)


def default_grid() -> UniformGrid:
    return UniformGrid.symmetric(n=1024, half_width=20.0)


# ---------------------------------------------------------------------------
# gauge crossover
# ---------------------------------------------------------------------------

#: (band margin, mass tail) of the crossover windows, tried in order
_WINDOWS = ((0.90, 1e-12), (0.95, 1e-3))


def _gauge_crossover(fields, box_margin: float, band_margin: float,
                     mass_tail: float) -> tuple[float, float]:
    """(t_factored_min, t_direct_max) for the given extent tolerance."""
    grid = fields[0].grid
    half = 0.5 * grid.extent
    nyq = grid.nyquist
    t_direct = np.inf
    t_factored = 0.0
    for f in fields:
        if not np.any(f.values):
            continue  # zero fields do not constrain the gauge
        x_rad = l2_mass_radius(f, tail=mass_tail)
        fhat = forward_transform(f)
        b_rad = min(l2_mass_radius(fhat, tail=mass_tail), band_margin * nyq)
        room = box_margin * half - x_rad
        if room <= 0 or b_rad <= 0:
            t_direct = min(t_direct, 0.0)
        else:
            t_direct = min(t_direct, room / (2.0 * b_rad))
        denom = band_margin * nyq - b_rad
        t_factored = np.inf if denom <= 0 else max(t_factored, x_rad / (2.0 * denom))
    return float(t_factored), float(t_direct)


def switch_time(fields) -> float:
    """Crossover time between the direct and factored gauges for the given
    spatial-grid functions (a WaveFunction or an iterable of them).

    Below the returned time the periodized multiplier solution has not yet
    wrapped; above it the chirped profile is resolvable on the grid.  The
    rows of _WINDOWS are tried in turn, and the first window where both hold
    gives its geometric mean.  An input that fills the box (hard-banded data,
    whose slowly decaying tails wrap the direct gauge at once) has no window;
    it switches at 1.2 times the first finite factored bound, with an
    AliasingWarning.  A spectrum reaching the band edge leaves no finite
    bound and raises ValueError.
    """
    if isinstance(fields, WaveFunction):
        fields = [fields]
    fields = list(fields)
    if not isinstance(fields[0].grid, UniformGrid):
        raise GridMismatchError("switch_time expects spatial-grid functions")
    bounds = []
    for band_margin, mass_tail in _WINDOWS:
        t_fact, t_direct = _gauge_crossover(fields, 0.98, band_margin, mass_tail)
        if t_fact < t_direct:
            return float(np.sqrt(t_fact * t_direct)) if t_fact > 0 else 0.5 * t_direct
        bounds.append(t_fact)
    finite = [t for t in bounds if np.isfinite(t)]
    if not finite:
        raise ValueError("no valid gauge crossover: the spectrum reaches the band edge, "
                         "so the factored gauge never resolves; refine the grid")
    warn_at_caller(
        "no gauge crossover window: the input fills the box, so the direct gauge "
        f"wraps before the factored gauge resolves at |t| >= {finite[0]:.3g}; "
        "switching at 1.2 x that, accurate only to the input's own truncation level",
        AliasingWarning,
    )
    return 1.2 * finite[0]


# ---------------------------------------------------------------------------
# the block engine
# ---------------------------------------------------------------------------

def _row_measure(grid: UniformGrid, tq: TimeQuadrature, sl, factored, degree) -> np.ndarray:
    """w_k times the x-measure of the rows sl, for an integrand of the given
    degree in |u|: dx on direct rows; on factored rows the Jacobian 2|t| dxi
    of x = -2tw times the amplitude (4 pi |t|)^{-1/2} per degree."""
    w = tq.weights[sl]
    fac = np.broadcast_to(factored, w.shape)
    out = w * grid.dx
    t = np.abs(tq.nodes[sl][fac])
    out[fac] = w[fac] * (4.0 * np.pi * t) ** (-0.5 * degree) * 2.0 * t * grid.dual().dxi
    return out


class FlowPlan:
    """The flow on one grid over one time rule, evaluated in row blocks; it
    holds no input, so one plan serves every call on its grid and rule."""

    def __init__(self, grid: UniformGrid, tq: TimeQuadrature):
        if not isinstance(grid, UniformGrid):
            raise GridMismatchError("a flow plan needs a spatial grid")
        self.grid, self.tq = grid, tq
        dual = grid.dual()
        self.block_rows = max(1, BLOCK_ENTRIES // grid.n)
        self._keep = len(tq.nodes) * grid.n * 16 <= TABLE_BYTES
        self._tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: dx e^{-i x0 xi}: the origin phase of a centred-order transform
        self.phase = grid.dx * np.exp(-1j * grid.x0 * dual.xi)
        self._xi2 = np.fft.ifftshift(dual.xi) ** 2
        # (-1)^j shifts the FFT output to centred order (n is even)
        self._sign = np.where(np.arange(grid.n) % 2, -1.0, 1.0)
        self._x2 = grid.x ** 2
        # eta, the dual of the frequency axis read as a spatial axis
        self._eta2 = np.fft.ifftshift(dual.as_spatial_axis().dual().xi) ** 2

    def table(self, kind: str, sl: slice) -> np.ndarray:
        """Rows sl of a phase table, a kept one filled as blocks ask: "flow" e^{it xi^2}
        and "fresnel" e^{i eta^2 / 4t} in FFT order, "chirp" (-1)^j e^{-i x_j^2 / 4t}."""
        if self._keep:
            if kind not in self._tables:
                shape = (len(self.tq.nodes), self.grid.n)
                self._tables[kind] = (np.empty(shape, dtype=complex), np.zeros(shape[0], bool))
            table, filled = self._tables[kind]
            if not filled[sl].all():
                table[sl], filled[sl] = self._phases(kind, sl), True
            return table[sl]
        return self._phases(kind, sl)

    def _phases(self, kind: str, sl: slice) -> np.ndarray:
        t = self.tq.nodes[sl, None]
        if kind == "flow":
            z = 1j * t * self._xi2
            return np.exp(z, out=z)
        # 1/4t; a t = 0 node is never factored, so its row is never read
        s = np.divide(0.25, t, out=np.zeros_like(t), where=t != 0)
        if kind == "chirp":
            z = -1j * s * self._x2
            np.exp(z, out=z)
            z *= self._sign
            return z
        z = 1j * s * self._eta2
        return np.exp(z, out=z)

    def blocks(self, fields, switch: float):
        """Evolve fields over runs of at most block_rows nodes in one gauge
        (factored when |t| > switch).  Yields (nodes, factored, rows), rows[i]
        the rows of fields[i] at those nodes: samples u(x_j, t_k) in the
        direct gauge, ghat_{t_k} on the centred dual grid in the factored
        gauge.  An input passed in several slots is evolved once."""
        if any(f.grid != self.grid for f in fields):
            raise GridMismatchError("all inputs must share the plan's grid")
        distinct = {id(f): f.values for f in fields}
        spectra = {key: scipy.fft.fft(v) for key, v in distinct.items()}
        factored = np.abs(self.tq.nodes) > switch
        runs = [0, *(np.flatnonzero(np.diff(factored)) + 1).tolist(), len(factored)]
        for a, b in zip(runs[:-1], runs[1:]):
            for start in range(a, b, self.block_rows):
                sl = slice(start, min(start + self.block_rows, b))
                if factored[a]:
                    chirp = self.table("chirp", sl)
                    rows = {key: scipy.fft.fft(chirp * v, axis=-1, overwrite_x=True)
                            for key, v in distinct.items()}
                    for r in rows.values():
                        r *= self.phase
                else:
                    flow = self.table("flow", sl)
                    rows = {key: scipy.fft.ifft(flow * spectra[key], axis=-1, overwrite_x=True)
                            for key in distinct}
                yield sl, bool(factored[a]), [rows[id(f)] for f in fields]
                del rows  # free this block before the next is built

    def integral(self, fields, switch: float | None = None, conj_count: int = 0,
                 power: float | None = None) -> complex:
        """sum_k w_k int conj(u_1 .. u_c) u_{c+1} .. u_m dx, or sum_k w_k int |u_1 .. u_m|^power
        dx when power is given; switch defaults to the inputs' switch_time."""
        if switch is None:
            switch = switch_time(fields)
        degree = len(fields) * (1.0 if power is None else power)
        total = 0.0 + 0.0j
        for sl, factored, rows in self.blocks(fields, switch):
            prod = reduce(np.multiply, [np.conj(r) for r in rows[:conj_count]] + rows[conj_count:])
            if power is not None:
                prod = np.abs(prod)
                prod **= power
            total += _row_measure(self.grid, self.tq, sl, factored, degree) @ prod.sum(axis=-1)
            del rows, prod
        return complex(total)


def _flow_lp_sum(f: WaveFunction, plan: FlowPlan, p: float) -> float:
    """sum_k w_k int |u(., t_k)|^p dx for u = e^{it Delta} f."""
    warn_if_aliased(f, band_fraction=7.0 / 8.0, tol=1e-8, context="the flow")
    return plan.integral([f], power=p).real


# ---------------------------------------------------------------------------
# evolution and space-time norms
# ---------------------------------------------------------------------------

def evolve(f: WaveFunction, t: float, check_aliasing: bool = True) -> WaveFunction:
    """Apply the frequency multiplier e^{i t xi^2}; unitary in L^2.

    Valid as a pointwise representation of u(. , t) while the solution still
    fits in the periodic box; see switch_time for the horizon.
    """
    u = evolve_range(f, TimeQuadrature.single(t), np.inf, check_aliasing)
    return WaveFunction(f.grid, u.values[0])


@dataclass
class SpaceTimeField:
    """Samples of u(x, t) = e^{it Delta} f over grid x quadrature nodes.

    Rows flagged in row_factored hold the factored-gauge profile ghat_t on
    the dual frequency grid instead of direct samples; u is recovered from
    them via the chirp factorization in the module docstring.  Rows not
    flagged are literal samples of the (periodized) solution.
    """

    grid: UniformGrid
    times: TimeQuadrature
    values: np.ndarray = field(repr=False)
    row_factored: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        nt = len(self.times.nodes)
        if self.values.shape != (nt, self.grid.n):
            raise GridMismatchError(
                f"values have shape {self.values.shape}, expected ({nt}, {self.grid.n})"
            )
        if self.row_factored is None:
            self.row_factored = np.zeros(nt, dtype=bool)
        else:
            self.row_factored = np.asarray(self.row_factored, dtype=bool)
            if self.row_factored.shape != (nt,):
                raise ValueError("row_factored must have one flag per time node")

    def direct_row(self, k: int) -> np.ndarray:
        """Samples of u(x_j, t_k) regardless of the stored gauge."""
        if not self.row_factored[k]:
            return self.values[k]
        t = self.times.nodes[k]
        dual = self.grid.dual()
        x = self.grid.x
        w = -x / (2.0 * t)
        ghat = WaveFunction(dual, self.values[k])
        inside = (w >= dual.xi[0]) & (w <= dual.xi[-1])
        vals = np.zeros_like(w, dtype=complex)
        if inside.any():
            vals[inside] = sample_offgrid(ghat, w[inside])
        amp = (-4j * np.pi * t) ** (-0.5)
        return amp * np.exp(-1j * x ** 2 / (4.0 * t)) * vals


def evolve_range(f: WaveFunction, tq: TimeQuadrature, switch: float | None = None,
                 check_aliasing: bool = True) -> SpaceTimeField:
    """Evolve f to every quadrature node.

    switch is the gauge crossover time; None takes switch_time(f), and
    numpy.inf forces direct rows everywhere (only sensible when all nodes sit
    below the wrap horizon).
    """
    if check_aliasing:
        warn_if_aliased(f, band_fraction=7.0 / 8.0, tol=1e-8, context="evolve_range")
    if switch is None:
        switch = switch_time(f)
    values = np.empty((len(tq.nodes), f.grid.n), dtype=complex)
    for sl, _, (rows,) in FlowPlan(f.grid, tq).blocks([f], switch):
        values[sl] = rows
    return SpaceTimeField(grid=f.grid, times=tq, values=values,
                          row_factored=np.abs(tq.nodes) > switch)


def spacetime_lp(u: SpaceTimeField, p: float) -> float:
    """( sum_k w_k int |u(., t_k)|^p dx )^{1/p} over the field's quadrature."""
    if p < 1:
        raise ValueError(f"spacetime_lp requires p >= 1, got {p}")
    measure = _row_measure(u.grid, u.times, slice(None), u.row_factored, p)
    return float((measure @ (np.abs(u.values) ** p).sum(axis=-1)) ** (1.0 / p))


def strichartz_ratio(f: WaveFunction, tq: TimeQuadrature | None = None) -> float:
    """|| e^{it Delta} f ||_{L^6_{t,x}} / ||f||_2 for the given quadrature.

    The supremum of this functional over nonzero f is the sharp constant
    12^{-1/12}; Gaussians attain it.
    """
    l2 = lp_norm(f, 2)
    if l2 == 0:
        raise ValueError("strichartz_ratio requires a nonzero input")
    if tq is None:
        tq = default_time_quadrature()
    return _flow_lp_sum(f, FlowPlan(f.grid, tq), 6) ** (1.0 / 6.0) / l2


# ---------------------------------------------------------------------------
# Fourier symmetry of the Strichartz functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierSymmetryResult:
    ratio_f: float
    ratio_finv: float
    fitted_c: float


def _inverse_fourier_profile(f: WaveFunction) -> WaveFunction:
    """f^vee(x) = (1/2pi) int e^{i x xi} f(xi) dxi placed on the dual axis."""
    fhat = forward_transform(f)
    vals = fhat.values
    # fhat(-xi) on the centered grid: index 0 is self-paired (one-sided Nyquist)
    flipped = np.concatenate([vals[:1], vals[1:][::-1]])
    grid = fhat.grid.as_spatial_axis()
    return WaveFunction(grid, flipped / (2.0 * np.pi))


def fourier_symmetry_check(f: WaveFunction, tq: TimeQuadrature | None = None) -> FourierSymmetryResult:
    """Compare the Strichartz L^6 norms of f and of its inverse transform.

    Returns both normalized ratios and the fitted proportionality constant
    C = ||e^{it Delta} f||_6 / ||e^{it Delta} f^vee||_6, which is observed to
    be constant (= sqrt(2 pi) under these conventions) across inputs.
    """
    if tq is None:
        tq = default_time_quadrature()
    finv = _inverse_fourier_profile(f)
    ratio_f = strichartz_ratio(f, tq)
    ratio_finv = strichartz_ratio(finv, tq)
    return FourierSymmetryResult(
        ratio_f=ratio_f,
        ratio_finv=ratio_finv,
        fitted_c=ratio_f * lp_norm(f, 2) / (ratio_finv * lp_norm(finv, 2)),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_spacetime_field(u: SpaceTimeField, path) -> None:
    """Gridded CSV (t, x, re, im); factored rows are materialized as direct
    samples first."""
    x = u.grid.x
    with open(path, "w") as fh:
        fh.write(f"# spacetime-field n={u.grid.n} dx={u.grid.dx!r} x0={u.grid.x0!r} "
                 f"nt={len(u.times.nodes)} scheme={u.times.scheme}\n")
        fh.write("t,x,re,im\n")
        for k, t in enumerate(u.times.nodes):
            row = u.direct_row(k)
            for xj, v in zip(x, row):
                fh.write(f"{float(t)!r},{float(xj)!r},{float(v.real)!r},{float(v.imag)!r}\n")
