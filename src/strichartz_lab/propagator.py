"""Free Schrodinger flow, its block engine, and the sharp-constant ratio.

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

One rule, switch_time, places the switch point from one mass interval of
each input along x and one along xi.  The direct gauge is the periodic flow,
which translation and modulation leave as it is, so its horizon reads only
the widths; the chirp of the factored gauge uses true positions, so its bound
reads each interval's reach from the origin.  It returns a time inside the
window where both representations are accurate; for an input that fills the
box, so that the direct gauge wraps before the factored one resolves, it
switches just past the factored bound with a warning; and when the spectrum
reaches the band edge, so that the factored gauge never resolves, it raises.

Every evaluation of the flow goes through one block engine, FlowPlan.  It
evolves its inputs over runs of nodes in one gauge, in blocks of at most
BLOCK_ENTRIES complex entries (1 MiB), and every space-time functional here
is a reduction over those blocks (FlowPlan.reduce_blocks).  The plan alone
makes the engine's choices: a plan made without a time rule takes
default_time_quadrature(), and reduce_blocks takes the inputs' switch_time
when given no switch, so the functionals pass both on untouched.  Its phase
tables, the multiplier e^{it xi^2} and the chirp e^{-ix^2/4t}, are kept when
one nodes x n table fits in TABLE_BYTES, and computed per block otherwise;
only the plan reads them, and a reduction is handed the rows it needs.

The blocks run on one thread per CPU the process may run on (os.cpu_count()
where the platform has no affinity call): the calling thread and a pool of
one worker fewer, made on first use (none on one CPU, where everything runs
inline).  The pool is the engine's alone: reduce_blocks splits each block
into one contiguous piece of rows per thread, each with its own buffers, and
nothing else in the package runs on it.  A piece reads its phase rows from
the kept table or computes them in its own phase buffer, evolves every input
at those rows and then, from their conjugates in that buffer, at their
mirror rows, and reduces them to per-row results such as row sums; the
calling thread joins the pieces in node order and applies the quadrature
weights once per block, as one thread would.  numpy's per-row sums and
numpy.fft's per-row transforms, taken in place (out=), do not depend on how
many rows share a call, so every value is the same bit for bit on any number
of CPUs.  At most one block's rows are in flight, in buffers the calling
thread allocates once per call.  A kept table fills the rows it lacks on
first read (FlowPlan._table), under the plan's lock and from whichever
thread reads them, and never writes a filled row again; so pieces, and
threads that share one plan, read and fill one table at once.

Time integrals over all of R use the compactification t = tan(theta)/4 with
Gauss-Legendre nodes in theta.  The Legendre rule of each size is built once
per process (_legendre) and shared by every time rule and by the quadrature
rules of sextic_form.  Its nodes come in exact +-t pairs, and the flow and
chirp rows of -t equal the complex conjugates of those of t exactly (bit for
bit, but for the sign of the chirp's zero imaginary part at x = 0).  So on a
symmetric rule a plan computes phase rows for t >= 0 only, and a kept table
never holds a t < 0 row: the walk takes the t >= 0 half and yields each
block's mirror block just before it.  Within a row, an exponent array that is
even in the column index (x^2 on a symmetric grid, xi^2 always) needs
exponentials for columns 0..n/2 only.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
from numpy.polynomial.legendre import legder, legval

from .lattice import (
    AliasingWarning,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    warn_at_caller,
    warn_if_aliased,
)

__all__ = [
    "FlowPlan",
    "TimeQuadrature",
    "default_grid",
    "default_time_quadrature",
    "evolve",
    "fourier_symmetry_check",
    "gaussian_l6_sixth_exact",
    "sharp_ratio_exact",
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


@lru_cache(maxsize=64)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n
    per process.

    This is numpy's leggauss step for step, except for its first roots: the
    Legendre companion matrix is the symmetric tridiagonal Jacobi matrix
    (Golub-Welsch), so LAPACK's dsterf solves it in O(n^2) time and O(n)
    memory.  leggauss's dense eigvalsh (dsyevd) tridiagonalizes first, which
    leaves a tridiagonal input unchanged, and then calls the same dsterf; so
    the nodes and weights equal leggauss's bit for bit.  The nodes are exactly
    antisymmetric and the weights exactly symmetric.
    """
    # imported on first use: scipy.linalg at the top of this module added
    # about 0.04 s to the package import (2-CPU host)
    from scipy.linalg import eigvalsh_tridiagonal

    if n < 1:
        raise ValueError(f"a Legendre rule needs at least one node, got {n}")
    c = np.array([0] * n + [1])
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = eigvalsh_tridiagonal(np.zeros(n), off, lapack_driver="sterf")
    # one Newton step; the weights use the derivative from before it
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class TimeQuadrature:
    """Nodes and positive weights for integrals over the time axis."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not self.nodes.size:
            raise ValueError("a time rule needs at least one node, got 0")
        if not np.all(np.isfinite(self.nodes)) or not np.all(np.isfinite(self.weights)):
            raise ValueError("nodes and weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

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
        z, w = _legendre(n_nodes)
        theta = 0.5 * np.pi * z
        w_theta = 0.5 * np.pi * w
        nodes = np.tan(theta) / (4.0 * rate)
        weights = w_theta / (4.0 * rate * np.cos(theta) ** 2)
        return cls(nodes=nodes, weights=weights)

    @classmethod
    def single(cls, t: float) -> "TimeQuadrature":
        return cls(nodes=np.array([t]), weights=np.array([1.0]))


def default_time_quadrature(n_nodes: int = 257) -> TimeQuadrature:
    return TimeQuadrature.compactified(n_nodes)


def default_grid() -> UniformGrid:
    return UniformGrid.symmetric(n=1024, half_width=20.0)


# ---------------------------------------------------------------------------
# gauge crossover
# ---------------------------------------------------------------------------

#: (band margin, mass tail) of the crossover windows, tried in order
_WINDOWS = ((0.90, 1e-12), (0.95, 1e-3))
#: fraction of the half box a direct-gauge solution may fill
_BOX_MARGIN = 0.98


def _intervals(f: WaveFunction) -> list[tuple[float, float]]:
    """(lo, hi) along f's axis for each row of _WINDOWS: at most tail / 2 of
    the mass of |f|^2 lies below lo and at most tail / 2 above hi."""
    cumulative = np.cumsum(np.abs(f.values) ** 2)
    levels = [[0.5 * tail * cumulative[-1], (1.0 - 0.5 * tail) * cumulative[-1]]
              for _, tail in _WINDOWS]
    return [(float(f.axis[lo]), float(f.axis[hi]))
            for lo, hi in np.searchsorted(cumulative, levels)]


def _gauge_crossover(fields) -> list[tuple[float, float]]:
    """(t_factored_min, t_direct_max) for each row of _WINDOWS."""
    nyq = fields[0].grid.nyquist
    bounds = [(0.0, np.inf)] * len(_WINDOWS)
    for f in {id(f): f for f in fields}.values():
        if not np.any(f.values):
            continue  # zero fields do not constrain the gauge
        windows = zip(_WINDOWS, _intervals(f), _intervals(forward_transform(f)))
        for k, ((band_margin, _), (x_lo, x_hi), (xi_lo, xi_hi)) in enumerate(windows):
            t_fact, t_direct = bounds[k]
            room = _BOX_MARGIN * 0.5 * f.grid.extent - 0.5 * (x_hi - x_lo)
            spread = min(0.5 * (xi_hi - xi_lo), band_margin * nyq)
            t_direct = min(t_direct, room / (2.0 * spread) if room > 0 and spread > 0 else 0.0)
            denom = band_margin * nyq - max(-xi_lo, xi_hi)
            t_fact = np.inf if denom <= 0 else max(t_fact, max(-x_lo, x_hi) / (2.0 * denom))
            bounds[k] = t_fact, t_direct
    return [(float(t_fact), float(t_direct)) for t_fact, t_direct in bounds]


def switch_time(fields) -> float:
    """Crossover time between the direct and factored gauges for the given
    spatial-grid functions (a WaveFunction or an iterable of them).

    Below the returned time the periodized multiplier solution has not yet
    wrapped; above it the chirped profile is resolvable on the grid.  Each
    distinct input is transformed once and measured, for each window, by the
    intervals along x and xi that leave mass_tail / 2 of |f|^2 and of |fhat|^2
    beyond each end (one cumulative sum per axis serves every window).
    The direct gauge wraps once the x interval, growing by 2|t| times the xi
    half-width at each end, fills _BOX_MARGIN of the box, wherever the
    intervals sit.  The factored gauge resolves once the chirped frequencies,
    out to the xi reach plus the x reach over 2|t| (reaches from the
    origin), fit in band_margin of the band.  The rows of _WINDOWS are tried
    in turn, and the first window where both hold gives its geometric mean.
    An input that fills the box (hard-banded data, whose slowly decaying
    tails wrap the direct gauge at once) has no window; it switches at 1.2
    times the first finite factored bound, with an AliasingWarning.  A
    spectrum reaching the band edge leaves no finite bound and raises
    ValueError.
    """
    if isinstance(fields, WaveFunction):
        fields = [fields]
    fields = list(fields)
    if not isinstance(fields[0].grid, UniformGrid):
        raise GridMismatchError("switch_time expects spatial-grid functions")
    bounds = _gauge_crossover(fields)
    for t_fact, t_direct in bounds:
        if t_fact < t_direct:
            return float(np.sqrt(t_fact * t_direct)) if t_fact > 0 else 0.5 * t_direct
    finite = [t for t, _ in bounds if np.isfinite(t)]
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

#: (threads, executor) that FlowPlan splits its blocks across, made on first
#: use: one thread per CPU this process may run on, the calling thread and
#: threads - 1 pool workers; no executor on one CPU, where pieces run inline
_POOL: tuple[int, ThreadPoolExecutor | None] | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> tuple[int, ThreadPoolExecutor | None]:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            affinity = getattr(os, "sched_getaffinity", None)  # Linux and a few others
            threads = len(affinity(0)) if affinity else os.cpu_count() or 1
            _POOL = (threads, ThreadPoolExecutor(threads - 1, "flowplan") if threads > 1 else None)
        return _POOL


def _run(fn, pieces: list) -> list:
    """[fn(p) for p in pieces]: the calling thread runs the first piece and
    then each piece no pool worker has started, so a worker slow to wake
    delays nothing.  An exception of a piece is raised here once no piece is
    queued or running."""
    executor = _pool()[1]
    if executor is None or len(pieces) == 1:
        return [fn(p) for p in pieces]
    futures = [executor.submit(fn, p) for p in pieces[1:]]
    try:
        out = [fn(pieces[0])]
        for fut, p in zip(futures, pieces[1:]):
            out.append(fn(p) if fut.cancel() else fut.result())
        return out
    finally:
        for fut in futures:
            fut.cancel()
        wait(futures)


class FlowPlan:
    """The flow on one grid over one time rule, evaluated in row blocks; it
    holds no input, so one plan serves every call on its grid and rule, from
    any number of threads.  tq None is default_time_quadrature(): the one
    place the default rule is built, so every functional passes its tq on."""

    def __init__(self, grid: UniformGrid, tq: TimeQuadrature | None = None):
        if not isinstance(grid, UniformGrid):
            raise GridMismatchError("a flow plan needs a spatial grid")
        self.grid = grid
        self.tq = tq = default_time_quadrature() if tq is None else tq
        dual = grid.dual()
        self.block_rows = max(1, BLOCK_ENTRIES // grid.n)
        m = len(tq.nodes)
        self._keep = m * grid.n * 16 <= TABLE_BYTES
        #: each kept table and its filled rows, allocated by the thread that
        #: makes the plan: a table a pool worker allocated would come from
        #: that worker's malloc arena, which raised the picard benchmark's
        #: peak RSS by about 3 MiB (2-CPU host).  np.empty touches no row
        #: until _table fills it.
        self._tables = {kind: (np.empty((m, grid.n), dtype=complex), np.zeros(m, bool))
                        for kind in ("flow", "chirp")} if self._keep else {}
        self._fill_lock = threading.Lock()
        #: nodes in exact +-t pairs: the rows of -t are conjugates of those of t
        self._symmetric = np.array_equal(tq.nodes, -tq.nodes[::-1])
        #: dx e^{-i x0 xi}: the origin phase of a centred-order transform
        self.phase = grid.dx * np.exp(-1j * grid.x0 * dual.xi)
        self._xi2 = np.fft.ifftshift(dual.xi) ** 2
        # (-1)^j shifts the FFT output to centred order (n is even)
        self._sign = np.where(np.arange(grid.n) % 2, -1.0, 1.0)
        self._x2 = grid.x ** 2
        #: kinds with even rows, row[j] == row[n - j]: flow always, chirp on a
        #: grid symmetric to the last bit (its sign is even because n is)
        self._even = {kind: np.array_equal(a[1:], a[:0:-1]) for kind, a in
                      (("flow", self._xi2), ("chirp", self._x2))}

    def _mirror(self, sl: slice) -> slice:
        """The t < 0 rows, ascending, that mirror the t >= 0 rows sl of a
        symmetric rule; t = 0 has no mirror, and an asymmetric rule none."""
        m = len(self.tq.nodes)
        return slice(m - sl.stop, min(m - sl.start, m // 2)) if self._symmetric else slice(0, 0)

    def _table(self, kind: str, sl: slice) -> np.ndarray:
        """Rows sl of a kept phase table (see _phases), on any thread.  The
        rows of sl not yet filled are filled first, under the plan's lock,
        each run of missing rows in place; a filled row is never written
        again, so views that other threads hold stay valid."""
        table, filled = self._tables[kind]
        with self._fill_lock:
            todo = np.arange(len(self.tq.nodes))[sl][~filled[sl]]
            runs = np.split(todo, np.flatnonzero(np.diff(todo) != 1) + 1) if todo.size else []
            for run in runs:
                src = slice(int(run[0]), int(run[-1]) + 1)
                self._phases(kind, src, table[src])
                filled[src] = True
        return table[sl]

    def _phases(self, kind: str, sl: slice, out: np.ndarray) -> np.ndarray:
        """Rows sl of a phase table, written into out: "flow" e^{it xi^2}
        in FFT order, "chirp" (-1)^j e^{-i x_j^2 / 4t}.  An even kind takes
        exponentials on columns 0..n/2 only, copying column n - j from j."""
        t = self.tq.nodes[sl, None]
        if kind == "flow":
            coef, arg = 1j * t, self._xi2
        else:
            # 1/4t; a t = 0 node is never factored, so its row is never read
            coef, arg = -1j * np.divide(0.25, t, out=np.zeros_like(t), where=t != 0), self._x2
        n = self.grid.n
        h = n // 2 + 1 if self._even[kind] else n
        half = out[:, :h]
        np.multiply(coef, arg[:h], out=half)
        np.exp(half, out=half)
        if kind == "chirp":
            half *= self._sign[:h]
        out[:, h:] = out[:, n - h:0:-1]  # columns n/2-1..1; nothing when h == n
        return out

    def _piece(self, factored: bool, inputs: dict, fields, fn, task):
        """fn's results on the rows of the mirror (None when there is none) and
        of the piece sl of task = (sl, (row buffer, phase buffer)).  The rows of
        every input go through one transform in the row buffer.  The phase rows
        of sl are a view of the kept table, or are computed in the phase buffer
        on a plan that keeps none; once sl is reduced, their conjugates, which
        are exact, go into the phase buffer for the mirror rows."""
        sl, (row_buf, phase_buf) = task
        n = self.grid.n
        kind, transform = ("chirp", np.fft.fft) if factored else ("flow", np.fft.ifft)

        def apply(phases):
            buf = row_buf[:len(inputs) * phases.size].reshape(len(inputs), -1, n)
            for b, v in zip(buf, inputs.values()):
                np.multiply(phases, v, out=b)
            transform(buf, axis=-1, out=buf)
            if factored:
                buf *= self.phase
            rows = dict(zip(inputs, buf))
            return fn([rows[id(f)] for f in fields], phases, factored)

        own = phase_buf[:(sl.stop - sl.start) * n].reshape(-1, n)
        phases = self._table(kind, sl) if self._keep else self._phases(kind, sl, own)
        out = apply(phases)
        mirror = self._mirror(sl)
        count = mirror.stop - mirror.start
        return (apply(np.conj(phases, out=own)[::-1][:count]) if count else None), out

    def reduce_blocks(self, fields, switch: float | None, fn):
        """Evolve fields over runs of at most block_rows nodes in one gauge
        (factored when |t| > switch; switch None takes the inputs'
        switch_time, the one place the crossover is chosen) and reduce each
        block's rows with fn.  Yields (nodes, factored, out), out[i] the i-th
        array fn returns, joined along rows over the block's pieces.

        fn(rows, phases, factored) gets rows[i], the rows of fields[i] at a
        run of nodes: samples u(x_j, t_k) in the direct gauge, ghat_{t_k} on
        the centred dual grid in the factored gauge, as factored says; an
        input passed in several slots is evolved once.  phases are the rows
        that made them: the flow multiplier e^{it xi^2}, or the chirp of the
        factored gauge.  fn returns arrays whose first axis runs over the
        rows, which the walk joins and yields with the run's nodes.  It may
        run on any thread of the pool, and may keep no view of rows or
        phases: the engine reuses both buffers for the next rows.

        A symmetric rule is walked over its t >= 0 half, each block preceded by
        its mirror block; any other rule is walked in ascending order.  Each
        block is split into one piece per thread (with its mirror rows), whose
        buffers every block reuses, and the next block starts only once all
        pieces of this one are joined.
        """
        if any(f.grid != self.grid for f in fields):
            raise GridMismatchError("all inputs must share the plan's grid")
        if switch is None:
            switch = switch_time(fields)
        distinct = {id(f): f.values for f in fields}
        spectra = {key: np.fft.fft(v) for key, v in distinct.items()}
        m = len(self.tq.nodes)
        first = m // 2 if self._symmetric else 0
        factored = np.abs(self.tq.nodes) > switch
        runs = [first, *(np.flatnonzero(np.diff(factored[first:])) + 1 + first).tolist(), m]
        # one piece per thread, with a row buffer and a phase buffer for the
        # longest piece of any block, made here so that the engine allocates
        # none on the pool's workers (what fn allocates there is its own)
        n, width = self.grid.n, min(self.block_rows, m - first)
        count = min(_pool()[0], width)
        longest = -(-width // count)
        buffers = [(np.empty(len(distinct) * longest * n, dtype=complex),
                    np.empty(longest * n, dtype=complex)) for _ in range(count)]
        for a, b in zip(runs[:-1], runs[1:]):
            fac = bool(factored[a])
            piece = partial(self._piece, fac, distinct if fac else spectra, fields, fn)
            for start in range(a, b, self.block_rows):
                sl = slice(start, min(start + self.block_rows, b))
                k = min(count, sl.stop - start)
                edges = [start + i * (sl.stop - start) // k for i in range(k + 1)]
                parts = _run(piece, list(zip(map(slice, edges[:-1], edges[1:]), buffers)))
                mirror = self._mirror(sl)
                if mirror.stop > mirror.start:
                    yield mirror, fac, _join([p for p, _ in reversed(parts) if p is not None])
                yield sl, fac, _join([p for _, p in parts])
                del parts  # free this block before the next is built

    def blocks(self, fields, switch: float | None):
        """(nodes, factored, rows) for every block of reduce_blocks, rows[i] the rows
        of fields[i] at those nodes."""
        return self.reduce_blocks(fields, switch, lambda rows, *_: [r.copy() for r in rows])

    def measure(self, sl: slice, factored: bool, degree: float) -> np.ndarray:
        """w_k times the x-measure of the rows sl, for an integrand of the given
        degree in |u|: dx on direct rows; on factored rows the Jacobian 2|t| dxi
        of x = -2tw times the amplitude (4 pi |t|)^{-1/2} per degree."""
        w = self.tq.weights[sl]
        if not factored:
            return w * self.grid.dx
        t = np.abs(self.tq.nodes[sl])
        return w * (4.0 * np.pi * t) ** (-0.5 * degree) * 2.0 * t * self.grid.dual().dxi

    def integral(self, fields, switch: float | None = None, conj_count: int = 0,
                 power: float | None = None) -> complex:
        """sum_k w_k int conj(u_1 .. u_c) u_{c+1} .. u_m dx, or sum_k w_k int |u_1 .. u_m|^power
        dx when power is given; switch as in reduce_blocks."""
        degree = len(fields) * (1.0 if power is None else power)

        def row_sums(rows, *_):
            prod = reduce(np.multiply, [np.conj(r) for r in rows[:conj_count]] + rows[conj_count:])
            if power is not None:
                prod = np.abs(prod)
                prod **= power
            return (prod.sum(axis=-1),)

        total = 0.0 + 0.0j
        for sl, factored, (sums,) in self.reduce_blocks(fields, switch, row_sums):
            total += self.measure(sl, factored, degree) @ sums
        return complex(total)


def _join(parts: list) -> list:
    """The arrays of several pieces' results, each joined along rows in order."""
    if len(parts) == 1:
        return list(parts[0])
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def _flow_lp_sum(f: WaveFunction, plan: FlowPlan, p: float) -> float:
    """sum_k w_k int |u(., t_k)|^p dx for u = e^{it Delta} f.  The sum of |u|^p
    aliases long before the flow does, so it warns from half the band limit on
    (e^{-50x^2}: 1.4e-11 off C1, with 1.4e-8 of its tail beyond half the band)."""
    warn_if_aliased(f, band_fraction=0.5, context="the ratio's L^p sum")
    return plan.integral([f], power=p).real


# ---------------------------------------------------------------------------
# evolution and the sharp-constant ratio
# ---------------------------------------------------------------------------

def evolve(f: WaveFunction, t: float) -> WaveFunction:
    """Apply the frequency multiplier e^{i t xi^2}; unitary in L^2.

    Valid as a pointwise representation of u(. , t) while the solution still
    fits in the periodic box: past the direct gauge's widest horizon (the last
    row of _WINDOWS, see switch_time) it warns with an AliasingWarning.
    """
    warn_if_aliased(f, band_fraction=7.0 / 8.0, context="evolve")
    horizon = _gauge_crossover([f])[-1][1]
    if abs(t) > horizon:
        warn_at_caller(f"evolve to |t| = {abs(t):.3g} returns the flow wrapped around the "
                       f"periodic box, whose direct horizon is {horizon:.3g}", AliasingWarning)
    (_, _, (rows,)), = FlowPlan(f.grid, TimeQuadrature.single(t)).blocks([f], np.inf)
    return WaveFunction(f.grid, rows[0])


def strichartz_ratio(f: WaveFunction, tq: TimeQuadrature | None = None) -> float:
    """|| e^{it Delta} f ||_{L^6_{t,x}} / ||f||_2 for the given quadrature.

    The supremum of this functional over nonzero f is the sharp constant
    12^{-1/12}; Gaussians attain it.
    """
    l2 = lp_norm(f, 2)
    if l2 == 0:
        raise ValueError("strichartz_ratio requires a nonzero input")
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
    """f^vee(x) = (1/2pi) int e^{i x xi} f(xi) dxi placed on the dual axis, read
    as a spatial axis: the samples keep their places."""
    fhat = forward_transform(f)
    vals = fhat.values
    # fhat(-xi) on the centered grid: index 0 is self-paired (one-sided Nyquist)
    flipped = np.concatenate([vals[:1], vals[1:][::-1]])
    grid = UniformGrid(n=fhat.grid.n, dx=fhat.grid.dxi, x0=float(fhat.grid.xi[0]))
    return WaveFunction(grid, flipped / (2.0 * np.pi))


def fourier_symmetry_check(f: WaveFunction, tq: TimeQuadrature | None = None) -> FourierSymmetryResult:
    """Compare the Strichartz L^6 norms of f and of its inverse transform.

    Returns both normalized ratios and the fitted proportionality constant
    C = ||e^{it Delta} f||_6 / ||e^{it Delta} f^vee||_6, which is observed to
    be constant (= sqrt(2 pi) under these conventions) across inputs.
    """
    finv = _inverse_fourier_profile(f)
    ratio_f = strichartz_ratio(f, tq)
    ratio_finv = strichartz_ratio(finv, tq)
    return FourierSymmetryResult(
        ratio_f=ratio_f,
        ratio_finv=ratio_finv,
        fitted_c=ratio_f * lp_norm(f, 2) / (ratio_finv * lp_norm(finv, 2)),
    )
