"""Frequency-separated bilinear estimate and its Hausdorff-Young mechanism.

For h_1 with spectrum in |xi| <= s and h_2 with spectrum in Ns <= |xi| <= 2Ns
(N large), the product of the two flows obeys

    || e^{it Delta} h_1 e^{it Delta} h_2 ||_{L^3_{t,x}} <= C N^{-1/6} ||h_1||_2 ||h_2||_2.

The mechanism: the product is a space-time inverse transform of

    G(gamma, tau) = fhat_1(xi) fhat_2(eta) |J|,   gamma = xi + eta,
    tau = xi^2 + eta^2,   |J| = (2 tau - gamma^2)^{-1/2} = |xi - eta|^{-1},

and Hausdorff-Young at (3, 3/2) bounds the L^3 norm by the L^{3/2} norm of
G.  Changing variables back to (xi, eta) reduces that to a double integral
against |xi - eta|^{-1/2}, nonsingular exactly because the supports are
separated.  Under the nonunitary conventions here the inequality carries the
constant (2 pi)^{-4/3}, which is folded into hausdorff_young_density so that
it is a true numeric upper bound for bilinear_l3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
)
from .propagator import FlowPlan, TimeQuadrature, default_time_quadrature

__all__ = [
    "SweepResult",
    "bilinear_l3",
    "hausdorff_young_density",
    "make_band_limited",
    "pair_time_quadrature",
    "save_sweep",
    "separation_sweep",
    "sweep_grid",
]


def make_band_limited(grid: UniformGrid, lo: float, hi: float, profile: str = "flat",
                      seed: int = 0) -> WaveFunction:
    """Unit-L^2 function whose transform is supported exactly in the band
    lo <= |xi| <= hi (hard cutoff on the frequency grid).

    Profiles: "flat" (constant modulus), "random" (seeded complex normal
    samples), "gaussian-bump" (smooth bump centered in the band).
    """
    if not 0 <= lo < hi:
        raise ValueError(f"band requires 0 <= lo < hi, got [{lo}, {hi}]")
    dual = grid.dual()
    if hi > dual.nyquist:
        raise ValueError(f"band [{lo}, {hi}] exceeds the Nyquist frequency {dual.nyquist:.4g}")
    xi = dual.xi
    mask = (np.abs(xi) >= lo) & (np.abs(xi) <= hi)
    if not mask.any():
        raise ValueError("band contains no grid frequencies; refine the grid")
    vals = np.zeros(grid.n, dtype=complex)
    if profile == "flat":
        vals[mask] = 1.0
    elif profile == "random":
        rng = np.random.default_rng(seed)
        k = int(mask.sum())
        vals[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    elif profile == "gaussian-bump":
        center = 0.5 * (lo + hi)
        width = max(0.25 * (hi - lo), dual.dxi)
        vals[mask] = np.exp(-((np.abs(xi[mask]) - center) / width) ** 2)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    f = inverse_transform(WaveFunction(dual, vals))
    f.values = f.values / lp_norm(f, 2)
    return f


def bilinear_l3(h1: WaveFunction, h2: WaveFunction, tq: TimeQuadrature | None = None,
                switch: float | None = None) -> float:
    """L^3 space-time norm of e^{it Delta} h_1 * e^{it Delta} h_2; switch
    defaults to switch_time([h1, h2])."""
    if lp_norm(h1, 2) == 0 or lp_norm(h2, 2) == 0:
        return 0.0
    if tq is None:
        tq = default_time_quadrature()
    return float(FlowPlan(h1.grid, tq).integral([h1, h2], switch, power=3.0).real ** (1.0 / 3.0))


def hausdorff_young_density(h1: WaveFunction, h2: WaveFunction) -> float:
    """(2 pi)^{-4/3} || G ||_{L^{3/2}} computed in the (xi, eta) variables.

    Requires disjoint frequency supports; the change of variables is
    singular on the diagonal xi = eta.
    """
    f1 = forward_transform(h1)
    f2 = forward_transform(h2)
    if f1.grid != f2.grid:
        raise GridMismatchError("inputs must share one grid")
    xi = f1.grid.xi
    m1 = np.abs(f1.values)
    m2 = np.abs(f2.values)
    sup1 = m1 > 1e-14 * m1.max()
    sup2 = m2 > 1e-14 * m2.max()
    if not sup1.any() or not sup2.any():
        raise ValueError("empty frequency support")
    xi1 = xi[sup1]
    xi2 = xi[sup2]
    gap = np.abs(xi1[:, None] - xi2[None, :]).min()
    if gap < f1.grid.dxi / 2:
        raise ValueError("frequency supports overlap; the Jacobian is singular")
    a = m1[sup1] ** 1.5
    b = m2[sup2] ** 1.5
    ker = np.abs(xi1[:, None] - xi2[None, :]) ** (-0.5)
    integral = f1.grid.dxi ** 2 * (a[:, None] * ker * b[None, :]).sum()
    return float((2.0 * np.pi) ** (-4.0 / 3.0) * integral ** (2.0 / 3.0))


def sweep_grid(N: float, s: float, box_half_width: float = 80.0) -> UniformGrid:
    """Grid large enough that the high band 2Ns sits at or below half the
    Nyquist frequency."""
    target_nyquist = 4.0 * N * s
    n_min = 2.0 * box_half_width * target_nyquist / np.pi
    n = 1 << max(11, math.ceil(math.log2(n_min)))
    return UniformGrid.symmetric(n=n, half_width=box_half_width)


@dataclass
class SweepResult:
    s: float
    profile: str
    seed: int
    ns: list[float]
    values: list[float]
    bounds: list[float]

    @property
    def slope(self) -> float:
        """Least-squares log-log slope over every fitted point; nan below two."""
        return (self.slope_so_far() or [float("nan")])[-1]

    def slope_so_far(self) -> list[float]:
        """Cumulative least-squares slope over the first k >= 2 fitted points
        (N > 1), nan for k = 1."""
        out = []
        logs = [(np.log(n), np.log(v)) for n, v in zip(self.ns, self.values) if n > 1]
        for k in range(1, len(logs) + 1):
            if k < 2:
                out.append(float("nan"))
                continue
            xs = np.array([p[0] for p in logs[:k]])
            ys = np.array([p[1] for p in logs[:k]])
            out.append(float(np.polyfit(xs, ys, 1)[0]))
        return out


def pair_time_quadrature(N: float, s: float) -> TimeQuadrature:
    """Compactified rule resolving both time scales of a separated pair.

    The product of the flows decoheres on t ~ 1/(3 (2Ns)^2) while the low
    band evolves on t ~ 1/s^2; a rate N s^2 rule with ~32 N nodes resolves
    the fast scale and still covers the slow tail.
    """
    n_nodes = int(max(257, 32 * N + 1)) | 1
    return TimeQuadrature.compactified(n_nodes, rate=max(1.0, N * s ** 2))


def separation_sweep(s: float, Ns: list[float], profile: str = "flat", seed: int = 0,
                     box_half_width: float = 80.0,
                     tq: TimeQuadrature | None = None) -> SweepResult:
    """Table of (N, bilinear_l3) for unit-norm separated pairs and the fitted
    log-log slope.

    N <= 1 entries are evaluated but excluded from the fit (the separation
    hypothesis requires N >> 1); where their bands touch on the grid, the
    Hausdorff-Young bound is singular and reads nan.  Grids are enlarged
    with N so no band is ever clipped by the Nyquist frequency (silent
    clipping would fake decay), and the time rule is refined with N to
    track the shrinking decoherence scale.  Passing tq overrides the per-N
    rule.
    """
    values = []
    bounds = []
    for N in Ns:
        grid = sweep_grid(N, s, box_half_width)
        h1 = make_band_limited(grid, 0.0, s, profile, seed)
        h2 = make_band_limited(grid, N * s, 2.0 * N * s, profile, seed + 1)
        pair_tq = tq if tq is not None else pair_time_quadrature(max(N, 1.0), s)
        values.append(bilinear_l3(h1, h2, pair_tq))
        try:
            bounds.append(hausdorff_young_density(h1, h2))
        except ValueError:
            bounds.append(float("nan"))
    return SweepResult(s=s, profile=profile, seed=seed, ns=list(Ns), values=values,
                       bounds=bounds)


def save_sweep(result: SweepResult, path) -> None:
    """CSV (N, value, bound, slope-so-far) plus log-log columns for plotting."""
    slopes = iter(result.slope_so_far())
    with open(path, "w") as fh:
        fh.write(f"# bilinear-sweep s={result.s!r} profile={result.profile} "
                 f"seed={result.seed} slope={result.slope!r}\n")
        fh.write("N,value,bound,slope_so_far,log10_N,log10_value\n")
        for N, v, b in zip(result.ns, result.values, result.bounds):
            sl = next(slopes) if N > 1 else float("nan")
            fh.write(f"{float(N)!r},{float(v)!r},{float(b)!r},{float(sl)!r},"
                     f"{float(np.log10(N))!r},{float(np.log10(v))!r}\n")
