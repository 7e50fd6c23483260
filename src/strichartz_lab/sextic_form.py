"""The sextic multilinear form over the momentum-energy constraint set.

The form pairs six functions over the surface where both the frequency sums
and the squared-frequency sums of the two triples balance:

    Q(f_1..f_6) = int conj(fhat_1 fhat_2 fhat_3)(xi_1, xi_2, xi_3)
                      (fhat_4 fhat_5 fhat_6)(xi_4, xi_5, xi_6)
                  delta(xi_1+xi_2+xi_3-xi_4-xi_5-xi_6)
                  delta(xi_1^2+..+xi_3^2-xi_4^2-..-xi_6^2) d^6 xi

with delta(z) = (1/2pi) int e^{izx} dx, i.e. the standard Dirac delta.  Two
independent evaluation routes cross-validate each other:

* q_spacetime: KAPPA * int int conj(u_1 u_2 u_3) u_4 u_5 u_6 dx dt with
  u_i = e^{it Delta} f_i.  Resolving the oscillatory integrals shows
  KAPPA = (2 pi)^4 exactly under the conventions of this package; the value
  is also pinned numerically by calibrate_kappa before being frozen here.

* q_quadrature: direct quadrature of the constraint-set integral.  The two
  deltas are resolved in (xi_5, xi_6): given the free variables, the pair is
  the root set of z^2 - S z + (S^2 - T)/2 with S and T the residual sum and
  square sum, contributing both orderings with weight 1/(2 |xi_5 - xi_6|).
  The root-gap singularity at the discriminant boundary is removed exactly
  by parametrizing xi_4 by the angle on the constraint circle:
  xi_4 = sigma/3 + h sin(phi), under which d(xi_4) / (2 sqrt(2T - S^2))
  becomes d(phi) / (2 sqrt 3) with the roots at
  (sigma - xi_4)/2 +- (sqrt 3 / 2) h cos(phi).  Factors are read off the
  quintic spline of each input's frequency samples, kept as a per-cell
  Taylor table (_hat_spline) and evaluated by one index lookup and a Horner
  step; cells touching an exact zero sample read zero.  Tables at the same
  points share one lookup, and an input in both root slots is evaluated
  once per root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import make_interp_spline

from .lattice import (
    FrequencyGrid,
    GridMismatchError,
    WaveFunction,
    forward_transform,
    warn_if_aliased,
)
from .propagator import FlowPlan, TimeQuadrature, default_time_quadrature

__all__ = [
    "KAPPA",
    "WeightParams",
    "calibrate_kappa",
    "m_weighted",
    "q_quadrature",
    "q_spacetime",
    "weight",
]

#: delta-normalization constant relating the space-time integral to Q
KAPPA = (2.0 * np.pi) ** 4


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the bounded bootstrap weight mu xi^2 / (1 + eps xi^2)."""

    mu: float
    eps: float

    def __post_init__(self):
        if self.mu < 0 or self.eps < 0:
            raise ValueError("mu and eps must be nonnegative")


def weight(xi, w: WeightParams):
    """The bootstrap weight F(xi) = mu xi^2 / (1 + eps xi^2).

    Nondecreasing in |xi|; bounded by mu/eps when eps > 0, equal to mu xi^2
    when eps = 0.
    """
    xi = np.asarray(xi, dtype=float)
    out = w.mu * xi ** 2 / (1.0 + w.eps * xi ** 2)
    return float(out) if out.ndim == 0 else out


def q_spacetime(f1: WaveFunction, f2: WaveFunction, f3: WaveFunction,
                f4: WaveFunction, f5: WaveFunction, f6: WaveFunction,
                tq: TimeQuadrature | None = None) -> complex:
    """Q evaluated through the flow: KAPPA * int int conj(u1 u2 u3) u4 u5 u6.

    Conjugate-linear in slots 1-3, linear in slots 4-6; real and nonnegative
    when all six slots carry the same function.
    """
    if tq is None:
        tq = default_time_quadrature()
    for f in (f1, f2, f3, f4, f5, f6):
        # sextic pointwise products spread the spectrum sixfold
        if warn_if_aliased(f, band_fraction=1.0 / 6.0, tol=1e-8, context="q_spacetime"):
            break
    fields = [f1, f2, f3, f4, f5, f6]
    return KAPPA * FlowPlan(f1.grid, tq).integral(fields, conj_count=3)


def _hat_spline(f: WaveFunction) -> tuple[np.ndarray, WaveFunction]:
    """Taylor table of the quintic spline of the frequency samples, and fhat.

    make_interp_spline(xi, fhat, k=5) has its knots at samples, so it is one
    quintic on each cell [xi_l, xi_{l+1}]: column l of the (6, n) table holds
    a_{l,m} = s^{(m)}(xi_l+) dxi^m / m!, and s(xi_l + u dxi) = sum_m a_{l,m} u^m.
    The last column, where _cells sends points outside the span, is zero, and
    so is a cell with an exact zero sample at either end: for hard-banded
    inputs this suppresses the spline's ringing into the band gap, which would
    otherwise add spurious mass to absolute-value integrands.
    """
    fhat = f if isinstance(f.grid, FrequencyGrid) else forward_transform(f)
    xi = fhat.grid.xi
    spl = make_interp_spline(xi, fhat.values, k=5)
    table = np.zeros((6, fhat.grid.n), dtype=complex)
    for m in range(6):
        table[m, :-1] = spl(xi[:-1], nu=m) * (fhat.grid.dxi ** m / math.factorial(m))
    live = fhat.values != 0
    table[:, :-1][:, ~(live[:-1] & live[1:])] = 0.0
    return table, fhat


def _cells(grid: FrequencyGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table column and offset u in [0, 1) of each point; points outside
    [xi_0, xi_{n-1}) get column -1 or n - 1, the zero column."""
    u = (pts - grid.xi[0]) / grid.dxi
    col = np.floor(u)
    u -= col
    return np.clip(col, -1, grid.n - 1, out=col).astype(np.intp), u


def _interpolate(table: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The spline of a _hat_spline table at looked-up points (Horner in u)."""
    col, u = cells
    out = table[5].take(col)
    for row in table[4::-1]:
        out *= u
        out += row.take(col)
    return out


def _support_panels(fhat: WaveFunction, rel_floor: float = 1e-13) -> list[tuple[float, float]]:
    """Intervals covering the live samples of fhat, padded by a few cells.

    Hard-banded inputs give one panel per band component, so quadrature
    nodes are not wasted on gaps where the integrand vanishes.
    """
    mag = np.abs(fhat.values)
    top = mag.max()
    xi = fhat.grid.xi
    dxi = fhat.grid.dxi
    pad = 3.0 * dxi
    if top == 0:
        return [(-pad, pad)]
    live = mag > rel_floor * top
    edges = np.diff(np.concatenate([[0], live.astype(int), [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    panels = [[xi[a] - pad, xi[b] + pad] for a, b in zip(starts, ends)]
    # merge panels separated by less than a few cells
    merged = [panels[0]]
    for lo, hi in panels[1:]:
        if lo - merged[-1][1] < 3.0 * pad:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    nyq = fhat.grid.nyquist
    return [(max(lo, -nyq), min(hi, nyq)) for lo, hi in merged]


def _axis_rule(fhat: WaveFunction, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the support panels of fhat."""
    z, wz = leggauss(n_nodes)
    panels = _support_panels(fhat)
    return (np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * z for lo, hi in panels]),
            np.concatenate([0.5 * (hi - lo) * wz for lo, hi in panels]))


def _constraint_quadrature(fs, n_outer: int, n_phi: int, absolute: bool = False,
                           exponent=None) -> complex:
    """Shared engine for q_quadrature and m_weighted.

    fs holds the six inputs: slots 0-2 are the outer tensor directions, slot
    3 the angular variable, slots 4-5 the constraint roots.  Each distinct
    input object gets one _hat_spline table; factors are conjugated in slots
    0-2, or all taken in absolute value when absolute is set.  With one object
    in slots 4-5 the pairing e(p) e(q) + e(q) e(p) comes from its two
    evaluations, bit for bit what two copies give.  exponent, when given, is
    a callable (eta1, .., eta6) -> real array added as exp(.) under the
    integral.  Summation is plain nested numpy reduction in a fixed order, so
    results are reproducible bit for bit.
    """
    distinct = {id(f): f for f in fs}
    tables = {key: _hat_spline(f) for key, f in distinct.items()}
    fhats = [tables[id(f)][1] for f in fs]
    grid = fhats[0].grid
    if any(fh.grid != grid for fh in fhats):
        raise GridMismatchError("all inputs must share one grid")
    axes = [_axis_rule(fhats[i], n_outer) for i in range(3)]
    t1, t2, t3, t4, t5, t6 = (tables[id(f)][0] for f in fs)

    def values(table, cells):
        vals = _interpolate(table, cells)
        return np.abs(vals) if absolute else vals

    pz, pw = leggauss(n_phi)
    wphi = 0.5 * np.pi * pw
    sin_phi, cos_phi = np.sin(0.5 * np.pi * pz), np.cos(0.5 * np.pi * pz)

    x2, x3 = np.meshgrid(axes[1][0], axes[2][0], indexing="ij")
    w23 = np.outer(axes[1][1], axes[2][1])
    outer_vals = [_interpolate(t, _cells(grid, ax[0])) for t, ax in zip((t1, t2, t3), axes)]
    f1_vals, f2_vals, f3_vals = (np.abs(v) if absolute else np.conj(v) for v in outer_vals)
    outer23 = np.outer(f2_vals, f3_vals)

    total = 0.0 + 0.0j
    for x1, w1, f1 in zip(*axes[0], f1_vals):
        sigma = x1 + x2 + x3
        tau = x1 ** 2 + x2 ** 2 + x3 ** 2
        h = np.sqrt(np.maximum(2.0 * tau - 2.0 * sigma ** 2 / 3.0, 0.0) / 3.0)
        xi4 = sigma[..., None] / 3.0 + h[..., None] * sin_phi
        half_gap = 0.5 * np.sqrt(3.0) * h[..., None] * cos_phi
        mid = 0.5 * (sigma[..., None] - xi4)
        p, q = mid + half_gap, mid - half_gap
        del mid, half_gap
        if exponent is not None:
            factor = np.exp(exponent(x1, x2[..., None], x3[..., None], xi4, p, q))
        integrand = values(t4, _cells(grid, xi4))
        at_p, at_q = _cells(grid, p), _cells(grid, q)
        del xi4, p, q
        pairing = values(t5, at_p) * values(t6, at_q)
        if fs[4] is fs[5]:
            pairing += pairing
        else:
            pairing += values(t5, at_q) * values(t6, at_p)
        del at_p, at_q
        integrand *= pairing
        del pairing
        if exponent is not None:
            integrand *= factor
            del factor
        integrand *= wphi
        total += w1 * f1 * (w23 * outer23 * (integrand.sum(axis=-1) / (2.0 * np.sqrt(3.0)))).sum()
    return complex(total)


def q_quadrature(f1: WaveFunction, f2: WaveFunction, f3: WaveFunction,
                 f4: WaveFunction, f5: WaveFunction, f6: WaveFunction,
                 n_outer: int = 48, n_phi: int = 48) -> complex:
    """Q evaluated directly on the constraint set (see module docstring).

    Agrees with q_spacetime to quadrature tolerance; the two routes are
    mutually independent oracles.
    """
    return _constraint_quadrature((f1, f2, f3, f4, f5, f6), n_outer, n_phi)


def m_weighted(h1: WaveFunction, h2: WaveFunction, h3: WaveFunction,
               h4: WaveFunction, h5: WaveFunction, h6: WaveFunction,
               w: WeightParams, n_outer: int = 48, n_phi: int = 48) -> float:
    """Weighted absolute sextic form over the constraint set.

    Inputs live on the frequency grid.  The integrand is
    exp(F(eta_1) - sum_{k>=2} F(eta_k)) prod |h_k(eta_k)| against the same
    constraint measure as q_quadrature.  On the constraint set
    eta_1^2 <= eta_2^2 + .. + eta_6^2, so the exponential factor is <= 1 and
    the weighted form never exceeds the unweighted one.
    """
    hs = (h1, h2, h3, h4, h5, h6)
    if not all(isinstance(h.grid, FrequencyGrid) for h in hs):
        raise GridMismatchError("m_weighted expects frequency-grid inputs")

    def exponent(e1, e2, e3, e4, e5, e6):
        return (weight(e1, w) - weight(e2, w) - weight(e3, w)
                - weight(e4, w) - weight(e5, w) - weight(e6, w))

    val = _constraint_quadrature(hs, n_outer, n_phi, absolute=True, exponent=exponent)
    return float(val.real)


def calibrate_kappa(inputs: list[WaveFunction], tq: TimeQuadrature | None = None,
                    n_outer: int = 48, n_phi: int = 48):
    """Ratio of the constraint-set integral to the raw space-time integral
    for each input, used to pin the delta normalization before trusting the
    frozen KAPPA.

    Returns (ratios, spread) where spread is the maximal relative deviation
    of the ratios from their mean.  The ratios must agree with each other
    (and with (2 pi)^4) for the normalization to be considered calibrated.
    """
    if tq is None:
        tq = default_time_quadrature()
    ratios = []
    for f in inputs:
        spacetime_raw = FlowPlan(f.grid, tq).integral([f] * 6, conj_count=3)
        direct = q_quadrature(f, f, f, f, f, f, n_outer=n_outer, n_phi=n_phi)
        ratios.append((direct / spacetime_raw).real)
    ratios = np.array(ratios)
    mean = ratios.mean()
    spread = float(np.abs(ratios / mean - 1.0).max())
    return ratios, spread
