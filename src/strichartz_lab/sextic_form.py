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
  (sigma - xi_4)/2 +- (sqrt 3 / 2) h cos(phi).
"""

from __future__ import annotations

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


def _hat_spline(f: WaveFunction):
    """Quintic spline of the frequency samples, zero outside the grid span.

    Points whose neighboring samples are exact zeros evaluate to zero: for
    hard-banded inputs this suppresses the spline's ringing into the band
    gap, which would otherwise contribute spurious mass to absolute-value
    integrands.
    """
    if isinstance(f.grid, FrequencyGrid):
        fhat = f
    else:
        fhat = forward_transform(f)
    xi = fhat.grid.xi
    spl = make_interp_spline(xi, fhat.values, k=5)
    lo, hi = xi[0], xi[-1]
    support = fhat.values != 0
    full_support = bool(support.all())
    dxi = fhat.grid.dxi
    n = fhat.grid.n

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape, dtype=complex)
        inside = (pts >= lo) & (pts <= hi)
        if not inside.any():
            return out
        vals = spl(pts[inside])
        if not full_support:
            left = np.clip(np.floor((pts[inside] - lo) / dxi).astype(int), 0, n - 1)
            right = np.clip(left + 1, 0, n - 1)
            vals = np.where(support[left] & support[right], vals, 0.0)
        out[inside] = vals
        return out

    return evaluate, fhat


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
    edges = np.diff(live.astype(int))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1))
    if live[0]:
        starts.insert(0, 0)
    if live[-1]:
        ends.append(fhat.grid.n - 1)
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
    nodes = []
    weights = []
    for lo, hi in _support_panels(fhat):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes.append(mid + half * z)
        weights.append(half * wz)
    return np.concatenate(nodes), np.concatenate(weights)


def _constraint_quadrature(hat_evals, axes, n_phi: int, exponent=None) -> complex:
    """Shared engine for q_quadrature and m_weighted.

    hat_evals: six callables returning (possibly conjugated / absolute)
    factor values; slots 0-2 are the outer tensor directions (axes holds one
    (nodes, weights) rule per slot), slot 3 the angular variable, slots 4-5
    the constraint roots.  exponent, when given, is a callable
    (eta1, .., eta6) -> real array added as exp(.) under the integral.
    Summation is plain nested numpy reduction in a fixed order, so results
    are reproducible bit for bit.
    """
    pz, pw = leggauss(n_phi)
    phi = 0.5 * np.pi * pz
    wphi = 0.5 * np.pi * pw
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)

    n1 = axes[0][0]
    x2, x3 = np.meshgrid(axes[1][0], axes[2][0], indexing="ij")
    w23 = np.outer(axes[1][1], axes[2][1])

    e1, e2, e3, e4, e5, e6 = hat_evals
    f2_vals = e2(x2[:, 0])
    f3_vals = e3(x3[0, :])
    outer23 = np.outer(f2_vals, f3_vals)

    total = 0.0 + 0.0j
    for x1, w1 in zip(n1, axes[0][1]):
        sigma = x1 + x2 + x3
        tau = x1 ** 2 + x2 ** 2 + x3 ** 2
        h = np.sqrt(np.maximum(2.0 * tau - 2.0 * sigma ** 2 / 3.0, 0.0) / 3.0)
        xi4 = sigma[..., None] / 3.0 + h[..., None] * sin_phi
        half_gap = 0.5 * np.sqrt(3.0) * h[..., None] * cos_phi
        mid = 0.5 * (sigma[..., None] - xi4)
        p = mid + half_gap
        q = mid - half_gap
        f4 = e4(xi4)
        pairing = e5(p) * e6(q) + e5(q) * e6(p)
        integrand = f4 * pairing
        if exponent is not None:
            integrand = integrand * np.exp(
                exponent(x1, x2[..., None], x3[..., None], xi4, p, q)
            )
        inner = (integrand * wphi).sum(axis=-1) / (2.0 * np.sqrt(3.0))
        total += w1 * e1(np.atleast_1d(x1))[0] * (w23 * outer23 * inner).sum()
    return complex(total)


def q_quadrature(f1: WaveFunction, f2: WaveFunction, f3: WaveFunction,
                 f4: WaveFunction, f5: WaveFunction, f6: WaveFunction,
                 n_outer: int = 48, n_phi: int = 48) -> complex:
    """Q evaluated directly on the constraint set (see module docstring).

    Agrees with q_spacetime to quadrature tolerance; the two routes are
    mutually independent oracles.
    """
    splines = []
    fhats = []
    for f in (f1, f2, f3, f4, f5, f6):
        ev, fhat = _hat_spline(f)
        splines.append(ev)
        fhats.append(fhat)
    grid0 = fhats[0].grid
    for fh in fhats[1:]:
        if fh.grid != grid0:
            raise GridMismatchError("all inputs must share one grid")
    axes = [_axis_rule(fhats[i], n_outer) for i in range(3)]
    s1, s2, s3, s4, s5, s6 = splines
    hat_evals = (
        lambda v: np.conj(s1(v)),
        lambda v: np.conj(s2(v)),
        lambda v: np.conj(s3(v)),
        s4,
        s5,
        s6,
    )
    return _constraint_quadrature(hat_evals, axes, n_phi)


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
    for h in (h1, h2, h3, h4, h5, h6):
        if not isinstance(h.grid, FrequencyGrid):
            raise GridMismatchError("m_weighted expects frequency-grid inputs")
    splines = []
    fhats = []
    for h in (h1, h2, h3, h4, h5, h6):
        ev, fhat = _hat_spline(h)
        splines.append(ev)
        fhats.append(fhat)
    axes = [_axis_rule(fhats[i], n_outer) for i in range(3)]
    hat_evals = tuple(
        (lambda ev: (lambda v: np.abs(ev(v))))(ev) for ev in splines
    )

    def exponent(e1, e2, e3, e4, e5, e6):
        return (weight(e1, w) - weight(e2, w) - weight(e3, w)
                - weight(e4, w) - weight(e5, w) - weight(e6, w))

    val = _constraint_quadrature(hat_evals, axes, n_phi, exponent=exponent)
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
