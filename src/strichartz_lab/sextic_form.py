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

* q_quadrature: direct quadrature of the constraint-set integral.  Given the
  outer frequencies, with sigma and tau their sum and square sum, the inner
  triple (xi_4, xi_5, xi_6) ranges over the circle
      sigma/3 + h (sin theta, sin(theta + 2pi/3), sin(theta - 2pi/3)),
  h = sqrt((2 tau - 2 sigma^2/3) / 3), on which the two deltas leave the
  measure d(theta) / (2 sqrt 3): the root-gap singularity of resolving them
  in (xi_5, xi_6) is gone, and each ordering of the roots is the point at
  pi - theta.  The integrand is smooth and periodic in theta, so the circle
  takes the n_phi-point trapezoid rule theta_j = pi/2 + 2 pi j / n_phi.  The
  rule has two exact symmetries: when 3 divides n_phi the rotation by 2pi/3,
  which moves each inner slot to the next, maps nodes onto nodes, and the
  reflection theta -> pi - theta pairs them up.  So all three inner slots
  read the same n_phi // 2 + 1 points sigma/3 + h cos(2 pi m / n_phi), and
  node j reads points c(j), c(j + n_phi/3) and c(j - n_phi/3), c folding an
  index into 0 .. n_phi // 2.  n_phi must therefore be a positive multiple
  of 3, and the value is symmetric in the inner slots up to rounding, as
  the continuum is.  Factors are read off each input's frequency samples
  through lattice's off-grid route, the per-cell Taylor table of their
  quintic spline; this module adds only the band-gap rule (_hat_spline),
  under which cells touching an exact zero sample read zero.  Each node
  triple looks its points up once and reads each distinct inner input's
  table there once.

  The circle integral over (xi_4, xi_5, xi_6) depends on the outer
  frequencies only through sigma = xi_1+xi_2+xi_3 and
  tau = xi_1^2+xi_2^2+xi_3^2, which are symmetric in the three.  Outer slots
  whose node arrays are equal therefore see one circle integral per orbit of
  node triples under permuting those slots: it is evaluated once, at the
  triple with sorted node indices, against the outer factors summed over the
  orbit.  All three axes share one rule when the panels of the samples
  live in all three slots hold every live sample of each (_outer_rules);
  the circle evaluations then fall from n^3 to n(n+1)(n+2)/6.

  The circle integrals run on the calling thread, which builds the tables,
  the outer rules and one index array of all representatives, and takes it
  in rounds of at most BLOCK_ENTRIES circle nodes (whole triples).  A round
  evaluates its circle points and nodes in one slab of arrays, allocated
  once per call and reused by every round, sums its contributions as one
  contiguous array, and adds that sum to the total in round order.  So
  q_quadrature and m_weighted depend on the round size BLOCK_ENTRIES //
  n_phi, and on nothing else of the machine they run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .lattice import (
    FrequencyGrid,
    GridMismatchError,
    WaveFunction,
    _cells,
    _interpolate,
    _spectrum,
    _spline_table,
    warn_if_aliased,
)
from .propagator import BLOCK_ENTRIES, FlowPlan, TimeQuadrature, _legendre

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

#: Gauss-Legendre points per support panel on each outer axis of the
#: constraint-set quadrature, and trapezoid points on its full circle (a
#: multiple of 3)
N_OUTER = 48
N_PHI = 48

#: samples of |fhat| above _PANEL_FLOOR of its peak are live, and each support
#: panel reaches _PAD cells beyond its outermost live samples
_PANEL_FLOOR, _PAD = 1e-13, 3


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
    out = _weight(xi, w, np.empty_like(xi), np.empty_like(xi))
    return float(out) if out.ndim == 0 else out


def _weight(xi: np.ndarray, w: WeightParams, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """weight(xi, w) into out; tmp, shaped like xi, holds the denominator."""
    np.multiply(xi, xi, out=out)
    out *= w.mu
    np.multiply(xi, xi, out=tmp)
    tmp *= w.eps
    tmp += 1.0
    out /= tmp
    return out


def q_spacetime(f1: WaveFunction, f2: WaveFunction, f3: WaveFunction,
                f4: WaveFunction, f5: WaveFunction, f6: WaveFunction,
                tq: TimeQuadrature | None = None) -> complex:
    """Q evaluated through the flow: KAPPA * int int conj(u1 u2 u3) u4 u5 u6.

    Conjugate-linear in slots 1-3, linear in slots 4-6; real and nonnegative
    when all six slots carry the same function.
    """
    for f in {id(f): f for f in (f1, f2, f3, f4, f5, f6)}.values():
        # sextic pointwise products spread the spectrum sixfold
        if warn_if_aliased(f, band_fraction=1.0 / 6.0, context="q_spacetime"):
            break
    fields = [f1, f2, f3, f4, f5, f6]
    return KAPPA * FlowPlan(f1.grid, tq).integral(fields, conj_count=3)


def _hat_spline(f: WaveFunction) -> tuple[np.ndarray, WaveFunction]:
    """Taylor table of the quintic spline of the frequency samples, and fhat.

    The table is lattice's off-grid table, read with _cells and _interpolate,
    under the band-gap rule: a cell with an exact zero sample at either end is
    zeroed.  For hard-banded inputs this suppresses the spline's ringing into
    the band gap, which would otherwise add spurious mass to absolute-value
    integrands.
    """
    fhat = _spectrum(f)
    table = _spline_table(fhat)
    live = fhat.values != 0
    table[:, :-1][:, ~(live[:-1] & live[1:])] = 0.0
    return table, fhat


def _live(fhat: WaveFunction) -> np.ndarray:
    """Mask of the live samples of fhat."""
    return np.abs(fhat.values) > _PANEL_FLOOR * np.abs(fhat.values).max()


def _runs(fhat: WaveFunction) -> list[tuple[int, int]]:
    """Index runs (a, b) of fhat's live samples, merged when less than five pads apart."""
    edges = np.diff(np.concatenate([[0], _live(fhat).astype(int), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    if not starts.size:
        return []
    apart = starts[1:] - ends[:-1] >= 5 * _PAD     # gaps that keep two runs apart
    return list(zip(starts[np.r_[True, apart]], ends[np.r_[apart, True]]))


def _support_panels(fhat: WaveFunction) -> list[tuple[float, float]]:
    """Intervals covering the live samples of fhat, padded by _PAD cells.

    Hard-banded inputs give one panel per band component, so quadrature
    nodes are not wasted on gaps where the integrand vanishes.
    """
    xi, pad, nyq = fhat.grid.xi, _PAD * fhat.grid.dxi, fhat.grid.nyquist
    panels = [(max(xi[a] - pad, -nyq), min(xi[b] + pad, nyq)) for a, b in _runs(fhat)]
    return panels or [(-pad, pad)]


def _axis_rule(fhat: WaveFunction, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the support panels of fhat."""
    z, wz = _legendre(n_nodes)
    panels = _support_panels(fhat)
    return (np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * z for lo, hi in panels]),
            np.concatenate([0.5 * (hi - lo) * wz for lo, hi in panels]))


def _outer_rules(fhats, n_nodes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rules of the three outer axes: one _axis_rule, of a spectrum live where
    all three slots are, when its panels hold every live sample of each slot
    (decided on indices: none lies over _PAD cells beyond its runs), else
    each slot's own _axis_rule."""
    lives = [_live(fh) for fh in fhats]
    common = WaveFunction(fhats[0].grid, np.logical_and.reduce(lives).astype(float))
    held = np.zeros_like(lives[0])
    for a, b in _runs(common):
        held[max(a - _PAD, 0):b + _PAD + 1] = True
    if held.any() and not any((live & ~held).any() for live in lives):
        return [_axis_rule(common, n_nodes)] * 3
    return [_axis_rule(fh, n_nodes) for fh in fhats]


def _constraint_quadrature(fs, n_outer: int, n_phi: int,
                           w: WeightParams | None = None) -> complex:
    """Shared engine for q_quadrature and m_weighted.

    fs holds the six inputs: slots 0-2 are the outer tensor directions,
    slots 3-5 the inner ones, read on the circle of the module docstring at
    nodes j, j + n_phi/3 and j - n_phi/3.  Each distinct input object gets
    one _hat_spline table, and each distinct inner input one read of it per
    node triple; factors are conjugated in slots 0-2.  With a weight w, all
    factors are taken in absolute value instead and
    exp(F(eta_1) - F(eta_2) - .. - F(eta_6)) multiplies the integrand.

    The outer axes take one shared rule or their own (_outer_rules).  The
    circle integral depends on the outer node triple only through
    (sigma, tau), so it is evaluated once per orbit of triples under the
    permutations pi of slots 0-2 that map each slot onto one with an equal
    node array (np.array_equal, so copies of an input behave like the input
    itself).  Each orbit is represented by its triple with ascending indices
    within every class of equal slots, and the circle integral there is
    multiplied by sum_pi prod_s wf_s(x_pi(s)) / |stabilizer of the triple|,
    with wf_s the outer weight times the outer factor of slot s.  The weight
    exponent splits into an outer part per permutation and an inner part per
    circle node, -F(x_a) - F(x_b) - F(x_c), gathered from F at the shared
    points; the largest outer part is moved to the inner side, so both
    exponentials stay <= 1 (the full exponent is <= 0 on the constraint set)
    and no overflow meets an underflow.

    reps is the (3, count) index array of the representatives in C order of
    (i, j, k), at 24 B per representative (0.47 MB for the C(50, 3) orbits
    of one shared 48-node panel, 2.7 MB for 48^3 on three own panels).  Each
    round is the view of the next BLOCK_ENTRIES // n_phi columns of reps; it
    evaluates its circle points and nodes in the slab, through out=, and its
    contributions, one per triple, are summed as one contiguous array.  So
    the value depends on the round size and is the same bit for bit on any
    number of CPUs.
    """
    if n_phi < 1:
        raise ValueError(f"n_phi needs at least one node, got {n_phi}")
    if n_phi % 3:
        raise ValueError(f"n_phi must be a multiple of 3, got {n_phi}")
    distinct = {id(f): f for f in fs}
    tables = {key: _hat_spline(f) for key, f in distinct.items()}
    fhats = [tables[id(f)][1] for f in fs]
    grid = fhats[0].grid
    if any(fh.grid != grid for fh in fhats):
        raise GridMismatchError("all inputs must share one grid")
    axes = _outer_rules(fhats[:3], n_outer)
    absolute = w is not None

    # the circle's points sigma/3 + h cos(2 pi m / n_phi), m = 0 .. n_phi // 2,
    # and the point each inner slot reads at node j: c(j), c(j + n_phi/3) and
    # c(j - n_phi/3), with c folding an index into 0 .. n_phi // 2
    n_pts = n_phi // 2 + 1
    cos_m = np.cos(2.0 * np.pi / n_phi * np.arange(n_pts))
    j = np.arange(n_phi)
    reads = [(id(f), np.minimum((j + k) % n_phi, (-j - k) % n_phi))
             for f, k in zip(fs[3:], (0, n_phi // 3, -(n_phi // 3)))]
    inner = {key: tables[key][0] for key, _ in reads}
    step = 2.0 * np.pi / n_phi / (2.0 * np.sqrt(3.0))

    nodes = [ax[0] for ax in axes]
    outer_vals = [_interpolate(tables[id(f)][0], _cells(grid, x)) for f, x in zip(fs, nodes)]
    outer = [ax[1] * (np.abs(v) if absolute else np.conj(v)) for ax, v in zip(axes, outer_vals)]
    if absolute:
        signed_f = [weight(nodes[0], w), -weight(nodes[1], w), -weight(nodes[2], w)]
    same = [[np.array_equal(a, b) for b in nodes] for a in nodes]
    perms = [pi for pi in permutations(range(3)) if all(same[s][pi[s]] for s in range(3))]
    # the representatives (i, j, k), ascending within each class of equal
    # slots, as the columns of a (3, count) index array in C order
    ix = np.ix_(*(np.arange(x.size) for x in nodes))
    keep = np.ones([x.size for x in nodes], dtype=bool)
    for a, b in combinations(range(3), 2):
        if same[a][b]:
            keep &= ix[a] <= ix[b]
    reps = np.stack(np.nonzero(keep))

    # triples per round, and the slab that every round evaluates its points
    # (n_pts per triple) and nodes (n_phi per triple) in
    rows = max(1, min(BLOCK_ENTRIES // n_phi, reps.shape[1]))
    value = float if absolute else complex
    widths = {"x": (n_pts, float), "col": (n_pts, np.intp), "scratch": (n_pts, complex),
              "integrand": (n_phi, value), "term": (n_phi, value)}
    widths.update({key: (n_pts, value) for key in inner})   # keyed by input id
    if absolute:
        widths.update(z=(n_pts, complex), wx=(n_pts, float), tmp=(n_pts, float),
                      factor=(n_phi, float))
    slab = {name: np.empty((rows, width), dtype) for name, (width, dtype) in widths.items()}
    total = 0.0 + 0.0j
    for start in range(0, reps.shape[1], rows):
        idx = reps[:, start:start + rows]
        buf = {name: a[:idx.shape[1]] for name, a in slab.items()}
        x1, x2, x3 = (x[ix] for x, ix in zip(nodes, idx))
        sigma = x1 + x2 + x3
        tau = x1 ** 2 + x2 ** 2 + x3 ** 2
        h = np.sqrt(np.maximum(2.0 * tau - 2.0 * sigma ** 2 / 3.0, 0.0) / 3.0)
        pts = np.multiply(h[:, None], cos_m, out=buf["x"])
        pts += sigma[:, None] / 3.0
        orbit = [tuple(idx[pi[s]] for s in range(3)) for pi in perms]
        weights = [outer[0][a] * outer[1][b] * outer[2][c] for a, b, c in orbit]
        if absolute:
            exponents = [signed_f[0][a] + signed_f[1][b] + signed_f[2][c] for a, b, c in orbit]
            shift = np.maximum.reduce(exponents)
            weights = [wt * np.exp(e - shift) for wt, e in zip(weights, exponents)]
            f_pts = _weight(pts, w, buf["wx"], buf["tmp"])
            factor = buf["factor"]
            factor[:] = shift[:, None]
            for _, c in reads:
                factor -= np.take(f_pts, c, axis=1, out=buf["term"], mode="wrap")
            np.exp(factor, out=factor)
        stabilizer = sum((a == idx[0]) & (b == idx[1]) & (c == idx[2]) for a, b, c in orbit)
        # one lookup overwrites the points with their offsets; one table read
        # per distinct inner input
        at = _cells(grid, pts, out=(buf["col"], pts))
        vals = {}
        for key, table in inner.items():
            if absolute:
                vals[key] = np.abs(_interpolate(table, at, out=(buf["z"], buf["scratch"])),
                                   out=buf[key])
            else:
                vals[key] = _interpolate(table, at, out=(buf[key], buf["scratch"]))
        # the indices are in range; take's default mode, raise, would fill a
        # temporary and copy it to out
        (key, c), *rest = reads
        integrand = np.take(vals[key], c, axis=1, out=buf["integrand"], mode="wrap")
        for key, c in rest:
            integrand *= np.take(vals[key], c, axis=1, out=buf["term"], mode="wrap")
        if absolute:
            integrand *= factor
        total += (sum(weights) / stabilizer * (integrand.sum(axis=-1) * step)).sum()
    return complex(total)


def q_quadrature(f1: WaveFunction, f2: WaveFunction, f3: WaveFunction,
                 f4: WaveFunction, f5: WaveFunction, f6: WaveFunction,
                 n_outer: int = N_OUTER, n_phi: int = N_PHI) -> complex:
    """Q evaluated directly on the constraint set (see module docstring).

    n_outer Gauss-Legendre nodes per support panel on each outer axis, and
    the n_phi-point trapezoid rule on the full constraint circle; n_phi must
    be a positive multiple of 3, so that the rotation between the inner slots
    maps nodes onto nodes.  Agrees with q_spacetime to quadrature tolerance;
    the two routes are mutually independent oracles.
    """
    return _constraint_quadrature((f1, f2, f3, f4, f5, f6), n_outer, n_phi)


def m_weighted(h1: WaveFunction, h2: WaveFunction, h3: WaveFunction,
               h4: WaveFunction, h5: WaveFunction, h6: WaveFunction,
               w: WeightParams, n_outer: int = N_OUTER, n_phi: int = N_PHI) -> float:
    """Weighted absolute sextic form over the constraint set.

    Inputs live on the frequency grid.  The integrand is
    exp(F(eta_1) - sum_{k>=2} F(eta_k)) prod |h_k(eta_k)| against the same
    constraint measure as q_quadrature, on the same rules: n_phi must be a
    positive multiple of 3.  On the constraint set
    eta_1^2 <= eta_2^2 + .. + eta_6^2, so the exponential factor is <= 1 and
    the weighted form never exceeds the unweighted one.  Like the continuum
    form, the value is symmetric in slots 4-6 (up to rounding).
    """
    hs = (h1, h2, h3, h4, h5, h6)
    if not all(isinstance(h.grid, FrequencyGrid) for h in hs):
        raise GridMismatchError("m_weighted expects frequency-grid inputs")
    return float(_constraint_quadrature(hs, n_outer, n_phi, w).real)


def calibrate_kappa(inputs: list[WaveFunction], tq: TimeQuadrature | None = None):
    """Ratio of the constraint-set integral to the raw space-time integral
    for each input, used to pin the delta normalization before trusting the
    frozen KAPPA.

    Returns (ratios, spread) where spread is the maximal relative deviation
    of the ratios from their mean.  The ratios must agree with each other
    (and with (2 pi)^4) for the normalization to be considered calibrated.
    """
    ratios = []
    for f in inputs:
        spacetime_raw = FlowPlan(f.grid, tq).integral([f] * 6, conj_count=3)
        direct = q_quadrature(f, f, f, f, f, f)
        ratios.append((direct / spacetime_raw).real)
    ratios = np.array(ratios)
    mean = ratios.mean()
    spread = float(np.abs(ratios / mean - 1.0).max())
    return ratios, spread
