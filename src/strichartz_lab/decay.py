"""Fourier-tail decay estimation and the bootstrap quantities.

Euler-Lagrange solutions have super-exponentially decaying transforms: there
is a mu > 0 with e^{mu xi^2} fhat in L^2, which upgrades to an entire
extension of the profile.  This module measures that decay (mu_slope_fit),
evaluates the bootstrap ingredients used to prove it (band decomposition at
thresholds s and s^2, the weighted tail norm H(eps), the smallness factors
o_1 and o_2), scans the one-variable barrier polynomial whose level set
traps H, and probes the analytic extension directly through the inversion
integral at complex arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .lattice import WaveFunction, _spectrum, lp_norm
from .sextic_form import WeightParams, weight

__all__ = [
    "BandDecomposition",
    "GScanResult",
    "MuSlopeFit",
    "analytic_extension_probe",
    "band_decompose",
    "bootstrap_smallness",
    "g_polynomial_scan",
    "mu_slope_fit",
    "tail_norm_H",
]

#: samples of |fhat| below this fraction of its peak are rounding noise
_NOISE_FLOOR = 1e-14
#: |fhat| / max |fhat| range of mu_slope_fit's default window
_FIT_RANGE = (1e-10, 1e-2)
#: step of analytic_extension_probe's Cauchy-Riemann differences
_FD_STEP = 1e-4


@dataclass
class BandDecomposition:
    """Split of fhat into |xi| < s, s <= |xi| <= s^2, and |xi| > s^2 pieces.

    The three pieces reassemble to fhat bit-exactly and have pairwise
    disjoint supports.
    """

    low: WaveFunction
    middle: WaveFunction
    high: WaveFunction
    s: float


def band_decompose(f: WaveFunction, s: float) -> BandDecomposition:
    """Exact indicator cutoffs of fhat at |xi| = s and |xi| = s^2."""
    if s <= 1:
        raise ValueError("band threshold requires s > 1")
    fhat = _spectrum(f)
    if s * s >= fhat.grid.nyquist:
        raise ValueError(f"s^2 = {s * s} reaches the Nyquist frequency {fhat.grid.nyquist:.4g}")
    xi = np.abs(fhat.grid.xi)
    low = np.where(xi < s, fhat.values, 0.0)
    mid = np.where((xi >= s) & (xi <= s * s), fhat.values, 0.0)
    high = np.where(xi > s * s, fhat.values, 0.0)
    return BandDecomposition(
        low=WaveFunction(fhat.grid, low),
        middle=WaveFunction(fhat.grid, mid),
        high=WaveFunction(fhat.grid, high),
        s=s,
    )


def tail_norm_H(f: WaveFunction, s: float, eps: float) -> float:
    """H(eps) = ( int_{|xi| >= s^2} |e^{F_{mu,eps}(xi)} fhat|^2 dxi )^{1/2}
    with mu = s^{-4}.

    Nonincreasing in eps (the weight is); converges monotonically as
    eps -> 0 to the eps = 0 value on the grid.  Samples of fhat below
    _NOISE_FLOOR of its peak are treated as exact zeros: they are rounding
    noise, and the unbounded eps = 0 weight would amplify them into
    overflow.
    """
    if s <= 1:
        raise ValueError("band threshold requires s > 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    fhat = _spectrum(f)
    if s * s >= fhat.grid.nyquist:
        raise ValueError(f"s^2 = {s * s} reaches the Nyquist frequency {fhat.grid.nyquist:.4g}")
    xi = fhat.grid.xi
    mag = np.abs(fhat.values)
    mask = (np.abs(xi) >= s * s) & (mag >= _NOISE_FLOOR * mag.max())
    if not mask.any():
        return 0.0
    w = WeightParams(mu=s ** (-4.0), eps=eps)
    integrand = np.abs(np.exp(weight(xi[mask], w)) * fhat.values[mask]) ** 2
    return float(np.sqrt(fhat.grid.dxi * integrand.sum()))


@dataclass(frozen=True)
class MuSlopeFit:
    """Fitted Gaussian-decay slope of |fhat| on a frequency window."""

    mu_hat: float
    residual: float
    window: tuple[float, float]

    @property
    def certified_mu(self) -> float:
        """Admissible decay rate with a factor-2 safety margin (a fit is not
        a bound; halving keeps the weighted tail square-integrable on the
        window model)."""
        return 0.5 * self.mu_hat


def mu_slope_fit(f: WaveFunction, window: tuple[float, float] | None = None) -> MuSlopeFit:
    """Least-squares slope of -log |fhat| against xi^2 over a tail window.

    The default window is where |fhat| / max |fhat| lies inside _FIT_RANGE,
    away from both the peak and the rounding floor.  The fit residual is the
    RMS misfit of the linear model in the xi^2 variable.
    """
    fhat = _spectrum(f)
    xi = fhat.grid.xi
    mag = np.abs(fhat.values)
    peak = mag.max()
    if peak == 0:
        raise ValueError("cannot fit the zero function")
    if window is None:
        rel = mag / peak
        live = (rel >= _FIT_RANGE[0]) & (rel <= _FIT_RANGE[1])
        if not live.any():
            raise ValueError("no samples inside the relative magnitude range")
        window = (float(np.abs(xi[live]).min()), float(np.abs(xi[live]).max()))
    lo, hi = window
    mask = (np.abs(xi) >= lo) & (np.abs(xi) <= hi)
    if mask.sum() < 8:
        raise ValueError("fit window contains fewer than 8 samples")
    if np.any(mag[mask] == 0):
        raise ValueError("fhat vanishes inside the fit window")
    target = -np.log(mag[mask])
    design = np.column_stack([xi[mask] ** 2, np.ones(int(mask.sum()))])
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    misfit = target - design @ coeffs
    return MuSlopeFit(
        mu_hat=float(coeffs[0]),
        residual=float(np.sqrt(np.mean(misfit ** 2))),
        window=(lo, hi),
    )


def bootstrap_smallness(f: WaveFunction, s: float) -> tuple[float, float]:
    """The smallness factors with mu = s^{-4} pinned:

        o_1 = e^2 ( s^{-1/6} e^{mu s^2 - mu s^4} + ||f_sim||_2 )
        o_2 = e^2 o_1

    Both decrease to zero along increasing s for fixed normalized f: the
    explicit term decays like s^{-1/6} and the middle-band mass vanishes as
    the bands march off to infinity.
    """
    decomp = band_decompose(f, s)
    mu = s ** (-4.0)
    # ||f_sim||_2 in the spatial L^2 normalization (hat mass / 2 pi)
    f_sim_l2 = lp_norm(decomp.middle, 2) / np.sqrt(2.0 * np.pi)
    bracket = s ** (-1.0 / 6.0) * np.exp(mu * s ** 2 - mu * s ** 4) + f_sim_l2
    e2 = np.exp(2.0)
    return float(e2 * bracket), float(e2 * e2 * bracket)


# ---------------------------------------------------------------------------
# barrier polynomial scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GScanResult:
    m_sup: float
    x0: float
    x1: float
    x_max: float


def _positive_roots(p: Polynomial) -> np.ndarray:
    """The real positive roots of p, ascending."""
    roots = p.roots()
    return np.sort(roots.real[(roots.imag == 0) & (roots.real > 0)])


def g_polynomial_scan(omega: float, c: float) -> GScanResult:
    """Supremum and half-level roots of G(x) = (omega/2) x - C(x^2+..+x^5).

    G(0) = 0, G'(0) = omega/2 > 0 and G is concave on (0, inf) (every
    curvature term is negative), so G' has one positive root, the maximizer
    x_max with M = G(x_max), and G - M/2 has two, x0 < x_max < x1.  All
    three are read off the roots of the polynomials (companion-matrix
    eigenvalues), so they are accurate to rounding.
    """
    if omega <= 0 or c <= 0:
        raise ValueError("omega and C must be positive")
    g = Polynomial([0.0, 0.5 * omega, -c, -c, -c, -c])
    (x_max,) = _positive_roots(g.deriv())
    m_sup = float(g(x_max))
    x0, x1 = _positive_roots(g - 0.5 * m_sup)
    return GScanResult(m_sup=m_sup, x0=float(x0), x1=float(x1), x_max=float(x_max))


# ---------------------------------------------------------------------------
# analytic extension probe
# ---------------------------------------------------------------------------

def analytic_extension_probe(f: WaveFunction, zs):
    """Evaluate the inversion integral f(z) = (1/2pi) int e^{iz xi} fhat dxi
    at complex points and report finite-difference Cauchy-Riemann residuals.

    The integral is restricted to the window where |fhat| stands above
    _NOISE_FLOOR of its peak (below that the samples are rounding noise, which
    e^{|Im z| xi} would amplify).  A fitted decay slope must certify the
    requested imaginary offsets: |Im z| <= mu_hat * xi_window / 2 keeps the
    tail integrable on the window model.

    Returns (values, cr_residuals) aligned with zs.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    fhat = _spectrum(f)
    fit = mu_slope_fit(fhat)
    if fit.mu_hat <= 0:
        raise ValueError("no positive decay slope; analytic extension not certified")
    mag = np.abs(fhat.values)
    live = mag >= _NOISE_FLOOR * mag.max()
    xi_window = float(np.abs(fhat.grid.xi[live]).max())
    im_bound = 0.5 * fit.mu_hat * xi_window
    max_im = np.abs(zs.imag).max() + 2 * _FD_STEP
    if max_im > im_bound:
        raise ValueError(
            f"|Im z| up to {max_im:.4g} exceeds the certified bound {im_bound:.4g}"
        )
    xi = fhat.grid.xi[live]
    vals_hat = fhat.values[live]
    dxi = fhat.grid.dxi

    def at(points):
        phases = np.exp(1j * np.outer(np.atleast_1d(points), xi))
        return (phases @ vals_hat) * dxi / (2.0 * np.pi)

    values = at(zs)
    h = _FD_STEP
    d_re = (at(zs + h) - at(zs - h)) / (2.0 * h)
    d_im = (at(zs + 1j * h) - at(zs - 1j * h)) / (2.0 * h)
    cr = 0.5 * (d_re + 1j * d_im)
    scale = np.abs(d_re) + np.abs(values) + 1e-30
    return values, np.abs(cr) / scale
