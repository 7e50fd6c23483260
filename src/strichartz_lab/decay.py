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

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    FrequencyGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
)
from .sextic_form import WeightParams, weight

__all__ = [
    "BandDecomposition",
    "BootstrapReport",
    "GScanResult",
    "MuSlopeFit",
    "analytic_extension_probe",
    "band_decompose",
    "bootstrap_smallness",
    "g_polynomial_scan",
    "mu_slope_fit",
    "save_bootstrap_report",
    "tail_norm_H",
]


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


def _hat_side(f: WaveFunction) -> WaveFunction:
    return f if isinstance(f.grid, FrequencyGrid) else forward_transform(f)


def band_decompose(f: WaveFunction, s: float) -> BandDecomposition:
    """Exact indicator cutoffs of fhat at |xi| = s and |xi| = s^2."""
    if s <= 1:
        raise ValueError("band threshold requires s > 1")
    fhat = _hat_side(f)
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


def tail_norm_H(f: WaveFunction, s: float, eps: float, rel_floor: float = 1e-14) -> float:
    """H(eps) = ( int_{|xi| >= s^2} |e^{F_{mu,eps}(xi)} fhat|^2 dxi )^{1/2}
    with mu = s^{-4}.

    Nonincreasing in eps (the weight is); converges monotonically as
    eps -> 0 to the eps = 0 value on the grid.  Samples of fhat below
    rel_floor of its peak are treated as exact zeros: they are rounding
    noise, and the unbounded eps = 0 weight would amplify them into
    overflow.
    """
    if s <= 1:
        raise ValueError("band threshold requires s > 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    fhat = _hat_side(f)
    if s * s >= fhat.grid.nyquist:
        raise ValueError(f"s^2 = {s * s} reaches the Nyquist frequency {fhat.grid.nyquist:.4g}")
    xi = fhat.grid.xi
    mag = np.abs(fhat.values)
    mask = (np.abs(xi) >= s * s) & (mag >= rel_floor * mag.max())
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


def mu_slope_fit(f: WaveFunction, window: tuple[float, float] | None = None,
                 rel_range: tuple[float, float] = (1e-10, 1e-2)) -> MuSlopeFit:
    """Least-squares slope of -log |fhat| against xi^2 over a tail window.

    The default window is where |fhat| / max |fhat| lies inside rel_range,
    away from both the peak and the rounding floor.  The fit residual is the
    RMS misfit of the linear model in the xi^2 variable.
    """
    fhat = _hat_side(f)
    xi = fhat.grid.xi
    mag = np.abs(fhat.values)
    peak = mag.max()
    if peak == 0:
        raise ValueError("cannot fit the zero function")
    if window is None:
        rel = mag / peak
        live = (rel >= rel_range[0]) & (rel <= rel_range[1])
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
    omega: float
    c: float
    m_sup: float
    x0: float
    x1: float
    x_max: float
    concave_ok: bool


def _g_value(x, omega, c):
    return 0.5 * omega * x - c * (x ** 2 + x ** 3 + x ** 4 + x ** 5)


def g_polynomial_scan(omega: float, c: float, tol: float = 1e-12) -> GScanResult:
    """Supremum and half-level roots of G(x) = (omega/2) x - C(x^2+..+x^5).

    G is concave on (0, inf) (every curvature term is negative), so the sup
    is found by golden-section search and the two roots of G = M/2
    bracketing the maximizer by bisection; x0 > 0 always since G(0) = 0.
    """
    if omega <= 0 or c <= 0:
        raise ValueError("omega and C must be positive")
    # bracket the maximizer: G'(0) = omega/2 > 0 and G eventually negative
    hi = 1.0
    while _g_value(hi, omega, c) > 0:
        hi *= 2.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    x1_gs = b - invphi * (b - a)
    x2_gs = a + invphi * (b - a)
    f1 = _g_value(x1_gs, omega, c)
    f2 = _g_value(x2_gs, omega, c)
    while b - a > tol * max(1.0, b):
        if f1 >= f2:
            b, x2_gs, f2 = x2_gs, x1_gs, f1
            x1_gs = b - invphi * (b - a)
            f1 = _g_value(x1_gs, omega, c)
        else:
            a, x1_gs, f1 = x1_gs, x2_gs, f2
            x2_gs = a + invphi * (b - a)
            f2 = _g_value(x2_gs, omega, c)
    x_max = 0.5 * (a + b)
    m_sup = float(_g_value(x_max, omega, c))

    def bisect(lo_x, hi_x):
        target = 0.5 * m_sup
        g_lo = _g_value(lo_x, omega, c) - target
        for _ in range(200):
            mid = 0.5 * (lo_x + hi_x)
            g_mid = _g_value(mid, omega, c) - target
            if hi_x - lo_x <= tol * max(1.0, abs(mid)):
                break
            if (g_lo < 0) == (g_mid < 0):
                lo_x, g_lo = mid, g_mid
            else:
                hi_x = mid
        return 0.5 * (lo_x + hi_x)

    x0 = bisect(0.0, x_max)
    x1 = bisect(x_max, hi)
    xs = np.linspace(x1 / 1000.0, x1, 1000)
    second = -c * (2.0 + 6.0 * xs + 12.0 * xs ** 2 + 20.0 * xs ** 3)
    return GScanResult(omega=omega, c=c, m_sup=m_sup, x0=float(x0), x1=float(x1),
                       x_max=float(x_max), concave_ok=bool(np.all(second < 0)))


# ---------------------------------------------------------------------------
# analytic extension probe
# ---------------------------------------------------------------------------

def analytic_extension_probe(f: WaveFunction, zs, fd_step: float = 1e-4,
                             rel_floor: float = 1e-14):
    """Evaluate the inversion integral f(z) = (1/2pi) int e^{iz xi} fhat dxi
    at complex points and report finite-difference Cauchy-Riemann residuals.

    The integral is restricted to the window where |fhat| stands above
    rel_floor of its peak (below that the samples are rounding noise, which
    e^{|Im z| xi} would amplify).  A fitted decay slope must certify the
    requested imaginary offsets: |Im z| <= mu_hat * xi_window / 2 keeps the
    tail integrable on the window model.

    Returns (values, cr_residuals) aligned with zs.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    fhat = _hat_side(f)
    fit = mu_slope_fit(f)
    if fit.mu_hat <= 0:
        raise ValueError("no positive decay slope; analytic extension not certified")
    mag = np.abs(fhat.values)
    live = mag >= rel_floor * mag.max()
    xi_window = float(np.abs(fhat.grid.xi[live]).max())
    im_bound = 0.5 * fit.mu_hat * xi_window
    max_im = np.abs(zs.imag).max() + 2 * fd_step
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
    h = fd_step
    d_re = (at(zs + h) - at(zs - h)) / (2.0 * h)
    d_im = (at(zs + 1j * h) - at(zs - 1j * h)) / (2.0 * h)
    cr = 0.5 * (d_re + 1j * d_im)
    scale = np.abs(d_re) + np.abs(values) + 1e-30
    return values, np.abs(cr) / scale


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class BootstrapReport:
    """Structured record of one decay/bootstrap run."""

    s: float
    mu: float
    eps_grid: list[float]
    h_values: list[float]
    o1: float
    o2: float
    omega: float
    c_grid: list[float]
    g_scans: list[GScanResult]
    mu_fit: MuSlopeFit
    s_grid: list[float] = field(default_factory=list)
    o1_along_s: list[float] = field(default_factory=list)


def save_bootstrap_report(report: BootstrapReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("# bootstrap-report\n")
        fh.write(f"s = {float(report.s)!r}\n")
        fh.write(f"mu = {float(report.mu)!r}\n")
        fh.write(f"o1 = {float(report.o1)!r}\n")
        fh.write(f"o2 = {float(report.o2)!r}\n")
        fh.write(f"omega = {float(report.omega)!r}\n")
        fh.write(f"mu_hat = {float(report.mu_fit.mu_hat)!r}\n")
        fh.write(f"mu_fit_residual = {float(report.mu_fit.residual)!r}\n")
        fh.write(f"mu_certified = {float(report.mu_fit.certified_mu)!r}\n")
        fh.write(f"s_grid = {','.join(repr(float(v)) for v in report.s_grid)}\n")
        fh.write(f"o1_along_s = {','.join(repr(float(v)) for v in report.o1_along_s)}\n")
        fh.write("eps,H\n")
        for eps, hval in zip(report.eps_grid, report.h_values):
            fh.write(f"{float(eps)!r},{float(hval)!r}\n")
        fh.write("C,M,x0,x1\n")
        for c, scan in zip(report.c_grid, report.g_scans):
            fh.write(f"{float(c)!r},{float(scan.m_sup)!r},{float(scan.x0)!r},"
                     f"{float(scan.x1)!r}\n")
