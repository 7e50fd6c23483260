"""Euler-Lagrange fixed-point machinery for Strichartz extremizers.

The stationarity condition for the L^6/L^2 functional is

    omega <g, f> = Q(g, f, f, f, f, f)   for all g in L^2,

with omega = Q(f,..,f) / ||f||_2^2 > 0.  The Riesz representative of the
right-hand side defines the quintic map

    Lambda f = KAPPA * int e^{-it Delta} ( |u|^4 u )(., t) dt,  u = e^{it Delta} f,

whose fixed rays are exactly the Euler-Lagrange solutions.  They are the
fixed points of T(f) = gauge_fix(Lambda f / ||Lambda f||_2); the gauge fixing
quotients out the symmetry group (translation, modulation, parabolic
rescaling, global phase) so the iteration metric does not stall on symmetry
drift.  Plain Picard steps f <- T(f) contract only by 7/9 per step near the
Gaussian, so picard_iterate mixes each step with the last ANDERSON_DEPTH
residual differences (Anderson mixing) and stops on a geometric-tail
estimate of the distance to the fixed point rather than on the last step's
size.

Lambda takes each row of |u|^4 u back to t = 0 through the adjoint of the
gauge step that made it (_lambda_with_l6), on the input's own box.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    WaveFunction,
    _fourier_sum,
    forward_transform,
    inverse_transform,
    lp_norm,
    warn_if_aliased,
    write_table,
)
from .propagator import (
    FlowPlan,
    TimeQuadrature,
    _flow_lp_sum,
    strichartz_ratio,
)
from .sextic_form import KAPPA

__all__ = [
    "IterationState",
    "PicardResult",
    "gauge_fix",
    "lambda_apply",
    "omega_of",
    "picard_iterate",
    "save_trajectory",
]

#: second moment of the unit-normalized reference profile e^{-x^2}
_TARGET_SECOND_MOMENT = 0.25
#: gauge_fix skips a shift, modulation or rescale smaller than this
_GAUGE_TOL = 1e-12

#: residual differences in picard_iterate's Anderson least-squares step
ANDERSON_DEPTH = 3


@dataclass
class IterationState:
    """One step of the normalized fixed-point iteration."""

    f: WaveFunction
    omega_estimate: float
    ratio: float
    step_index: int
    delta: float


@dataclass
class PicardResult:
    states: list[IterationState] = field(default_factory=list)
    converged: bool = False
    #: Anderson mixing depth the run used
    depth: int = 0

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def omega_of(f: WaveFunction, tq: TimeQuadrature | None = None) -> float:
    """Q(f,..,f) / ||f||_2^2.

    With all six slots equal the space-time integrand is |u|^6, so this is
    KAPPA ||u||_6^6 / ||f||_2^2; positivity is structural.
    """
    l2 = lp_norm(f, 2)
    if l2 == 0:
        raise ValueError("omega_of requires a nonzero input")
    return float(KAPPA * strichartz_ratio(f, tq) ** 6 * l2 ** 4)


def lambda_apply(f: WaveFunction, tq: TimeQuadrature | None = None) -> WaveFunction:
    """Apply the quintic Euler-Lagrange map Lambda.

    Satisfies <g, Lambda f> = Q(g, f, f, f, f, f) for every test function g;
    homogeneous of signed degree five: Lambda(c f) = |c|^4 c Lambda f.
    """
    if lp_norm(f, 2) == 0:
        raise ValueError("lambda_apply requires a nonzero input")
    return _lambda_with_l6(f, FlowPlan(f.grid, tq))[0]


def _lambda_with_l6(f: WaveFunction, plan: FlowPlan) -> tuple[WaveFunction, float]:
    """Lambda f, and sum_k w_k int |u(., t_k)|^6 dx from the same rows.

    Each row of |u|^4 u goes back through the adjoint of its step: a direct
    row by the conjugate flow row in frequency, and a factored row, with
    h = |ghat_t|^4 ghat_t, by

        e^{-it Delta} ( |u|^4 u )(y) = (4 pi |t|)^{-2} e^{i y^2/4t} F^{-1}[h](y),

    that is h times conj(plan.phase) / dx^2, inverse-transformed, times the
    conjugate chirp row.  Pieces return row sums and back-propagated rows; per
    block, the weighted direct spectra are summed for one inverse transform
    and the weighted factored rows on the spatial grid.
    """
    # the quintic power spreads the spectrum fivefold
    warn_if_aliased(f, band_fraction=1.0 / 6.0, context="lambda_apply")
    back = np.conj(plan.phase) / plan.grid.dx ** 2

    def piece(rows, phases, factored):
        (rows,) = rows
        power = rows.real ** 2 + rows.imag ** 2
        quartic = power ** 2
        quintic = quartic * rows
        if factored:
            quintic *= back
            np.fft.ifft(quintic, axis=-1, out=quintic)
        else:
            np.fft.fft(quintic, axis=-1, out=quintic)
        quintic *= np.conj(phases)
        return (quartic * power).sum(axis=-1), quintic

    spectrum, spatial = np.zeros((2, f.grid.n), dtype=complex)
    sixth = 0.0
    for sl, factored, (sums, rows) in plan.reduce_blocks([f], None, piece):
        sixth += plan.measure(sl, factored, 6) @ sums
        if factored:
            spatial += (plan.tq.weights[sl] * (4.0 * np.pi * plan.tq.nodes[sl]) ** -2.0) @ rows
        else:
            spectrum += plan.tq.weights[sl] @ rows
    return WaveFunction(f.grid, KAPPA * (np.fft.ifft(spectrum) + spatial)), float(sixth)


# ---------------------------------------------------------------------------
# gauge fixing
# ---------------------------------------------------------------------------

def _moments(axis: np.ndarray, power: np.ndarray) -> tuple[float, float]:
    total = power.sum()
    center = float((axis * power).sum() / total)
    second = float(((axis - center) ** 2 * power).sum() / total)
    return center, second


def _resample_scaled(f: WaveFunction, lam: float) -> np.ndarray:
    """Samples of sqrt(lam) f(lam x) on the same grid via the exact Fourier sum.

    The sum is periodic with the grid's box [x0, x0 + L), so evaluation
    points that lam pushes outside the box are set to zero (the true profile
    has decayed there) instead of wrapping around.
    """
    grid = f.grid
    y = lam * grid.x
    inside = (y >= grid.x0) & (y < grid.x0 + grid.extent)
    vals = np.zeros(grid.n, dtype=complex)
    vals[inside] = _fourier_sum(forward_transform(f), y[inside])
    return np.sqrt(lam) * vals


def gauge_fix(f: WaveFunction) -> WaveFunction:
    """Quotient the symmetry group: center |f|^2 at x = 0, center |fhat|^2 at
    xi = 0, rescale parabolically to the reference second moment 1/4, make
    fhat(0) real positive, and normalize to unit L^2.  The rescaled samples
    are lattice's exact Fourier sum of the spectrum at the points lam x.

    Idempotent to rounding; leaves the Strichartz ratio unchanged because
    every operation is an invariance of the functional.
    """
    l2 = lp_norm(f, 2)
    if l2 == 0:
        raise ValueError("gauge_fix requires a nonzero input")
    grid = f.grid
    fhat = forward_transform(f)
    xi = fhat.grid.xi

    x_center, _ = _moments(grid.x, np.abs(f.values) ** 2)
    if abs(x_center) > _GAUGE_TOL:
        fhat.values = np.exp(1j * x_center * xi) * fhat.values  # fhat of f(. + x_center)
    xi_center, _ = _moments(xi, np.abs(fhat.values) ** 2)
    work = inverse_transform(fhat)
    if abs(xi_center) > _GAUGE_TOL:
        work.values = work.values * np.exp(-1j * xi_center * grid.x)

    _, second = _moments(grid.x, np.abs(work.values) ** 2)
    lam = np.sqrt(second / _TARGET_SECOND_MOMENT)
    if abs(lam - 1.0) > _GAUGE_TOL:
        work.values = _resample_scaled(work, lam)

    zero_mode = work.values.sum() * grid.dx  # fhat(0)
    if abs(zero_mode) > 0:
        work.values = work.values * np.exp(-1j * np.angle(zero_mode))
    work.values = work.values / lp_norm(work, 2)
    return work


def _tail_distance(delta: float, previous: float) -> float:
    """delta + delta^2 / (previous - delta): the distance to the fixed point
    if the residual norms keep falling geometrically at the rate
    delta / previous; inf when delta did not fall.  previous = inf gives
    delta itself."""
    if not delta < previous:
        return np.inf
    return delta + delta ** 2 / (previous - delta)


def _anderson_mix(images: deque[np.ndarray], residuals: deque[np.ndarray]) -> np.ndarray:
    """Anderson's mixed iterate from the T-images and residuals of the last
    few iterates, oldest first (Walker & Ni, SIAM J. Numer. Anal. 2011).

    The coefficients gamma minimize ||r_k - dR gamma||_2, dR holding the
    consecutive residual differences.  T is only real-differentiable (|u|^4 u
    and the gauge fix are not complex-linear), so the problem is posed on the
    stacked real and imaginary parts and gamma is real.  The mixed iterate is
    g_k - dG gamma with the matching differences dG of the T-images.
    """
    d_res = np.diff(residuals, axis=0)
    d_img = np.diff(images, axis=0)
    gamma = np.linalg.lstsq(d_res.view(float).T, residuals[-1].view(float), rcond=None)[0]
    return images[-1] - gamma @ d_img


def picard_iterate(f0: WaveFunction, tol: float = 1e-8, max_steps: int = 200,
                   tq: TimeQuadrature | None = None) -> PicardResult:
    """Find a fixed point of T(f) = gauge_fix(Lambda f / ||Lambda f||_2) from f0
    by Anderson-mixed Picard steps of depth ANDERSON_DEPTH.

    Each step evaluates g_k = T(f_k) and the residual r_k = g_k - f_k; the
    next iterate mixes the T-images of the last ANDERSON_DEPTH + 1 iterates
    (see _anderson_mix), normalized and gauge-fixed.  A state's delta is
    ||r_k|| of the iterate before it, so the plain iteration gives the L^2
    change between consecutive iterates.  The run stops when the geometric
    tail delta_k + delta_k^2 / (delta_{k-1} - delta_k), an estimate of the
    distance to the fixed point, drops to tol with delta_k < delta_{k-1}
    (delta_{-1} = inf, so a first residual within tol stops at once), or
    flags the trajectory unconverged after max_steps.  The last state holds
    the T-image g_k, not a mixed iterate.  Ratio and omega are recorded at
    every step; no monotonicity is assumed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if lp_norm(f0, 2) == 0:
        raise ValueError("picard_iterate requires a nonzero start")

    # one plan serves every Lambda step and the last observation; each
    # Lambda step also yields the L^6 norm of the iterate it evolves
    grid = f0.grid
    plan = FlowPlan(grid, tq)
    result = PicardResult(depth=ANDERSON_DEPTH)
    images, residuals = deque(maxlen=ANDERSON_DEPTH + 1), deque(maxlen=ANDERSON_DEPTH + 1)
    current, delta, converged = gauge_fix(f0), np.inf, False
    for step in range(max_steps + 1):
        last = converged or step == max_steps
        if last:
            sixth = _flow_lp_sum(current, plan, 6)
        else:
            lam_f, sixth = _lambda_with_l6(current, plan)
        # current has unit norm: ratio = ||u||_6 and omega = KAPPA ||u||_6^6
        result.states.append(IterationState(f=current, omega_estimate=float(KAPPA * sixth),
                                            ratio=float(sixth ** (1.0 / 6.0)),
                                            step_index=step, delta=float(delta)))
        if last:
            break
        lam_f.values /= lp_norm(lam_f, 2)
        image = gauge_fix(lam_f)
        residual = image.values - current.values
        previous, delta = delta, lp_norm(WaveFunction(grid, residual), 2)
        converged = _tail_distance(delta, previous) <= tol
        if converged or step + 1 == max_steps:
            current = image
            continue
        images.append(image.values)
        residuals.append(residual)
        # gauge_fix also normalizes the mixed iterate
        current = gauge_fix(WaveFunction(grid, _anderson_mix(images, residuals)))
    result.converged = converged
    return result


def save_trajectory(result: PicardResult, path) -> None:
    """CSV (step, delta, ratio, omega) for a Picard trajectory."""
    write_table(path, ["step", "delta", "ratio", "omega"],
                ((st.step_index, st.delta if np.isfinite(st.delta) else "", st.ratio,
                  st.omega_estimate) for st in result.states),
                comment=f"picard-trajectory steps={len(result.states)} "
                        f"converged={result.converged} depth={result.depth}")
