"""Euler-Lagrange fixed-point machinery for Strichartz extremizers.

The stationarity condition for the L^6/L^2 functional is

    omega <g, f> = Q(g, f, f, f, f, f)   for all g in L^2,

with omega = Q(f,..,f) / ||f||_2^2 > 0.  The Riesz representative of the
right-hand side defines the quintic map

    Lambda f = KAPPA * int e^{-it Delta} ( |u|^4 u )(., t) dt,  u = e^{it Delta} f,

whose fixed rays are exactly the Euler-Lagrange solutions.  A normalized
Picard iteration f <- gauge_fix(Lambda f / ||Lambda f||_2) drives profiles
toward them; the gauge fixing quotients out the symmetry group (translation,
modulation, parabolic rescaling, global phase) so the iteration metric does
not stall on symmetry drift.

Far time nodes use the same chirp factorization as the propagator: with
ghat_t the factored profile and h = |ghat_t|^4 ghat_t,

    e^{-it xi^2} F[ |u|^4 u ](xi) = (4 pi t)^{-2} [ e^{i (1/4t) Delta} h ](xi)

where the flow on the right acts on the frequency axis (a Fresnel step of
duration 1/4t, small exactly when |t| is large).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .lattice import (
    WaveFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
    warn_if_aliased,
)
from .propagator import (
    FlowPlan,
    TimeQuadrature,
    _flow_lp_sum,
    _row_measure,
    default_time_quadrature,
    strichartz_ratio,
    switch_time,
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
    if tq is None:
        tq = default_time_quadrature()
    return _lambda_with_l6(f, FlowPlan(f.grid, tq))[0]


def _lambda_with_l6(f: WaveFunction, plan: FlowPlan) -> tuple[WaveFunction, float]:
    """Lambda f, and sum_k w_k int |u(., t_k)|^6 dx from the same rows.

    The Fresnel step of the factored rows is linear, so their spectra are
    summed first and transformed back once.
    """
    # the quintic power spreads the spectrum fivefold
    warn_if_aliased(f, band_fraction=1.0 / 6.0, tol=1e-8, context="lambda_apply")
    direct, fresnel = np.zeros((2, f.grid.n), dtype=complex)
    sixth = 0.0
    for sl, factored, (rows,) in plan.blocks([f], switch_time(f)):
        power = rows.real ** 2 + rows.imag ** 2
        quartic = power ** 2
        sixth += _row_measure(plan.grid, plan.tq, sl, factored, 6) @ (quartic * power).sum(axis=-1)
        spectra = scipy.fft.fft(quartic * rows, axis=-1, overwrite_x=True)
        if factored:
            spectra *= plan.table("fresnel", sl)
            fresnel += (plan.tq.weights[sl] * (4.0 * np.pi * plan.tq.nodes[sl]) ** -2.0) @ spectra
        else:
            spectra *= np.conj(plan.table("flow", sl))
            direct += plan.tq.weights[sl] @ spectra
    accum = plan.phase * np.fft.fftshift(direct) + scipy.fft.ifft(fresnel)
    return inverse_transform(WaveFunction(f.grid.dual(), KAPPA * accum)), float(sixth)


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

    The trigonometric interpolant (dxi / 2pi) sum_c fhat_c e^{i y c dxi}, c
    the centred frequency index, is evaluated at y = lam x with c split as
    m q + r, m ~ sqrt(n): two n x sqrt(n) phase tables and one matmul in
    place of the n x n kernel.  The interpolant is periodic, so evaluation
    points pushed outside the box by lam > 1 are set to zero (the true
    profile has decayed there) instead of wrapping around.
    """
    fhat = forward_transform(f)
    dxi = fhat.grid.dxi
    n = f.grid.n
    m = 1 << (n.bit_length() // 2)
    y = lam * f.grid.x
    half = 0.5 * f.grid.extent
    inside = (y >= -half) & (y < half)
    yi = y[inside, None] * dxi
    q = np.arange(-n // (2 * m), n // (2 * m))
    low = np.exp(1j * yi * np.arange(m)) @ fhat.values.reshape(-1, m).T
    vals = np.zeros(n, dtype=complex)
    vals[inside] = (np.exp(1j * (m * yi) * q) * low).sum(axis=1) * (dxi / (2.0 * np.pi))
    return np.sqrt(lam) * vals


def gauge_fix(f: WaveFunction, tol: float = 1e-12) -> WaveFunction:
    """Quotient the symmetry group: center |f|^2 at x = 0, center |fhat|^2 at
    xi = 0, rescale parabolically to the reference second moment 1/4, make
    fhat(0) real positive, and normalize to unit L^2.

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
    if abs(x_center) > tol:
        fhat.values = np.exp(1j * x_center * xi) * fhat.values  # fhat of f(. + x_center)
    xi_center, _ = _moments(xi, np.abs(fhat.values) ** 2)
    work = inverse_transform(fhat)
    if abs(xi_center) > tol:
        work.values = work.values * np.exp(-1j * xi_center * grid.x)

    _, second = _moments(grid.x, np.abs(work.values) ** 2)
    lam = np.sqrt(second / _TARGET_SECOND_MOMENT)
    if abs(lam - 1.0) > tol:
        work.values = _resample_scaled(work, lam)

    zero_mode = work.values.sum() * grid.dx  # fhat(0)
    if abs(zero_mode) > 0:
        work.values = work.values * np.exp(-1j * np.angle(zero_mode))
    work.values = work.values / lp_norm(work, 2)
    return work


def picard_iterate(f0: WaveFunction, tol: float = 1e-8, max_steps: int = 200,
                   tq: TimeQuadrature | None = None) -> PicardResult:
    """Run f <- gauge_fix(Lambda f / ||Lambda f||_2) from f0.

    Stops when the L^2 change between consecutive gauge-fixed iterates drops
    to tol, or flags the trajectory unconverged after max_steps.  Ratio and
    omega are recorded at every step; no monotonicity is assumed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lp_norm(f0, 2) == 0:
        raise ValueError("picard_iterate requires a nonzero start")
    if tq is None:
        tq = default_time_quadrature()

    # one plan serves every Lambda step and the last observation; each
    # Lambda step also yields the L^6 norm of the iterate it evolves
    plan = FlowPlan(f0.grid, tq)
    result = PicardResult()
    current, delta = gauge_fix(f0), np.inf
    for step in range(max_steps + 1):
        last = delta <= tol or step == max_steps
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
        nxt = gauge_fix(lam_f)
        delta = lp_norm(WaveFunction(nxt.grid, nxt.values - current.values), 2)
        current = nxt
    result.converged = bool(delta <= tol)
    return result


def save_trajectory(result: PicardResult, path) -> None:
    """CSV (step, delta, ratio, omega) for a Picard trajectory."""
    with open(path, "w") as fh:
        fh.write(f"# picard-trajectory steps={len(result.states)} "
                 f"converged={result.converged}\n")
        fh.write("step,delta,ratio,omega\n")
        for st in result.states:
            delta = "" if not np.isfinite(st.delta) else repr(st.delta)
            fh.write(f"{st.step_index},{delta},{st.ratio!r},{st.omega_estimate!r}\n")
