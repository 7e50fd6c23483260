"""Multiplicative functional equation on the balanced-sum constraint set.

The constraint set consists of pairs of triples with equal sums and equal
sums of squares,

    x + y + z = a + b + c,      x^2 + y^2 + z^2 = a^2 + b^2 + c^2,

on which extremal profiles satisfy f(x) f(y) f(z) = f(a) f(b) f(c).  The
solution set through a fixed (x, y, z) is a circle (plane section of a
sphere), parametrized here explicitly.  Log-quadratic functions satisfy the
equation identically; the golden-ratio power sums certify, in exact integer
arithmetic, that no higher-degree log-polynomial term can survive it, and
quadratic_log_fit decides whether a sampled profile is log-quadratic with a
negative-definite quadratic part (a Gaussian).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .lattice import UniformGrid, WaveFunction, sample_offgrid, warn_at_caller

__all__ = [
    "ConstraintSextuple",
    "PhaseUnwrapWarning",
    "PowerSumRow",
    "QuadraticFit",
    "constraint_circle",
    "golden_power_sums",
    "product_residual",
    "quadratic_log_fit",
    "residual_samples",
    "residual_statistic",
]

_RESIDUAL_FLOOR = 1e-300
#: largest RMS log-fit misfit QuadraticFit.gaussian_certified accepts
LOGFIT_RESIDUAL_TOL = 1e-3
#: quadratic_log_fit fits log f where |f| >= LOGFIT_FLOOR * max |f|
LOGFIT_FLOOR = 1e-5
#: largest adjacent-sample phase jump _unwrap_from accepts without a warning
_JUMP_TOL = 0.5 * np.pi

# in-plane orthonormal frame perpendicular to (1,1,1)/sqrt(3)
_U1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
_U2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)


class PhaseUnwrapWarning(UserWarning):
    """Adjacent-sample phase jumps too large for reliable unwrapping."""


@dataclass(frozen=True)
class ConstraintSextuple:
    """A pair of real triples with equal sums and equal square sums."""

    left: tuple[float, float, float]
    right: tuple[float, float, float]

    def __post_init__(self):
        s_l = sum(self.left)
        s_r = sum(self.right)
        q_l = sum(v * v for v in self.left)
        q_r = sum(v * v for v in self.right)
        scale = 1.0 + abs(s_l) + abs(q_l)
        if abs(s_l - s_r) > 1e-12 * scale or abs(q_l - q_r) > 1e-12 * scale:
            raise ValueError(
                f"constraint violation: sums {s_l} vs {s_r}, squares {q_l} vs {q_r}"
            )


def _circle_points(xyz: np.ndarray, theta: np.ndarray | float) -> np.ndarray:
    """(s/3)(1,1,1) + r (cos theta U1 + sin theta U2) for the triples along
    the last axis of xyz, with s their sum, q their square sum and
    r = sqrt(q - s^2/3); rounding below zero is clipped to r = 0."""
    s = xyz.sum(axis=-1)
    q = (xyz ** 2).sum(axis=-1)
    r = np.sqrt(np.maximum(q - s ** 2 / 3.0, 0.0))
    return (s / 3.0)[..., None] + r[..., None] * (np.cos(theta)[..., None] * _U1
                                                 + np.sin(theta)[..., None] * _U2)


def constraint_circle(x: float, y: float, z: float, theta: float) -> ConstraintSextuple:
    """The point at angle theta on the constraint circle through (x, y, z).

    The circle is the intersection of the plane a+b+c = x+y+z with the
    sphere a^2+b^2+c^2 = x^2+y^2+z^2: center (s/3)(1,1,1), radius
    sqrt(q - s^2/3).  Degenerate x = y = z gives the single point itself.
    """
    point = _circle_points(np.array([x, y, z], dtype=float), theta)
    return ConstraintSextuple(left=(x, y, z), right=tuple(float(v) for v in point))


def _as_evaluator(f):
    return partial(sample_offgrid, f) if isinstance(f, WaveFunction) else f


def _relative_defect(vals: np.ndarray) -> np.ndarray:
    """|lhs - rhs| / (|lhs| + |rhs| + floor) over the last axis (x, y, z, a, b, c),
    with lhs = f(x)f(y)f(z) and rhs = f(a)f(b)f(c)."""
    lhs = vals[..., 0] * vals[..., 1] * vals[..., 2]
    rhs = vals[..., 3] * vals[..., 4] * vals[..., 5]
    return np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + _RESIDUAL_FLOOR)


def product_residual(f, cs: ConstraintSextuple) -> float:
    """Relative defect of f(x)f(y)f(z) = f(a)f(b)f(c) at one constraint point.

    f may be a callable or a WaveFunction (evaluated off-grid by
    lattice.sample_offgrid, the quintic spline of its samples).  A tiny floor
    keeps the ratio defined when both products vanish.
    """
    pts = np.array(cs.left + cs.right, dtype=float)
    return float(_relative_defect(np.asarray(_as_evaluator(f)(pts), dtype=complex)))


def residual_samples(f, n_samples: int, seed: int, sampler_box: float = 3.0) -> np.ndarray:
    """Array of product residuals at seeded random constraint points.

    Triples are drawn uniformly from [-box, box]^3 and angles uniformly from
    [0, 2pi); identical seeds reproduce identical samples.  The circles lie on
    spheres of radius |xyz| <= sqrt(3) box: on a WaveFunction, a larger box
    than the grid span holds shrinks to fit, with a warning, and a span that
    holds no box around 0 raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if not 0 < sampler_box < np.inf:  # a box of 0 samples every point at 0, testing nothing
        raise ValueError(f"sampler_box must be positive and finite, got {sampler_box}")
    if isinstance(f, WaveFunction):
        lo, hi = f.axis[0], f.axis[-1]
        limit = min(-lo, hi) / np.sqrt(3.0) * (1.0 - 1e-12)  # a margin for rounding
        if not limit > 0:
            raise ValueError(f"the grid span [{lo:g}, {hi:g}] holds no sampler box around 0")
        if sampler_box > limit:
            warn_at_caller(f"sampler_box {sampler_box:g} puts constraint points outside the "
                           f"grid span [{lo:g}, {hi:g}]; using {limit:.6g}", UserWarning)
            sampler_box = limit
    rng = np.random.default_rng(seed)
    ev = _as_evaluator(f)
    xyz = rng.uniform(-sampler_box, sampler_box, size=(n_samples, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
    pts = np.concatenate([xyz, _circle_points(xyz, theta)], axis=1)
    return _relative_defect(np.asarray(ev(pts.ravel()), dtype=complex).reshape(n_samples, 6))


def residual_statistic(f, n_samples: int, seed: int, sampler_box: float = 3.0
                       ) -> tuple[float, float]:
    """(sup, RMS) of product_residual over seeded random constraint points."""
    res = residual_samples(f, n_samples, seed, sampler_box)
    return float(res.max()), float(np.sqrt(np.mean(res ** 2)))


# ---------------------------------------------------------------------------
# golden-ratio power sums, exact arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSumRow:
    """p_k = 2 + (-1)^k - L_k with L_k the k-th Lucas number (= phi^k + psi^k)."""

    k: int
    lucas: int
    p: int
    bound: Fraction
    bound_holds: bool


def golden_power_sums(kmax: int) -> list[PowerSumRow]:
    """Exact table of the golden-ratio power sums for k = 3..kmax.

    The constraint pair (x, -x, x) ~ (phi x, psi x, 0) with phi, psi the
    roots of t^2 = t + 1 turns the degree-k coefficient of any log-power
    series into p_k = 2 + (-1)^k - (phi^k + psi^k).  phi^k + psi^k is the
    integer Lucas number L_k (L_1 = 1, L_2 = 3, L_k = L_{k-1} + L_{k-2}), so
    every p_k is an exact integer; all are nonzero for k >= 3, with the
    explicit lower bounds -p_k >= (3/2)^k - 3 (k even) and
    -p_k >= (3/2)^k - 2 (k odd) verified as exact rational inequalities.
    This is what forces log f to be a quadratic polynomial.
    """
    if kmax < 3:
        raise ValueError("kmax must be at least 3")
    rows = []
    l_prev, l_cur = 1, 3  # L_1, L_2
    three_halves = Fraction(3, 2)
    for k in range(3, kmax + 1):
        l_prev, l_cur = l_cur, l_prev + l_cur
        p = 2 + (-1) ** k - l_cur
        bound = three_halves ** k - (3 if k % 2 == 0 else 2)
        rows.append(PowerSumRow(k=k, lucas=l_cur, p=p, bound=bound,
                                bound_holds=Fraction(-p) >= bound))
    return rows


# ---------------------------------------------------------------------------
# log-quadratic certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFit:
    """Complex quadratic fit of log f with its RMS misfit."""

    A: complex
    B: complex
    C: complex
    residual: float

    @property
    def gaussian_certified(self) -> bool:
        return self.residual <= LOGFIT_RESIDUAL_TOL and self.A.real < 0


def _unwrap_from(idx: int, phase: np.ndarray) -> np.ndarray:
    """Unwrap wrapped phases cumulatively outward from index idx."""
    diffs = np.angle(np.exp(1j * np.diff(phase)))
    if diffs.size and np.abs(diffs).max() > _JUMP_TOL:
        warn_at_caller(
            f"adjacent-sample phase jumps up to {np.abs(diffs).max():.3f} rad "
            "exceed pi/2; unwrapping may be ambiguous",
            PhaseUnwrapWarning,
        )
    out = np.empty_like(phase)
    out[idx] = phase[idx]
    out[idx:] = phase[idx] + np.concatenate([[0.0], np.cumsum(diffs[idx:])])
    out[:idx + 1] = phase[idx] - np.concatenate([np.cumsum(diffs[:idx][::-1])[::-1], [0.0]])
    return out


def quadratic_log_fit(f: WaveFunction) -> QuadraticFit:
    """Least-squares complex quadratic fit to log f on the window where
    |f| >= LOGFIT_FLOOR * max |f|.

    The phase is unwrapped along the grid outward from the magnitude peak.
    The verdict gaussian_certified requires RMS residual at most
    LOGFIT_RESIDUAL_TOL and a strictly contracting quadratic part Re(A) < 0.
    """
    if not isinstance(f.grid, UniformGrid):
        raise ValueError("quadratic_log_fit expects a spatial-grid function")
    mag = np.abs(f.values)
    peak = mag.max()
    if peak == 0:
        raise ValueError("cannot fit the zero function")
    above = mag >= LOGFIT_FLOOR * peak
    peak_idx = int(mag.argmax())
    # contiguous window around the peak; f must be nowhere zero on it
    lo = peak_idx
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak_idx
    while hi < len(mag) - 1 and above[hi + 1]:
        hi += 1
    window = slice(lo, hi + 1)
    n_window = hi - lo + 1
    if n_window < 32:
        raise ValueError(f"fit window has {n_window} samples; need at least 32")
    x = f.grid.x[window]
    log_mag = np.log(mag[window])
    phase = _unwrap_from(peak_idx - lo, np.angle(f.values[window]))
    target = log_mag + 1j * phase
    design = np.column_stack([x ** 2, x, np.ones_like(x)]).astype(complex)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    misfit = target - design @ coeffs
    return QuadraticFit(
        A=complex(coeffs[0]),
        B=complex(coeffs[1]),
        C=complex(coeffs[2]),
        residual=float(np.sqrt(np.mean(np.abs(misfit) ** 2))),
    )
