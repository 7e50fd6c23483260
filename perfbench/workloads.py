"""Seeded inputs, operations and correctness gates of the three workloads.

A workload is a cycle of operations (ops) built from one seed; every cycle
of a run repeats the same inputs.  Each op calls the package through its
module attributes, so the traced run sees the wrapped functions, and returns
an ``Outcome``: the error that ``err_digits`` reports, the certificate error
that ``cert_digits`` reports, and the gates it missed.

Gates sit at 100x the largest error measured at the commit that defined the
benchmark (seeds 1-10), the margin ROADMAP item 4 asks for.

* ``picard``: a seeded perturbed Gaussian is driven to the Euler-Lagrange
  fixed point and certified as a Gaussian.  Many small calls on one 4 MB
  grid; exercises the gauge crossover, Lambda, gauge fixing and the
  O(n^2) parabolic resample.  Does not touch ``sextic_form``.
* ``oracle``: the two routes for Q, on the Gaussian diagonal (all six slots
  equal) and on a seeded sextuple of distinct smooth profiles.  About 95%
  of the time is spline evaluation in ``sextic_form``.
* ``sweep``: the dyadic bilinear sweep N = 4..64 on random banded
  profiles, up to n = 16384 with 2049 time nodes, where one materialized
  field would exceed the last-level cache; plus a Gaussian-pair probe with
  a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from strichartz_lab import bilinear, extremizer, functional_equation, lattice, sextic_form
from strichartz_lab.propagator import (
    TimeQuadrature,
    default_time_quadrature,
    gaussian_l6_sixth_exact,
    sharp_ratio_exact,
)

WORKLOADS = ("picard", "oracle", "sweep")
SIZES = ("full", "tiny")

# 100x the largest error seen on seeds 1-10 at the defining commit
PICARD_RATIO_GATE = 2.2e-14       # seen 2.2e-16
PICARD_LOGFIT_GATE = 6.3e-5       # seen 6.21e-7
ORACLE_GAUSSIAN_GATE = 1.3e-7     # seen 1.23e-9
ORACLE_RANDOM_GATE = 3.2e-7       # seen 3.15e-9
ORACLE_CLOSED_FORM_GATE = 1.3e-14 # seen 1.28e-16
SWEEP_PAIR_GATE = 5.4e-13         # seen 5.35e-15
SWEEP_SELF_PAIR_GATE = 3.5e-12    # seen 3.46e-14
SWEEP_SLOPE_GATE = -1.0 / 6.0 + 0.05  # the acceptance gate of criterion 5
HY_TOLERANCE = 1e-8               # as in criterion 5


@dataclass
class Outcome:
    """What one op produced, judged against its gates."""

    err: float
    cert: float | None = None
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def gate(self, label: str, value: float, limit: float) -> None:
        if not value <= limit:
            self.failures.append(f"{label} = {value:.3g} exceeds {limit:.3g}")


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The op cycle of a workload, with all inputs generated from seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    return {"picard": _picard, "oracle": _oracle, "sweep": _sweep}[workload](seed, tiny)


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------

def picard_start(grid: lattice.UniformGrid, rng: np.random.Generator) -> lattice.WaveFunction:
    """f0(y) = (1 + a y) e^{-y^2} e^{i k0 x}, y = (x - x0) / lam.

    x0, k0 in [-1, 1] and lam in [0.7, 1.4] are symmetry parameters that
    gauge fixing removes; a has modulus 0.1 and a seeded phase.  So the
    seed moves the start without changing how hard it is.
    """
    x0, k0 = rng.uniform(-1.0, 1.0, size=2)
    lam = rng.uniform(0.7, 1.4)
    a = 0.1 * np.exp(2j * np.pi * rng.uniform())
    x = grid.x
    y = (x - x0) / lam
    return lattice.WaveFunction(grid, (1.0 + a * y) * np.exp(-y ** 2 + 1j * k0 * x))


def _picard(seed: int, tiny: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    if tiny:
        grid, tq = lattice.UniformGrid.symmetric(n=128, half_width=5.0), default_time_quadrature(33)
    else:
        grid, tq = lattice.UniformGrid.symmetric(n=1024, half_width=20.0), default_time_quadrature(257)
    f0 = picard_start(grid, rng)

    def run() -> Outcome:
        result = extremizer.picard_iterate(f0, tol=1e-8, max_steps=200, tq=tq)
        final = result.final
        fit = functional_equation.quadratic_log_fit(final.f)
        sup, rms = functional_equation.residual_statistic(final.f, 10_000, seed)
        out = Outcome(err=abs(final.ratio - sharp_ratio_exact), cert=fit.residual,
                      facts={"steps": final.step_index, "residual_sup": sup,
                             "residual_rms": rms, "re_a": fit.A.real})
        if not result.converged:
            out.failures.append(f"no convergence in {final.step_index} steps")
        out.gate("ratio error", out.err, PICARD_RATIO_GATE)
        out.gate("log-fit residual", fit.residual, PICARD_LOGFIT_GATE)
        if not fit.A.real < 0:
            out.failures.append(f"Re A = {fit.A.real:.3g} is not negative")
        return out

    return [Op("picard", run)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_BUMP_CENTERS = np.array([-2.0, 0.0, 2.0])
_BUMP_WIDTH = 1.5


def smooth_profile(grid: lattice.UniformGrid, rng: np.random.Generator) -> lattice.WaveFunction:
    """Unit-L^2 profile whose spectrum is three Gaussian bumps (centres -2,
    0, 2, width 1.5) with seeded complex amplitudes.

    The spectral envelope is fixed, so the quadrature difficulty does not
    depend on the seed; only the shape within it does.
    """
    dual = grid.dual()
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    bumps = np.exp(-((dual.xi[None, :] - _BUMP_CENTERS[:, None]) / _BUMP_WIDTH) ** 2)
    f = lattice.inverse_transform(lattice.WaveFunction(dual, amps @ bumps))
    f.values /= lattice.lp_norm(f, 2)
    return f


def q_scale(fields) -> float:
    """The sharp bound KAPPA 12^{-1/2} prod ||f_i||_2 on |Q(f_1..f_6)|.

    Hoelder and the sharp Strichartz constant give it; Gaussians attain it,
    so on the Gaussian diagonal a difference relative to it is the plain
    relative difference.  On distinct slots Q can cancel far below it, and
    a plain relative difference would then measure that cancellation
    rather than the quadrature.
    """
    return sextic_form.KAPPA / math.sqrt(12.0) * math.prod(lattice.lp_norm(f, 2) for f in fields)


def _oracle(seed: int, tiny: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    if tiny:
        grid, tq, n_quad = (lattice.UniformGrid.symmetric(n=512, half_width=10.0),
                            default_time_quadrature(65), 12)
    else:
        grid, tq, n_quad = (lattice.UniformGrid.symmetric(n=1024, half_width=20.0),
                            default_time_quadrature(257), 48)
    gauss = lattice.make_gaussian(grid)
    closed_form = sextic_form.KAPPA * gaussian_l6_sixth_exact   # Q of e^{-x^2}
    sextuple = [smooth_profile(grid, rng) for _ in range(6)]

    def two_routes(fields, gate: float) -> tuple[Outcome, complex]:
        q_st = sextic_form.q_spacetime(*fields, tq)
        q_quad = sextic_form.q_quadrature(*fields, n_outer=n_quad, n_phi=n_quad)
        out = Outcome(err=abs(q_st - q_quad) / q_scale(fields))
        out.gate("two-route difference", out.err, gate)
        return out, q_st

    def gaussian() -> Outcome:
        out, q_st = two_routes([gauss] * 6, ORACLE_GAUSSIAN_GATE)
        out.cert = abs(q_st - closed_form) / closed_form
        out.gate("closed-form difference", out.cert, ORACLE_CLOSED_FORM_GATE)
        return out

    def distinct() -> Outcome:
        return two_routes(sextuple, ORACLE_RANDOM_GATE)[0]

    return [Op("gaussian", gaussian), Op("random", distinct)]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_NS = (4, 8, 16, 32, 64)
PROBE_N = 8


def gaussian_pair_l3(N: float) -> float:
    """Closed form of || e^{it Delta} e^{-x^2} . e^{it Delta} e^{-x^2 + iNx} ||_{L^3_{t,x}}.

    |e^{it Delta} e^{-x^2}|^2 = (1+16t^2)^{-1/2} exp(-2x^2 / (1+16t^2)), and
    the modulated factor is that profile translated by 2Nt (a Galilean
    boost).  The product's modulus cubed is then a Gaussian in x whose
    integral is sqrt(pi/6) (1+16t^2)^{-1} exp(-6 N^2 t^2 / (1+16t^2)),
    which leaves the one-dimensional integral over t below.  N = 0 gives
    || e^{it Delta} e^{-x^2} ||_{L^6}^2 = (pi^{3/2} / (4 sqrt 6))^{1/3}.
    """
    def density(t):
        d = 1.0 + 16.0 * t * t
        return math.exp(-6.0 * N * N * t * t / d) / d

    integral, _ = quad(density, -math.inf, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return (math.sqrt(math.pi / 6.0) * integral) ** (1.0 / 3.0)


def _sweep(seed: int, tiny: bool) -> list[Op]:
    # the tiny sweep still visits the largest grid, with a 9-node time rule,
    # so a warm-up has allocated and transformed arrays of the full size
    ns, sweep_tq = ((4, 64), TimeQuadrature.compactified(9)) if tiny else (SWEEP_NS, None)
    grid = bilinear.sweep_grid(PROBE_N, 1.0)
    tq = bilinear.pair_time_quadrature(PROBE_N, 1.0)
    x = grid.x
    g = lattice.WaveFunction(grid, np.exp(-x ** 2))
    g_mod = lattice.WaveFunction(grid, np.exp(-x ** 2 + 1j * PROBE_N * x))
    pair_exact = gaussian_pair_l3(PROBE_N)
    self_exact = gaussian_l6_sixth_exact ** (1.0 / 3.0)

    def run() -> Outcome:
        sweep = bilinear.separation_sweep(1.0, list(ns), profile="random", seed=seed,
                                          tq=sweep_tq)
        pair = bilinear.bilinear_l3(g, g_mod, tq)
        self_pair = bilinear.bilinear_l3(g, g, tq)
        out = Outcome(err=abs(pair - pair_exact) / pair_exact,
                      cert=abs(self_pair - self_exact) / self_exact,
                      facts={"slope": sweep.slope, "values": sweep.values,
                             "bounds": sweep.bounds})
        out.gate("Gaussian-pair error", out.err, SWEEP_PAIR_GATE)
        out.gate("Gaussian self-pair error", out.cert, SWEEP_SELF_PAIR_GATE)
        for N, v, b in zip(sweep.ns, sweep.values, sweep.bounds):
            if not v <= b * (1.0 + HY_TOLERANCE):
                out.failures.append(f"Hausdorff-Young bound fails at N={N}: {v:.6g} > {b:.6g}")
        out.gate("slope", sweep.slope, SWEEP_SLOPE_GATE)
        return out

    return [Op("sweep", run)]
