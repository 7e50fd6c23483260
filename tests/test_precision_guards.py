"""Guards at the accuracy the two Q routes and the off-grid route actually reach.

The acceptance gates stay as they are; these bounds sit at 100x the
difference observed at commit 3204666 (n = 1024, half-width 20, the default
time rule, q_quadrature at (48, 48)), so a regression far inside the gates
still fails here.  Differences are taken relative to the sharp bound
KAPPA 12^{-1/2} prod ||f_i||_2 on |Q|, which Gaussians attain; on distinct
slots Q can cancel far below it.  The off-grid guards sit at 100x what
lattice.sample_offgrid, the quintic Taylor table, reaches on the same grid.
The sharp-ratio guards sit at 100x max(observed, 1.1e-16) against 12^{-1/12},
observed at commit e21182a: the Gaussian's ratio matched it exactly, so its
guard rests on one rounding unit.  The Picard log-fit guard sits at 100x the
residual observed once the iteration was Anderson-mixed.  The q_quadrature
pins hold the values of the trapezoid rule on the full constraint circle;
like TAIL_CHAIN_M_GAUSSIAN they are guarded at 1e-13 relative, and against
the values of the Gauss-Legendre rule on half the circle, recorded at commit
823441d, at 100x the move between the two rules.  The Hermite
functions psi_k are exact Euler-Lagrange solutions; their guards, and those of
the ratio-deficit quotients at psi_0 + eps psi_k, sit at 100x what the default
grid and time rule reached at commit 26cfccf, and those of their analytic
extension at 100x what the default grid reached at commit fec01ff.
"""

import contextlib
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from numpy.polynomial.legendre import legval

from strichartz_lab.decay import analytic_extension_probe
from strichartz_lab.experiments import _random_smooth_profile
from strichartz_lab.extremizer import lambda_apply, picard_iterate
from strichartz_lab.functional_equation import (
    PhaseUnwrapWarning,
    quadratic_log_fit,
    residual_statistic,
)
from strichartz_lab.lattice import WaveFunction, lp_norm, make_gaussian
from strichartz_lab.propagator import FlowPlan, sharp_ratio_exact, strichartz_ratio, switch_time
from strichartz_lab.sextic_form import KAPPA, _axis_rule, _hat_spline, q_quadrature, q_spacetime

from conftest import direct_samples, random_band_limited, shared_nodes_sextuple

#: observed 1.22e-9 at commit 3204666
GAUSSIAN_TWO_ROUTE_BOUND = 1.3e-7
#: observed 4.83e-8 at commit 3204666 (six random_band_limited draws from
#: default_rng(4))
RANDOM_TWO_ROUTE_BOUND = 4.8e-6
#: observed 1.03e-9 (worst factored row of the Gaussian, absolute)
DIRECT_ROW_BOUND = 1.03e-7
#: observed 4.10e-8 (residual_statistic sup on the Gaussian, seed 3)
GAUSSIAN_RESIDUAL_BOUND = 4.1e-6
#: observed 0.0 (strichartz_ratio of e^{-x^2}, absolute)
GAUSSIAN_RATIO_BOUND = 1.1e-14
#: observed 1.11e-16 (last ratio of picard_iterate from (1 + 0.1x) e^{-x^2},
#: tol 1e-8, 7 states, absolute)
PICARD_RATIO_BOUND = 1.11e-14
#: observed 1.55e-7 (quadratic_log_fit residual of that last state)
PICARD_LOGFIT_BOUND = 1.6e-5
#: q_quadrature at (48, 48), on the 48-point trapezoid rule of the full
#: constraint circle: the Gaussian diagonal, the default_rng(4) sextuple (no
#: two outer slots share nodes) and shared_nodes_sextuple (all three do, with
#: three different functions)
Q_QUADRATURE_PINS = {
    "gaussian": 885.7449102461308 - 3.149018604104404e-14j,
    "random": -16.176506424548318 - 44.92539466997558j,
    "shared_nodes": -10.846025606833114 - 6.523591305285092j,
}
#: the same values at commit 823441d, on 48 Gauss-Legendre nodes in one angle
#: on half the circle, each read at both orderings of the roots
Q_QUADRATURE_PINS_GL48 = {
    "gaussian": 885.7449102372609 - 3.149460646535089e-14j,
    "random": -16.1765064136053 - 44.925394681503086j,
    "shared_nodes": -10.846025616851541 - 6.523591300744393j,
}
#: 100x the move between the two rules, relative to the sharp bound: observed
#: 1.00e-11, 3.53e-11 and 2.44e-11, 25x to 1400x below the two-route
#: differences of the same inputs
Q_QUADRATURE_RULE_MOVE_BOUNDS = {"gaussian": 1.01e-9, "random": 3.54e-9,
                                 "shared_nodes": 2.45e-9}


def _sharp_bound(fields):
    return KAPPA / math.sqrt(12.0) * math.prod(lp_norm(f, 2) for f in fields)


def _two_route_difference(fields, tq):
    return abs(q_spacetime(*fields, tq) - q_quadrature(*fields)) / _sharp_bound(fields)


def test_gaussian_two_routes(gaussian, tq):
    assert _two_route_difference([gaussian] * 6, tq) <= GAUSSIAN_TWO_ROUTE_BOUND


def test_random_sextuple_two_routes(grid, tq):
    rng = np.random.default_rng(4)
    sextuple = [random_band_limited(grid, rng) for _ in range(6)]
    assert _two_route_difference(sextuple, tq) <= RANDOM_TWO_ROUTE_BOUND


def test_factored_rows_against_closed_form_flow(grid, gaussian, tq):
    plan = FlowPlan(grid, tq)
    for sl, factored, (rows,) in plan.blocks([gaussian], switch_time(gaussian)):
        if not factored:
            continue
        for t, row in zip(tq.nodes[sl], rows):
            exact = (1 - 4j * t) ** -0.5 * np.exp(-grid.x ** 2 / (1 - 4j * t))
            assert np.abs(direct_samples(grid, t, row) - exact).max() <= DIRECT_ROW_BOUND


def test_gaussian_functional_equation_residual(gaussian):
    sup, _ = residual_statistic(gaussian, 10_000, seed=3)
    assert sup <= GAUSSIAN_RESIDUAL_BOUND


def test_gaussian_sharp_ratio(gaussian, tq):
    assert abs(strichartz_ratio(gaussian, tq) - sharp_ratio_exact) <= GAUSSIAN_RATIO_BOUND


def test_picard_converged_ratio(grid, tq):
    f0 = WaveFunction(grid, (1.0 + 0.1 * grid.x) * np.exp(-grid.x ** 2))
    result = picard_iterate(f0, tol=1e-8, max_steps=200, tq=tq)
    assert result.converged
    assert abs(result.states[-1].ratio - sharp_ratio_exact) <= PICARD_RATIO_BOUND
    assert quadratic_log_fit(result.final.f).residual <= PICARD_LOGFIT_BOUND


def test_picard_random_start_accelerated(grid, tq):
    # the plain iteration took 66 states from this start
    result = picard_iterate(_random_smooth_profile(grid, np.random.default_rng(1)),
                            tol=1e-8, max_steps=200, tq=tq)
    assert result.converged
    assert len(result.states) <= 33
    assert quadratic_log_fit(result.final.f).gaussian_certified
    assert abs(result.final.ratio - sharp_ratio_exact) <= PICARD_RATIO_BOUND


def test_q_quadrature_pins(grid):
    rng = np.random.default_rng(4)
    inputs = {"gaussian": [make_gaussian(grid)] * 6,
              "random": [random_band_limited(grid, rng) for _ in range(6)],
              "shared_nodes": shared_nodes_sextuple(grid)}
    nodes = [_axis_rule(_hat_spline(f)[1], 48)[0] for f in inputs["shared_nodes"][:3]]
    assert all(np.array_equal(nodes[0], x) for x in nodes[1:])
    for name, fields in inputs.items():
        value, pin = q_quadrature(*fields, 48, 48), Q_QUADRATURE_PINS[name]
        assert abs(value - pin) <= 1e-13 * abs(pin), name
        move = abs(value - Q_QUADRATURE_PINS_GL48[name]) / _sharp_bound(fields)
        assert move <= Q_QUADRATURE_RULE_MOVE_BOUNDS[name], name


# ---------------------------------------------------------------------------
# the Hermite family: exact Euler-Lagrange solutions beyond the Gaussian
# ---------------------------------------------------------------------------

#: observed 1.81e-14 (relative residual of Lambda psi_k = omega_k psi_k, k = 5)
HERMITE_EIGEN_BOUND = 1.81e-12
#: observed 1.72e-16 (ratio of psi_5 against the L^6 scaling law, relative)
HERMITE_RATIO_BOUND = 1.8e-14
#: observed 9.6e-16 (omega_k against KAPPA 12^{-1/2} (||psi_k||_6 / ||psi_0||_6)^6)
HERMITE_OMEGA_BOUND = 9.6e-14
#: omega_0 .. omega_4 as recorded at commit 26cfccf, to the digits shown
HERMITE_OMEGAS = (449.9133, 249.9518, 183.2980, 148.4625, 126.5493)
#: observed |q_k(3e-3) - (1 - mu_k) / 2|: 1.5e-11 and 2.0e-6 for the neutral
#: k = 1, 2; 5.6e-8, 3.2e-7 and 1.07e-6 for k = 3, 4, 6
DEFICIT_BOUNDS = {1: 1.5e-9, 2: 2.0e-4, 3: 5.6e-6, 4: 3.2e-5, 6: 1.07e-4}


#: observed 1.56e-11 (k = 0; |analytic_extension_probe(psi_k) - psi_k| at the
#: four points of test_hermite_analytic_extension, relative to max |psi_k(z)|)
HERMITE_EXTENSION_BOUND = 1.6e-9
#: observed 4.43e-8 (the probe's Cauchy-Riemann residual, k = 6)
HERMITE_CR_BOUND = 4.5e-6


def _hermite_at(z, k):
    """H_k(sqrt 2 z) e^{-z^2}, at real or complex z."""
    return hermval(np.sqrt(2.0) * z, [0] * k + [1]) * np.exp(-z ** 2)


def _hermite(grid, k):
    """psi_k = H_k(sqrt 2 x) e^{-x^2} at unit L^2 norm."""
    f = WaveFunction(grid, _hermite_at(grid.x, k).astype(complex))
    f.values /= lp_norm(f, 2)
    return f


def test_hermite_functions_are_exact_lambda_eigenfunctions(grid):
    # the lens transform turns the flow of psi_k into e^{-i(k + 1/2) theta} psi_k,
    # so |u| is the same rescaling of |psi_k| at every t: Lambda psi_k is a
    # multiple of psi_k, and the ratio scales as ||psi_k||_6
    psi0 = _hermite(grid, 0)
    r0, l6_0 = strichartz_ratio(psi0), lp_norm(psi0, 6)
    for k in range(6):
        psi = _hermite(grid, k)
        lam = lambda_apply(psi).values
        omega = grid.dx * np.vdot(psi.values, lam).real
        residual = np.linalg.norm(lam - omega * psi.values) / np.linalg.norm(lam)
        assert residual <= HERMITE_EIGEN_BOUND, k
        scale = lp_norm(psi, 6) / l6_0
        assert abs(strichartz_ratio(psi) / (r0 * scale) - 1.0) <= HERMITE_RATIO_BOUND, k
        closed = KAPPA / math.sqrt(12.0) * scale ** 6
        assert abs(omega / closed - 1.0) <= HERMITE_OMEGA_BOUND, k
        if k < len(HERMITE_OMEGAS):
            assert abs(omega - HERMITE_OMEGAS[k]) <= 5e-5, k


def test_ratio_deficit_quotients_match_the_hermite_spectrum(grid):
    # q_k(eps) = (C_1 - R(psi_0 + eps psi_k)) / (C_1 eps^2) tends to
    # (1 - mu_k) / 2, mu_k = 3 (i / sqrt 3)^k P_k(-i / sqrt 3) the eigenvalue
    # of DLambda(G) / omega on psi_k; mu_1 = mu_2 = 1 are neutral directions
    eps = 3e-3
    psi0 = _hermite(grid, 0)
    for k, bound in DEFICIT_BOUNDS.items():
        f = WaveFunction(grid, psi0.values + eps * _hermite(grid, k).values)
        q = (sharp_ratio_exact - strichartz_ratio(f)) / (sharp_ratio_exact * eps ** 2)
        mu = (3.0 * (1j / math.sqrt(3.0)) ** k * legval(-1j / math.sqrt(3.0), [0] * k + [1])).real
        assert abs(q - (1.0 - mu) / 2.0) <= bound, k


def test_hermite_analytic_extension(grid):
    # the paper's chain beyond the Gaussian: each psi_k continues to the
    # entire c_k H_k(sqrt 2 z) e^{-z^2}, which the log-quadratic certifier
    # must not take for a Gaussian
    zs = np.array([0.5j, 0.3 + 0.4j, -0.7 + 0.2j, 1j])
    for k in range(7):
        psi = _hermite(grid, k)
        c = 1.0 / lp_norm(WaveFunction(grid, _hermite_at(grid.x, k).astype(complex)), 2)
        exact = c * _hermite_at(zs, k)
        values, cr = analytic_extension_probe(psi, zs)
        assert np.abs(values - exact).max() <= HERMITE_EXTENSION_BOUND * np.abs(exact).max(), k
        assert cr.max() <= HERMITE_CR_BOUND, k
    for k in range(1, 5):
        # the fit window of psi_k, k >= 2, spans a sign change: a phase jump of pi
        with pytest.warns(PhaseUnwrapWarning) if k >= 2 else contextlib.nullcontext():
            fit = quadratic_log_fit(_hermite(grid, k))
        assert not fit.gaussian_certified, k
