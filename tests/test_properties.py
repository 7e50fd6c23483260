"""Property tests on drawn inputs (hypothesis).

Profiles are conftest.random_band_limited draws, whose spectra sit well
inside the aliasing band; hypothesis draws their seeds.  Examples are
derandomized, so every run checks the same inputs.  Differences of Q are
taken relative to the sharp bound KAPPA 12^{-1/2} prod ||f_i||_2 on |Q|, as
in test_precision_guards, and differences of functions as L^2 norms relative
to ||f||_2, and differences of the Strichartz ratio absolutely.  Each bound
sits at 100x the largest difference observed, over 420 seeds for the
conjugate symmetries, over 640 for the ratio's symmetry group and over 300
for the others.
"""

import math

import numpy as np
import pytest

from strichartz_lab.extremizer import _resample_scaled, gauge_fix, lambda_apply
from strichartz_lab.lattice import (
    UniformGrid,
    WaveFunction,
    forward_transform,
    inner_product,
    inverse_transform,
    lp_norm,
)
from strichartz_lab.propagator import evolve, strichartz_ratio
from strichartz_lab.sextic_form import KAPPA, q_quadrature, q_spacetime

from conftest import random_band_limited

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRID = UniformGrid.symmetric(n=1024, half_width=20.0)
#: observed 6.32e-17: the two products round differently
SPACETIME_CONJUGATE_BOUND = 6.4e-15
#: observed 4.63e-6 at (64, 24) (median 2.7e-9): slots 1-3 and 4-6 play
#: different roles in the quadrature, so the swap changes the rule.  At
#: (48, 24) the largest difference was 1.04e-4, and at (24, 24) 4.8e-3 on 30
#: seeds, where 100x would pass a Q that lost its conjugation.
QUADRATURE_CONJUGATE_BOUND = 4.7e-4
#: observed 4.11e-16: <g, Lambda f> and Q(g, f, .., f) take different routes
ADJOINT_BOUND = 4.2e-14
#: observed 7.12e-17, in a conjugate slot and in a linear slot
MULTILINEAR_BOUND = 7.2e-15
#: observed 9.88e-15: a second fix may rescale again by lam - 1 just above
#: the gauge tolerance
GAUGE_IDEMPOTENCE_BOUND = 1.0e-12
#: observed 4.39e-16
ROUND_TRIP_BOUND = 4.4e-14
#: largest |R(moved f) - R(f)| over 640 drawn seeds and moves, and at the
#: range ends over 320 more: parabolic scaling 4.11e-15 (at lam = 0.8);
#: time translation 3.69e-8 (at t0 = -0.5, one seed in 320; median 1.1e-16),
#: which the same seed reads as 2.2e-16 on a box twice as wide, so it is the
#: default box's error on the widened profile, not a broken symmetry;
#: modulation, grid shift and global phase 3.33e-16
RATIO_SYMMETRY_BOUNDS = {"scaling": 4.2e-13, "time": 3.7e-6, "modulation": 3.4e-14,
                         "shift": 3.4e-14, "phase": 3.4e-14}

seeds = st.integers(0, 2 ** 32 - 1)


def _examples(count):
    return hypothesis.settings(max_examples=count, deadline=None, derandomize=True,
                               database=None)


def _profiles(seed, count):
    rng = np.random.default_rng(seed)
    return [random_band_limited(GRID, rng) for _ in range(count)]


def _sharp_bound(fields):
    return KAPPA / math.sqrt(12.0) * math.prod(lp_norm(f, 2) for f in fields)


def _relative_l2(f, g):
    """||f - g||_2 / ||g||_2."""
    return lp_norm(WaveFunction(g.grid, f.values - g.values), 2) / lp_norm(g, 2)


def _conjugate_defect(q, fields):
    """|Q(f4, f5, f6, f1, f2, f3) - conj Q(f1, .., f6)| over the sharp bound."""
    return abs(q(*fields[3:], *fields[:3]) - np.conj(q(*fields))) / _sharp_bound(fields)


@_examples(2)
@hypothesis.given(seed=seeds)
def test_q_spacetime_conjugate_symmetry(seed):
    assert _conjugate_defect(q_spacetime, _profiles(seed, 6)) <= SPACETIME_CONJUGATE_BOUND


@_examples(1)  # about 0.2 s per example on 2 CPUs
@hypothesis.given(seed=seeds)
def test_q_quadrature_conjugate_symmetry(seed):
    # one profile per triple, so the outer slots share their nodes and a call
    # visits a sixth of the node triples
    f, g = _profiles(seed, 2)

    def q(*fields):
        return q_quadrature(*fields, 64, 24)

    assert _conjugate_defect(q, [f, f, f, g, g, g]) <= QUADRATURE_CONJUGATE_BOUND


@_examples(4)
@hypothesis.given(seed=seeds)
def test_adjoint_identity(seed):
    g, f = _profiles(seed, 2)
    defect = abs(inner_product(g, lambda_apply(f)) - q_spacetime(g, f, f, f, f, f))
    assert defect / _sharp_bound([g] + [f] * 5) <= ADJOINT_BOUND


@_examples(2)  # six q_spacetime calls per example
@hypothesis.given(seed=seeds, a=st.complex_numbers(max_magnitude=2.0))
def test_q_multilinear(seed, a):
    """Q(a g + b h, ..) = conj(a) Q(g, ..) + conj(b) Q(h, ..) in slot 1, and
    the same without conjugates in slot 6."""
    g, h, *fields = _profiles(seed, 7)
    b = 0.5 - 0.3j
    mixed = WaveFunction(GRID, a * g.values + b * h.values)
    for slot, c in ((0, np.conj), (5, lambda z: z)):
        def q(x):
            return q_spacetime(*fields[:slot], x, *fields[slot:])

        defect = abs(q(mixed) - c(a) * q(g) - c(b) * q(h))
        scale = abs(a) * _sharp_bound(fields + [g]) + abs(b) * _sharp_bound(fields + [h])
        assert defect <= MULTILINEAR_BOUND * scale, slot


@_examples(10)
@hypothesis.given(seed=seeds)
def test_gauge_fix_idempotent(seed):
    once = gauge_fix(_profiles(seed, 1)[0])
    assert _relative_l2(gauge_fix(once), once) <= GAUGE_IDEMPOTENCE_BOUND


@_examples(20)
@hypothesis.given(seed=seeds)
def test_transform_round_trip(seed):
    (f,) = _profiles(seed, 1)
    assert _relative_l2(inverse_transform(forward_transform(f)), f) <= ROUND_TRIP_BOUND


@_examples(15)  # six ratios and one O(n^2) resample per example, about 0.1 s
@hypothesis.given(seed=seeds, lam=st.floats(0.8, 1.25), t0=st.floats(-0.5, 0.5),
                  b=st.floats(-3.0, 3.0), shift=st.integers(-64, 64),
                  phase=st.floats(0.0, 2.0 * math.pi))
def test_strichartz_ratio_symmetry_group(seed, lam, t0, b, shift, phase):
    """R(f) is unchanged by sqrt(lam) f(lam x), e^{it0 Delta} f, e^{ibx} f,
    a shift by whole cells and e^{i phase} f."""
    (f,) = _profiles(seed, 1)
    moved = {"scaling": _resample_scaled(f, lam), "time": evolve(f, t0).values,
             "modulation": np.exp(1j * b * GRID.x) * f.values,
             "shift": np.roll(f.values, shift), "phase": np.exp(1j * phase) * f.values}
    base = strichartz_ratio(f)
    for name, values in moved.items():
        diff = abs(strichartz_ratio(WaveFunction(GRID, values)) - base)
        assert diff <= RATIO_SYMMETRY_BOUNDS[name], name
