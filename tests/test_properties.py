"""Property tests on drawn inputs (hypothesis).

Profiles are conftest.random_band_limited draws, whose spectra sit well
inside the aliasing band; hypothesis draws their seeds.  Examples are
derandomized, so every run checks the same inputs.  Differences are taken
relative to the sharp bound KAPPA 12^{-1/2} prod ||f_i||_2 on |Q|, as in
test_precision_guards, and each bound sits at 100x the largest difference
observed over 420 seeds.
"""

import math

import numpy as np
import pytest

from strichartz_lab.lattice import UniformGrid, lp_norm
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

seeds = st.integers(0, 2 ** 32 - 1)


def _examples(count):
    return hypothesis.settings(max_examples=count, deadline=None, derandomize=True,
                               database=None)


def _profiles(seed, count):
    rng = np.random.default_rng(seed)
    return [random_band_limited(GRID, rng) for _ in range(count)]


def _conjugate_defect(q, fields):
    """|Q(f4, f5, f6, f1, f2, f3) - conj Q(f1, .., f6)| over the sharp bound."""
    scale = KAPPA / math.sqrt(12.0) * math.prod(lp_norm(f, 2) for f in fields)
    return abs(q(*fields[3:], *fields[:3]) - np.conj(q(*fields))) / scale


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
