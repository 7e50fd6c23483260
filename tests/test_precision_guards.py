"""Guards at the accuracy the two Q routes actually reach.

The acceptance gates stay as they are; these bounds sit at 100x the
difference observed at commit 3204666 (n = 1024, half-width 20, the default
time rule, q_quadrature at (48, 48)), so a regression far inside the gates
still fails here.  Differences are taken relative to the sharp bound
KAPPA 12^{-1/2} prod ||f_i||_2 on |Q|, which Gaussians attain; on distinct
slots Q can cancel far below it.
"""

import math

import numpy as np

from strichartz_lab.lattice import lp_norm
from strichartz_lab.sextic_form import KAPPA, q_quadrature, q_spacetime

from conftest import random_band_limited

#: observed 1.22e-9 at commit 3204666
GAUSSIAN_TWO_ROUTE_BOUND = 1.3e-7
#: observed 4.83e-8 at commit 3204666 (six random_band_limited draws from
#: default_rng(4))
RANDOM_TWO_ROUTE_BOUND = 4.8e-6


def _two_route_difference(fields, tq):
    scale = KAPPA / math.sqrt(12.0) * math.prod(lp_norm(f, 2) for f in fields)
    return abs(q_spacetime(*fields, tq) - q_quadrature(*fields)) / scale


def test_gaussian_two_routes(gaussian, tq):
    assert _two_route_difference([gaussian] * 6, tq) <= GAUSSIAN_TWO_ROUTE_BOUND


def test_random_sextuple_two_routes(grid, tq):
    rng = np.random.default_rng(4)
    sextuple = [random_band_limited(grid, rng) for _ in range(6)]
    assert _two_route_difference(sextuple, tq) <= RANDOM_TWO_ROUTE_BOUND
