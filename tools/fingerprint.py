"""Exact fingerprints of the lab's headline values, one per line.

    python3 tools/fingerprint.py > new.txt
    python3 tools/fingerprint.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

Each line is a label and either the float.hex of a value (a complex value
gives its real and imaginary parts) or the SHA-256 of an array's bytes, so a
claim that a change keeps every value bit for bit is the empty diff of two
runs.  Inputs come from the package and from ``perfbench/workloads.py`` of
this checkout:

* ``picard_iterate`` from ``picard_start`` seeds 1-3 on the default grid:
  the final state, its ratio and the number of states;
* ``strichartz_ratio``, ``lambda_apply``, ``omega_of`` and
  ``fourier_symmetry_check`` of (1 + 0.3x) e^{-x^2 + 0.5ix};
* ``forward_transform`` of that profile, and its ``evolve`` at t = 0.3 and
  t = 3 (the one-node rule, walked in ascending order), so that a change of
  FFT library or transform convention shows even where no functional moves;
* ``lambda_apply`` of the same profile centred at x = 30 on the box [0, 40)
  of 1024 points, away from the origin, and of the profile on the box
  [-40, 40) of 4096 points, whose 257 x 4096 phase tables exceed
  ``TABLE_BYTES``, so that the plan keeps none;
* ``q_spacetime`` and ``q_quadrature(48, 48)`` on the Gaussian diagonal and
  on the ``smooth_profile`` sextuple of ``default_rng(4)``, and
  ``q_quadrature(48, 48)`` on the ``experiments._random_smooth_profile``
  sextuple of ``default_rng(4)``, whose outer live edges differ by more
  than the panel pad;
* ``calibrate_kappa`` on the Gaussian and the profile above;
* ``m_weighted(48, 48)`` of the bootstrap tail chain on the Gaussian, the
  call of ``tests/test_decay.py``'s ``_weighted_tail_chain``: the absolute
  path of the constraint-set quadrature, with a weight;
* for each of these quadratures, ``outer_rule``: ``shared`` when its three
  outer axes took one node array (the first three lookups of the call),
  ``own`` otherwise, so that a move of that choice shows even where no
  value changes;
* ``separation_sweep(1, [4, 8], "random", 3)``: values, bounds and
  cumulative slopes;
* ``switch_time`` of the profile above on the default box and at x = 30 on
  [0, 40), of ``picard_start`` seed 1 after ``gauge_fix``, of the sextuple
  above and of the seed-3 N = 4 sweep pair, so that a move of the gauge
  crossover shows even where no value changes.

The package is imported from --src (default: ``src/`` of this checkout),
with one BLAS thread, set before numpy loads.  Takes about 2 s on 2 CPUs.
"""

import argparse
import hashlib
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the strichartz_lab package to fingerprint")
    return p.parse_args(argv)


def show(label: str, value) -> None:
    """One line: float.hex of a real or complex number, SHA-256 of anything
    with tobytes (an array or a WaveFunction's values), or str otherwise."""
    if isinstance(value, complex):
        text = f"{value.real.hex()} {value.imag.hex()}"
    elif isinstance(value, float):
        text = value.hex()
    elif hasattr(value, "tobytes"):
        text = hashlib.sha256(value.tobytes()).hexdigest()
    else:
        text = str(value)
    print(f"{label} {text}")


def outer_rule(sextic_form, call, *args):
    """call(*args), a constraint-set quadrature, and ``shared`` when the
    node arrays of its first three lookups, those of the outer axes, are
    equal, ``own`` otherwise."""
    import numpy as np

    cells, nodes = sextic_form._cells, []

    def recording(grid, pts, out=None):
        if len(nodes) < 3:
            nodes.append(np.array(pts))
        return cells(grid, pts, out)

    sextic_form._cells = recording
    try:
        value = call(*args)
    finally:
        sextic_form._cells = cells
    return value, "shared" if all(np.array_equal(nodes[0], x) for x in nodes[1:]) else "own"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np

    import strichartz_lab
    from strichartz_lab import bilinear, experiments, extremizer, lattice, propagator, sextic_form
    from workloads import picard_start, smooth_profile

    origin = Path(strichartz_lab.__file__).resolve().parent.parent
    if origin != args.src.resolve():
        sys.exit(f"strichartz_lab was imported from {origin}, not from {args.src}")
    # the random sweep pairs fill their box, which warns on every call
    warnings.simplefilter("ignore", lattice.AliasingWarning)

    grid = propagator.default_grid()
    for seed in (1, 2, 3):
        result = extremizer.picard_iterate(picard_start(grid, np.random.default_rng(seed)))
        show(f"picard[{seed}].states", len(result.states))
        show(f"picard[{seed}].ratio", result.final.ratio)
        show(f"picard[{seed}].f", result.final.f.values)

    x = grid.x
    f = lattice.WaveFunction(grid, (1 + 0.3 * x) * np.exp(-x ** 2 + 0.5j * x))
    show("forward_transform", lattice.forward_transform(f).values)
    for t in (0.3, 3.0):
        show(f"evolve[{t}]", propagator.evolve(f, t).values)
    show("ratio", propagator.strichartz_ratio(f))
    show("lambda", extremizer.lambda_apply(f).values)
    show("omega", extremizer.omega_of(f))
    sym = propagator.fourier_symmetry_check(f)
    show("fourier_symmetry", f"{sym.ratio_f.hex()} {sym.ratio_finv.hex()} {sym.fitted_c.hex()}")
    box = lattice.UniformGrid(n=grid.n, dx=grid.dx, x0=0.0)
    xc = box.x - 30.0
    off = lattice.WaveFunction(box, (1 + 0.3 * xc) * np.exp(-xc ** 2 + 0.5j * xc))
    show("lambda[0,40)", extremizer.lambda_apply(off).values)
    big = lattice.UniformGrid.symmetric(4096, 40.0)
    xb = big.x
    show("lambda[unkept]", extremizer.lambda_apply(
        lattice.WaveFunction(big, (1 + 0.3 * xb) * np.exp(-xb ** 2 + 0.5j * xb))).values)

    gauss = lattice.make_gaussian(grid)
    rng = np.random.default_rng(4)
    sextuple = [smooth_profile(grid, rng) for _ in range(6)]
    rng = np.random.default_rng(4)
    unshared = [experiments._random_smooth_profile(grid, rng) for _ in range(6)]
    for name, fields in (("gaussian", [gauss] * 6), ("random", sextuple), ("unshared", unshared)):
        if name != "unshared":
            show(f"q_spacetime[{name}]", sextic_form.q_spacetime(*fields))
        q, rule = outer_rule(sextic_form, sextic_form.q_quadrature, *fields, 48, 48)
        show(f"q_quadrature[{name}]", q)
        show(f"q_quadrature[{name}].outer_rule", rule)
    ratios, spread = sextic_form.calibrate_kappa([gauss, f])
    show("kappa.ratios", ratios)
    show("kappa.spread", spread)
    unit = lattice.WaveFunction(grid, gauss.values / lattice.lp_norm(gauss, 2))
    fhat = lattice.forward_transform(unit)
    w = sextic_form.WeightParams(2.0 ** -4, 1.0)
    h = lattice.WaveFunction(fhat.grid, np.exp(sextic_form.weight(fhat.grid.xi, w)) * fhat.values)
    h_gt = lattice.WaveFunction(fhat.grid, np.where(np.abs(fhat.grid.xi) >= 4.0, h.values, 0.0))
    m, rule = outer_rule(sextic_form, sextic_form.m_weighted, h_gt, h, h, h, h, h, w, 48, 48)
    show("m_weighted[tail-chain]", m)
    show("m_weighted[tail-chain].outer_rule", rule)

    sweep = bilinear.separation_sweep(1, [4, 8], "random", 3)
    show("sweep.values", np.array(sweep.values))
    show("sweep.bounds", np.array(sweep.bounds))
    show("sweep.slopes", np.array(sweep.slope_so_far()))

    wide = bilinear.sweep_grid(4, 1.0)
    pair = [bilinear.make_band_limited(wide, 0.0, 1.0, "random", 3),
            bilinear.make_band_limited(wide, 4.0, 8.0, "random", 4)]
    start = extremizer.gauge_fix(picard_start(grid, np.random.default_rng(1)))
    for name, fields in (("profile", f), ("profile[0,40)", off), ("picard_start[1]", start),
                         ("random", sextuple), ("sweep[3].N4", pair)):
        show(f"switch[{name}]", propagator.switch_time(fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
