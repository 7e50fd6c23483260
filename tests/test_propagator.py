import math
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from strichartz_lab.bilinear import (
    bilinear_l3,
    make_band_limited,
    pair_time_quadrature,
    sweep_grid,
)
from strichartz_lab.extremizer import _lambda_with_l6, lambda_apply
from strichartz_lab.lattice import (
    AliasingWarning,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    lp_norm,
    make_gaussian,
)
from strichartz_lab import propagator
from strichartz_lab.propagator import (
    FlowPlan,
    TimeQuadrature,
    _inverse_fourier_profile,
    _legendre,
    default_grid,
    evolve,
    fourier_symmetry_check,
    gaussian_l6_sixth_exact,
    sharp_ratio_exact,
    strichartz_ratio,
    switch_time,
)
from strichartz_lab.sextic_form import q_quadrature, q_spacetime

from conftest import direct_samples, random_band_limited


def gaussian_flow(x, t):
    # closed form of the width-one Gaussian under the e^{+it xi^2} multiplier
    return (1 - 4j * t) ** -0.5 * np.exp(-x ** 2 / (1 - 4j * t))


def test_time_quadrature_invariants():
    tq = TimeQuadrature.compactified(257)
    assert np.all(np.diff(tq.nodes) > 0)
    assert np.all(tq.weights > 0)
    # integrates (1+16t^2)^{-1} over R exactly: the integrand is constant in theta
    val = np.sum(tq.weights / (1 + 16 * tq.nodes ** 2))
    assert val == pytest.approx(np.pi / 4, rel=1e-14)
    with pytest.raises(ValueError):
        TimeQuadrature(nodes=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeQuadrature(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]))


def test_empty_rules_and_node_counts_below_one_are_rejected(grid):
    # an empty rule used to reach a ZeroDivisionError in reduce_blocks, and a
    # count of 0 scipy's tridiagonal solver
    with pytest.raises(ValueError, match="at least one node, got 0"):
        TimeQuadrature(nodes=[], weights=[])
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"at least one node, got {n}"):
            TimeQuadrature.compactified(n)
    f = make_gaussian(grid)
    for counts in ({"n_outer": 0}, {"n_phi": 0}):
        with pytest.raises(ValueError, match="at least one node, got 0"):
            q_quadrature(f, f, f, f, f, f, **counts)


@pytest.mark.parametrize("n", [1, 2, 9, 33, 48, 257, 1025])
def test_legendre_equals_leggauss_bit_for_bit(n):
    # leggauss is the reference only: its dense eigensolve of the companion
    # matrix hands dsterf the same tridiagonal matrix that _legendre does
    from numpy.polynomial.legendre import leggauss

    z, w = _legendre(n)
    z0, w0 = leggauss(n)
    assert z.tobytes() == z0.tobytes()
    assert w.tobytes() == w0.tobytes()
    assert not z.flags.writeable and not w.flags.writeable


def test_evolve_identity_at_zero(gaussian):
    u = evolve(gaussian, 0.0)
    np.testing.assert_allclose(u.values, gaussian.values, atol=1e-14)


def test_evolve_gaussian_closed_form(grid, gaussian):
    u = evolve(gaussian, 0.5)
    np.testing.assert_allclose(u.values, gaussian_flow(grid.x, 0.5), atol=1e-9)


def test_evolve_group_law(grid, rng):
    f = random_band_limited(grid, rng)
    u = evolve(evolve(f, 0.2), 0.15)
    v = evolve(f, 0.35)
    err = lp_norm(WaveFunction(grid, u.values - v.values), 2) / lp_norm(f, 2)
    assert err <= 1e-12


def test_evolve_unitary(grid, rng):
    f = random_band_limited(grid, rng)
    base = lp_norm(f, 2)
    for t in (0.1, 0.5, 2.0):
        assert lp_norm(evolve(f, t), 2) == pytest.approx(base, rel=1e-12)


def test_evolve_aliasing_warning(grid):
    spiky = np.zeros(grid.n, dtype=complex)
    spiky[::2] = 1.0  # loads the top of the band
    with pytest.warns(AliasingWarning):
        evolve(WaveFunction(grid, spiky), 0.1)


def test_evolve_warns_past_the_direct_horizon(grid):
    # the profile's widest direct horizon is 2.66
    f = WaveFunction(grid, (1 + 0.3 * grid.x) * np.exp(-grid.x ** 2 + 0.5j * grid.x))
    with pytest.warns(AliasingWarning, match="direct horizon is 2.66"):
        evolve(f, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(f, 0.3)


def _plan_rows(f, tq, switch):
    """The rows of f at every node of tq from FlowPlan.blocks, in node order,
    and whether each row is in the factored gauge."""
    rows = np.empty((len(tq.nodes), f.grid.n), dtype=complex)
    factored = np.zeros(len(tq.nodes), dtype=bool)
    for sl, fac, (block,) in FlowPlan(f.grid, tq).blocks([f], switch):
        rows[sl], factored[sl] = block, fac
    return rows, factored


def test_blocks_single_node(gaussian):
    tq = TimeQuadrature.single(0.0)
    rows, _ = _plan_rows(gaussian, tq, np.inf)
    np.testing.assert_allclose(rows[0], gaussian.values, atol=1e-14)
    l6 = FlowPlan(gaussian.grid, tq).integral([gaussian], np.inf, power=6).real ** (1 / 6)
    assert l6 == pytest.approx(lp_norm(gaussian, 6), rel=1e-12)


def test_blocks_gaussian_rows(grid, gaussian):
    z, w = _legendre(33)
    tq = TimeQuadrature(nodes=0.4 * z, weights=0.4 * w)  # below the wrap horizon
    rows, factored = _plan_rows(gaussian, tq, np.inf)
    assert not factored.any()
    for row, t in zip(rows, tq.nodes):
        np.testing.assert_allclose(row, gaussian_flow(grid.x, t), atol=1e-9)
        assert grid.dx * np.sum(np.abs(row) ** 2) == pytest.approx(
            lp_norm(gaussian, 2) ** 2, rel=1e-12)


def test_blocks_ragged_last_block():
    # 4 rows per block at n = 16384, so 9 nodes leave a one-row block in
    # the direct run; its direct rows must match evolve node by node.  The
    # match with one-node plans is checked by
    # test_blocks_visit_every_node_once_on_symmetric_rules.
    grid = UniformGrid.symmetric(n=16384, half_width=80.0)
    f = make_gaussian(grid, a=1.0, b=0.5j)
    tq = TimeQuadrature.compactified(9)
    for switch in (np.inf, 0.5):
        rows, factored = _plan_rows(f, tq, switch)
        assert factored.sum() == (0 if switch == np.inf else 4)
        for k in np.flatnonzero(~factored):
            np.testing.assert_allclose(rows[k], evolve(f, tq.nodes[k]).values,
                                       rtol=0, atol=1e-15)


def test_factored_rows_reconstruct_direct_samples(grid, gaussian, tq):
    rows, factored = _plan_rows(gaussian, tq, switch_time(gaussian))
    assert factored.any() and (~factored).any()
    k = int(np.argmax(factored))  # most negative factored time
    t = tq.nodes[k]
    np.testing.assert_allclose(direct_samples(grid, t, rows[k]), gaussian_flow(grid.x, t),
                               atol=1e-7)


def test_spacetime_l6_gaussian_value(gaussian, tq):
    val = (strichartz_ratio(gaussian, tq) * lp_norm(gaussian, 2)) ** 6
    assert val == pytest.approx(gaussian_l6_sixth_exact, rel=1e-4)


#: observed 0.0 for every move below (n = 1024, half-width 20, default rule);
#: the bound is 100 x max(observed, 1.1e-16)
SYMMETRY_BOUND = 1.1e-14


@pytest.mark.parametrize("move", [
    lambda f: evolve(f, 0.3),
    lambda f: WaveFunction(f.grid, np.roll(f.values, 64)),
    lambda f: WaveFunction(f.grid, np.exp(3j * f.grid.x) * f.values),
], ids=["time-translation", "space-translation", "galilean"])
def test_strichartz_ratio_symmetries(grid, tq, move):
    # time translation by 0.3, translation by 64 cells (2.5), and modulation
    # e^{3ix}, far inside the band |xi| < 80, on a profile that is no extremizer
    f = WaveFunction(grid, (1 + 0.3 * grid.x) * np.exp(-grid.x ** 2 + 0.5j * grid.x))
    assert abs(strichartz_ratio(move(f), tq) - strichartz_ratio(f, tq)) <= SYMMETRY_BOUND


def test_strichartz_ratio_gaussian(gaussian):
    assert strichartz_ratio(gaussian) == pytest.approx(sharp_ratio_exact, abs=1e-3)


def test_strichartz_ratio_invariances(grid, gaussian):
    base = strichartz_ratio(gaussian)
    assert strichartz_ratio(make_gaussian(grid, a=4.0)) == pytest.approx(base, abs=1e-4)
    assert strichartz_ratio(make_gaussian(grid, b=2.0)) == pytest.approx(base, abs=1e-4)
    modulated = WaveFunction(grid, np.exp(3j * grid.x) * gaussian.values)
    assert strichartz_ratio(modulated) == pytest.approx(base, abs=1e-4)
    scaled = WaveFunction(grid, 2.7 * gaussian.values)
    assert strichartz_ratio(scaled) == pytest.approx(base, abs=1e-4)


def test_strichartz_ratio_indicator_below_sharp(grid):
    indicator = WaveFunction(grid, (np.abs(grid.x) <= 1.0).astype(complex))
    with pytest.warns(AliasingWarning):
        ratio = strichartz_ratio(indicator)
    assert ratio < sharp_ratio_exact - 0.01


def test_strichartz_ratio_warns_before_the_sum_aliases(grid):
    # e^{-60x^2} reads 5.5e-10 off C1 from aliasing alone, with 2.2e-7 of its
    # tail mass beyond half the band and 1e-19 beyond evolve's 7/8
    with pytest.warns(AliasingWarning, match="L\\^p sum"):
        strichartz_ratio(make_gaussian(grid, a=60.0))
    strichartz_ratio(make_gaussian(grid, a=30.0))  # 2.3e-13 beyond half: no warning


def test_strichartz_ratio_upper_bound(grid, rng):
    profiles = [
        make_gaussian(grid),
        make_gaussian(grid, a=0.3, b=1.0 + 0.5j),
        WaveFunction(grid, (1 + 0.4 * grid.x ** 2) * np.exp(-grid.x ** 2 / 2)),
        random_band_limited(grid, rng),
        random_band_limited(grid, rng),
    ]
    for f in profiles:
        assert strichartz_ratio(f) <= sharp_ratio_exact + 2e-3


def test_strichartz_ratio_zero_input(grid):
    with pytest.raises(ValueError):
        strichartz_ratio(WaveFunction(grid, np.zeros(grid.n)))


def test_switch_time_overlap(grid, gaussian):
    t_switch = switch_time(gaussian)
    assert 0.05 < t_switch < 0.6


def test_band_edge_input_has_no_crossover(band_edge):
    with pytest.raises(ValueError, match="band edge"):
        switch_time(band_edge)
    with pytest.warns(AliasingWarning), pytest.raises(ValueError, match="band edge"):
        strichartz_ratio(band_edge)


def test_direct_horizon_is_covariant_under_translation_and_modulation(grid):
    # the direct gauge is the periodic flow, which moving the box or a
    # modulation by a multiple of dxi leaves as it is; the chirp of the
    # factored gauge reads true positions and frequencies, so its bound grows
    # with the input's distance from the origin.  Measured about x = 0 and
    # xi = 0, t_direct read 1.04, 0.0 (with a warning) and 0.57 here.
    x = grid.x
    values = (1 + 0.3 * x) * np.exp(-x ** 2 + 0.5j * x)
    centred = WaveFunction(grid, values)
    shifted = WaveFunction(UniformGrid(n=grid.n, dx=grid.dx, x0=0.0), values)
    modulated = WaveFunction(grid, values * np.exp(40j * grid.dual().dxi * x))
    for moved in (shifted, modulated):
        for (t_fact, t_direct), (moved_fact, moved_direct) in zip(
                propagator._gauge_crossover([centred]), propagator._gauge_crossover([moved])):
            assert moved_direct == pytest.approx(t_direct, rel=1e-15, abs=0)
            assert moved_fact > t_fact
    for f in (centred, shifted, modulated):
        switch_time(f)  # finds a window: the suite makes any warning an error


def test_switch_time_measures_each_distinct_input_once(grid, gaussian, monkeypatch):
    g = WaveFunction(grid, np.exp(-(grid.x - 1.0) ** 2 + 2j * grid.x))
    calls = Counter()

    def counted(f):
        calls[id(f)] += 1
        return forward_transform(f)

    monkeypatch.setattr(propagator, "forward_transform", counted)
    assert switch_time([gaussian, g, gaussian, gaussian, g, gaussian]) == switch_time([gaussian, g])
    assert calls == {id(gaussian): 2, id(g): 2}
    # a pair that fills the box tries both windows, and is transformed once
    wide = sweep_grid(16, 1.0)
    h1 = make_band_limited(wide, 0.0, 1.0, "random", seed=1)
    h2 = make_band_limited(wide, 16.0, 32.0, "random", seed=2)
    calls.clear()
    with pytest.warns(AliasingWarning, match="fills the box"):
        switch_time([h1, h2, h1])
    assert calls == {id(h1): 1, id(h2): 1}


def test_fourier_symmetry_constant_across_inputs(grid, gaussian):
    res_g = fourier_symmetry_check(gaussian)
    hermite = WaveFunction(grid, (1 + 0.3 * grid.x + 0.2 * grid.x ** 2)
                           * np.exp(-grid.x ** 2 / 2))
    res_h = fourier_symmetry_check(hermite)
    assert res_g.fitted_c == pytest.approx(res_h.fitted_c, rel=1e-3)
    # under these conventions the constant comes out at sqrt(2 pi)
    assert res_g.fitted_c == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)


def test_fourier_symmetry_real_even(grid):
    f = make_gaussian(grid, a=0.7)
    res = fourier_symmetry_check(f)
    assert np.isfinite(res.ratio_finv) and res.ratio_finv > 0
    assert res.ratio_f == pytest.approx(res.ratio_finv, rel=1e-9)


def test_fourier_symmetry_involution(gaussian):
    res1 = fourier_symmetry_check(gaussian)
    res2 = fourier_symmetry_check(_inverse_fourier_profile(gaussian))
    assert res1.fitted_c == pytest.approx(res2.fitted_c, rel=1e-9)


# ---------------------------------------------------------------------------
# mirror-paired blocks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_grid():
    # 4 rows per block; 9 or 10 nodes keep their tables, 33 or 34 do not
    return UniformGrid.symmetric(n=16384, half_width=80.0)


def _visited(plan, fields, switch):
    return [k for sl, _, _ in plan.blocks(fields, switch)
            for k in range(len(plan.tq.nodes))[sl]]


@pytest.mark.parametrize("m", [9, 10, 33, 34])
def test_blocks_visit_every_node_once_on_symmetric_rules(wide_grid, m):
    f = make_gaussian(wide_grid, a=1.0, b=0.5j)
    tq = TimeQuadrature.compactified(m)
    plan = FlowPlan(wide_grid, tq)
    # the t >= 0 half holds 5 or 17 nodes, which 4-row blocks do not divide
    assert plan.block_rows == 4 and plan._keep == (m < 32)
    for switch in (np.inf, 0.5):
        visited = []
        for sl, factored, (rows, phases) in plan.reduce_blocks(
                [f], switch, lambda rows, phases, _: (rows[0].copy(), phases.copy())):
            # fn gets the phases of its own nodes bit for bit, the conjugates
            # of a mirror block too, but for the sign of one zero: the chirp's
            # imaginary part at x = 0, which + 0 makes positive
            full = _full_row_phases(plan, "chirp" if factored else "flow", sl)
            assert (phases + 0).tobytes() == (full + 0).tobytes()
            for k, row in zip(range(m)[sl], rows):
                visited.append(k)
                one = FlowPlan(wide_grid, TimeQuadrature.single(tq.nodes[k]))
                (_, _, (single,)), = one.blocks([f], switch)
                np.testing.assert_allclose(row, single[0], rtol=0, atol=1e-15)
        assert sorted(visited) == list(range(m))
        # each mirror block comes just before its t >= 0 block
        assert tq.nodes[visited[0]] < 0


@pytest.mark.parametrize("tq", [
    TimeQuadrature.single(0.0),
    TimeQuadrature.single(0.7),
    TimeQuadrature(nodes=np.array([-0.3, 0.1, 0.2, 0.4, 0.6, 0.9]), weights=np.ones(6)),
], ids=["single-0", "single-0.7", "asymmetric"])
def test_other_rules_take_the_ascending_walk(wide_grid, tq):
    f = make_gaussian(wide_grid)
    plan = FlowPlan(wide_grid, tq)
    assert _visited(plan, [f], 0.5) == list(range(len(tq.nodes)))


def _count_phase_rows(plan):
    # pieces on pool threads ask for rows too, so the count takes a lock
    asked, lock = Counter(), threading.Lock()
    phases = plan._phases

    def counting(kind, sl, out):
        with lock:
            asked[kind] += len(range(len(plan.tq.nodes))[sl])
        return phases(kind, sl, out)

    plan._phases = counting
    return asked


def _full_row_phases(plan, kind, sl):
    """The phase rows of every column, each from its own exponential."""
    t = plan.tq.nodes[sl, None]
    s = np.divide(0.25, t, out=np.zeros_like(t), where=t != 0)
    if kind == "flow":
        return np.exp(1j * t * plan._xi2)
    return np.exp(-1j * s * plan._x2) * plan._sign


@pytest.mark.parametrize("grid, even_chirp", [
    (UniformGrid.symmetric(1024, 20.0), True),
    (UniformGrid(n=64, dx=0.3, x0=-7.1), False),  # off-centre: x^2 is not even
])
def test_half_row_phases_equal_full_rows_bit_for_bit(grid, even_chirp):
    plan = FlowPlan(grid, TimeQuadrature.compactified(33))
    assert plan._even == {"flow": True, "chirp": even_chirp}
    for kind in ("flow", "chirp"):
        for sl in (slice(0, 33), slice(17, 20)):
            rows = plan._phases(kind, sl, np.empty((len(plan.tq.nodes[sl]), grid.n), complex))
            assert rows.tobytes() == _full_row_phases(plan, kind, sl).tobytes(), kind


@pytest.mark.parametrize("m", [9, 10, 33, 34])
def test_symmetric_rule_computes_half_the_phase_rows(wide_grid, m):
    f = make_gaussian(wide_grid, a=1.0, b=0.5j)
    half = math.ceil(m / 2)
    plan = FlowPlan(wide_grid, TimeQuadrature.compactified(m))
    asked = _count_phase_rows(plan)
    plan.integral([f], np.inf, power=2.0)
    assert asked == {"flow": half}
    plan = FlowPlan(wide_grid, TimeQuadrature.compactified(m))
    asked = _count_phase_rows(plan)
    plan.integral([f], 0.5, power=2.0)
    factored = int((plan.tq.nodes > 0.5).sum())
    assert asked == {"flow": half - factored, "chirp": factored}


def test_kept_tables_serve_lambda_from_half_the_rows(grid):
    f = make_gaussian(grid, a=1.0, b=0.5j)
    plan = FlowPlan(grid, TimeQuadrature.compactified(33))
    asked = _count_phase_rows(plan)
    _lambda_with_l6(f, plan)
    factored = int((plan.tq.nodes > switch_time(f)).sum())
    assert asked == {"flow": 17 - factored, "chirp": factored}
    first = dict(asked)
    _lambda_with_l6(f, plan)  # a second call reads the kept tables only
    assert asked == first
    # each piece conjugates its own mirror rows: no table holds a t < 0 row
    for _, filled in plan._tables.values():
        assert not filled[plan.tq.nodes < 0].any()


def _one_node_sum(value_at, tq):
    """sum_k w_k value_at(single(t_k))"""
    return sum(w * value_at(TimeQuadrature.single(t)) for t, w in zip(tq.nodes, tq.weights))


def test_functionals_match_weighted_one_node_sums(grid):
    tq = TimeQuadrature.compactified(33)
    f = make_gaussian(grid, a=1.0, b=0.5j)
    g = WaveFunction(grid, (1 + 0.3 * grid.x) * np.exp(-grid.x ** 2 + 0.5j * grid.x))
    l2 = lp_norm(f, 2)

    sixth = _one_node_sum(lambda one: (strichartz_ratio(f, one) * l2) ** 6, tq)
    assert strichartz_ratio(f, tq) == pytest.approx(sixth ** (1 / 6) / l2, rel=1e-15, abs=0)

    fields = (f, g, f, g, g, f)
    q = q_spacetime(*fields, tq)
    assert abs(q - _one_node_sum(lambda one: q_spacetime(*fields, one), tq)) <= 1e-15 * abs(q)

    switch = switch_time([f, g])

    def l3(rule):
        return FlowPlan(grid, rule).integral([f, g], switch, power=3.0).real ** (1 / 3)

    cube = _one_node_sum(lambda one: l3(one) ** 3, tq)
    assert l3(tq) == pytest.approx(cube ** (1 / 3), rel=1e-15, abs=0)

    lam = lambda_apply(f, tq).values
    lam_sum = _one_node_sum(lambda one: lambda_apply(f, one).values, tq)
    assert np.abs(lam - lam_sum).max() <= 1e-15 * np.abs(lam).max()


def test_only_propagator_builds_legendre_rules():
    # either route to a Legendre rule: numpy's leggauss or its companion
    # matrix, or the tridiagonal eigensolve _legendre uses
    import ast
    import pathlib

    import strichartz_lab

    builders = {"leggauss", "legcompanion", "eigvalsh_tridiagonal"}
    users = set()
    for path in pathlib.Path(strichartz_lab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if builders.intersection(names):
                users.add(path.name)
    assert users == {"propagator.py"}


def test_flow_plan_alone_picks_the_rule_the_crossover_and_the_pieces():
    # every call of the default rule and of the crossover, by the module
    # function or method that makes it, every name of the pool imported from
    # propagator, and every name of the plan's phase tables outside it
    import ast
    import inspect
    import pathlib

    import strichartz_lab

    calls, pool_imports, compares, table_reads = set(), set(), set(), set()
    for path in pathlib.Path(strichartz_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                owner = fn.name if fn is top else f"{top.name}.{fn.name}"
                calls.update((node.func.id, path.name, owner) for node in ast.walk(fn)
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id in ("default_time_quadrature", "switch_time"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "propagator":
                pool_imports.update((path.name, alias.name) for alias in node.names
                                    if alias.name in ("_pool", "_run", "_split", "_Pieces"))
            if path.name == "extremizer.py" and isinstance(node, ast.Compare):
                compares.add(ast.unparse(node))
            if (path.name != "propagator.py" and isinstance(node, ast.Attribute)
                    and node.attr in ("_table", "_tables", "_phases")):
                table_reads.add((path.name, ast.unparse(node)))
    assert calls == {("default_time_quadrature", "propagator.py", "FlowPlan.__init__"),
                     ("switch_time", "propagator.py", "FlowPlan.reduce_blocks")}
    assert pool_imports == set()
    # extremizer compares no time node with a crossover of its own
    assert not any("nodes" in c or "switch" in c for c in compares), compares
    assert "switch" not in inspect.signature(bilinear_l3).parameters
    # only propagator reads a phase table: a reduction goes back through the
    # rows it receives, and a kept plan holds the flow and chirp tables alone
    assert table_reads == set() and not hasattr(FlowPlan, "table")
    assert set(FlowPlan(default_grid())._tables) == {"flow", "chirp"}


# ---------------------------------------------------------------------------
# the thread pool
# ---------------------------------------------------------------------------

def _pool_values(grid):
    """Every reduction of the engine, as bytes: bilinear_l3 on an unkept plan
    (n = 4096, 513 nodes), the ratio, Q and Lambda on the default plan, and an
    L^3 integral of a pair on a 65-node plan, the last four kept unless
    TABLE_BYTES is patched."""
    wide = sweep_grid(16, 1.0)
    h1 = make_band_limited(wide, 0.0, 1.0, "random", seed=1)
    h2 = make_band_limited(wide, 16.0, 32.0, "random", seed=2)
    f = WaveFunction(grid, (1 + 0.3 * grid.x) * np.exp(-grid.x ** 2 + 0.5j * grid.x))
    g = make_gaussian(grid, a=1.0, b=0.5j)
    with pytest.warns(AliasingWarning):  # the random pair fills its box
        pair = bilinear_l3(h1, h2, pair_time_quadrature(16, 1.0))
    q = q_spacetime(f, g, f, g, g, f)
    # switching at 0 leaves the t = 0 node and then a 32-row block, which six
    # threads split into pieces (5, 5, 6, ..) against (5, 6, 5, ..) for the
    # widest, 33-row block
    late = FlowPlan(grid, TimeQuadrature.compactified(65)).integral([f, g], 0.0, power=3.0)
    return (pair.hex(), strichartz_ratio(f).hex(), q.real.hex(), q.imag.hex(),
            lambda_apply(f).values.tobytes(), late.real.hex())


def test_pooled_engine_equals_one_thread_bit_for_bit(pool, grid, monkeypatch):
    pool(1)
    inline = _pool_values(grid)
    # two threads, and three, whose pieces of a 16-row block are uneven, and
    # six, where a piece of a shorter block can be longer than the same piece
    # of the widest block
    for threads in (2, 3, 6):
        pool(threads)
        assert _pool_values(grid) == inline, threads
    # plans that keep no table compute each piece's rows in its own buffer
    monkeypatch.setattr(propagator, "TABLE_BYTES", 0)
    for threads in (1, 2):
        pool(threads)
        assert _pool_values(grid) == inline, threads


def test_threads_sharing_one_kept_plan_match_sequential_calls(grid):
    # more threads than CPUs, switching as often as the interpreter allows, all
    # filling the tables of one fresh plan at once, in several rounds
    tq = TimeQuadrature.compactified(65)
    inputs = [make_gaussian(grid, a=1.0 + 0.1 * k, b=0.5j * k) for k in range(4)]

    def values(plan, f):
        lam, sixth = _lambda_with_l6(f, plan)
        return lam.values.tobytes(), sixth, plan.integral([f, f], power=3.0)

    fresh = FlowPlan(grid, tq)
    expected = [values(fresh, f) for f in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            shared = FlowPlan(grid, tq)
            assert shared._keep
            start, got = threading.Barrier(len(inputs)), {}

            def worker(k):
                start.wait()
                got[k] = values(shared, inputs[k])

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [got.get(k) for k in range(len(inputs))] == expected
    finally:
        sys.setswitchinterval(interval)


def test_import_starts_no_thread():
    code = ("import threading; before = threading.active_count(); "
            "import strichartz_lab, strichartz_lab.propagator as p; "
            "print(threading.active_count() - before, p._POOL)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert out == ["0", "None"]


def test_piece_exception_reaches_caller_with_no_piece_left_running(pool):
    events = []

    def piece(k):
        events.append(("start", k))
        time.sleep(0.02)
        events.append(("end", k))
        if k == 1:
            raise RuntimeError("piece 1")
        return k

    # one worker for three pieces: the caller runs piece 0 and the worker
    # piece 1; piece 2 is queued, and when piece 1 raises it either never
    # starts or has ended before the exception reaches the caller
    pool(3, workers=1)
    assert propagator._run(piece, [0, 3, 2]) == [0, 3, 2]
    events.clear()
    with pytest.raises(RuntimeError, match="piece 1"):
        propagator._run(piece, [0, 1, 2])
    seen = list(events)
    time.sleep(0.1)
    assert events == seen  # nothing started after the raise
    started = {k for what, k in seen if what == "start"}
    assert started == {k for what, k in seen if what == "end"}
    assert {0, 1} <= started
    # and through a plan: the exception of a reduction reaches the caller
    plan = FlowPlan(UniformGrid.symmetric(n=64, half_width=4.0), TimeQuadrature.compactified(9))

    def failing(*_):
        raise ValueError("reduction")

    with pytest.raises(ValueError, match="reduction"):
        list(plan.reduce_blocks([make_gaussian(plan.grid)], np.inf, failing))


def _other_grid_input(g):
    other = make_gaussian(UniformGrid.symmetric(g.n, 10.0))
    return list(FlowPlan(g, TimeQuadrature.single(0.1)).reduce_blocks([other], 0.0, None))


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda g: TimeQuadrature([0.0, 1.0], [1.0]), ValueError, "equal length",
                 id="rule-mismatched"),
    pytest.param(lambda g: TimeQuadrature([0.0, np.inf], [1.0, 1.0]), ValueError, "finite",
                 id="rule-non-finite"),
    pytest.param(lambda g: TimeQuadrature.compactified(rate=0.0), ValueError, "rate",
                 id="rate-zero"),
    pytest.param(lambda g: switch_time(forward_transform(make_gaussian(g))),
                 GridMismatchError, "spatial-grid", id="switch-of-spectrum"),
    pytest.param(lambda g: FlowPlan(g.dual()), GridMismatchError, "spatial grid",
                 id="plan-of-frequency-grid"),
    pytest.param(_other_grid_input, GridMismatchError, "plan's grid", id="input-on-other-grid"),
])
def test_flow_engine_refuses_bad_rules_and_grids(grid, call, error, match):
    with pytest.raises(error, match=match):
        call(grid)
