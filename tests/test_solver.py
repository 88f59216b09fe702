from __future__ import annotations

import numpy as np
import pytest

from onephase import solver
from onephase.field import GridSpec, ScalarField, halfplane, interior_mask, laplacian, make_grid
from onephase.ode1d import profile_field, solve_monotone
from onephase.potentials import f_eps, make_reference, make_tabulated
from onephase.records import from_json, to_json
from onephase.solver import (
    SolveConfig,
    SolveReport,
    _levels,
    _plan,
    _prolong,
    _restrict,
    _sweep,
    energy,
    minimize,
    residual,
)


def _term():
    return make_reference(1.0)


def test_energy_of_halfplane_limit_competitor():
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    val = energy(halfplane(grid), term, 0.0)
    # Discrete value: the 1/h forward differences above the kink row each
    # carry (h/h)^2 * h, which sums to 1 per column and to 2 across the
    # x trapezoid; the indicator is 0 on the kink row, so its y trapezoid
    # over (0, 1] is 1 - h/2, and 2 - h across x.  Total 4 - h.
    assert val == pytest.approx(4.0 - grid.h, abs=1e-12)
    assert val == pytest.approx(4.0, abs=2.0 * grid.h)


def test_energy_of_zero_field():
    term = _term()
    grid = make_grid((0.0, 0.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.zeros(grid.shape))
    assert energy(u, term, 0.0) == 0.0
    assert energy(u, term, 0.1) == 0.0


def test_energy_of_profile_matches_one_dimensional_reduction():
    term = _term()
    eps = 0.1
    u = profile_field(term, make_grid((-1.0, -1.0), (1.0, 1.0), 201), eps)
    base = solve_monotone(term, t_min=-12.0, t_max=12.0, h=1e-3)
    t = base.t
    window = np.abs(t) <= 1.0 / eps
    density = base.Vp[window] ** 2 + term.F(base.V[window])
    oracle = 2.0 * eps * np.trapezoid(density, t[window])
    assert energy(u, term, eps) == pytest.approx(oracle, rel=0.02)


@pytest.mark.parametrize("T", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_energy_gradient_is_the_five_point_residual(dim, T):
    term = make_reference(T)
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 41) if dim == 1 else make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    rng = np.random.default_rng(17 * dim + int(T))
    u = rng.uniform(0.05, 2.0, grid.shape) * T * eps
    phi = rng.standard_normal(grid.shape) * interior_mask(grid)
    lap = laplacian(ScalarField(grid=grid, values=u)).values
    want = -2.0 * grid.h**dim * np.sum((lap - f_eps(term, eps, u)) * phi)
    # The Dirichlet part is quadratic and F_eps is a quartic on (0, T*eps)
    # and constant above it, so the 5-point central difference is exact up
    # to rounding, except at nodes within 2*delta of the kink of f_eps' at
    # T*eps, whose O(delta^2) share this step keeps far below the bound.
    delta = 1e-4 * T * eps

    def e(k):
        return energy(ScalarField(grid=grid, values=u + k * delta * phi), term, eps)

    got = (e(-2) - 8.0 * e(-1) + 8.0 * e(1) - e(2)) / (12.0 * delta)
    assert got == pytest.approx(want, rel=1e-8)


def test_energy_trace_records_every_bundle_of_a_descent():
    term = _term()
    eps = 0.2
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    boundary = profile_field(term, grid, eps)
    edge = ~interior_mask(grid)
    start = halfplane(grid).values
    start[edge] = boundary.values[edge]
    u, report = minimize(boundary, ScalarField(grid=grid, values=start), term, SolveConfig(eps=eps))
    assert report.converged
    trace = np.asarray(report.energy_trace)
    assert report.iterations >= 5
    assert len(trace) == report.iterations + 1
    assert trace[-1] == energy(u, term, eps)
    assert np.max(np.diff(trace)) <= 1e-12 * (1.0 + abs(trace[0]))


def _cubic_table():
    s = np.linspace(0.0, 1.0, 41)
    return make_tabulated(np.column_stack([s, 6.0 * s * (1.0 - s) ** 2]))


def test_tabulated_solve_trace_does_not_rise():
    # The sweeps descend the energy only if the tabulated F is the exact
    # antiderivative of 2f; the chord of it rose by 4.6e-6 on this run.
    term = _cubic_table()
    eps = 0.1
    grid = make_grid(-0.6, 0.6, 41)  # h = 0.3 * T * eps
    data = ScalarField(grid=grid, values=halfplane(grid).values + 0.02)
    _, report = minimize(data, data, term, SolveConfig(eps=eps))
    assert report.converged
    trace = np.asarray(report.energy_trace)
    assert len(trace) == report.iterations + 1
    assert np.max(np.diff(trace)) <= 1e-12 * (1.0 + abs(trace[0]))


def test_solve_near_the_grid_bound_does_not_rise():
    term = _term()
    eps = 0.1
    # h = 0.95 * sqrt(dim) * T * eps, just inside the bound the CLI enforces.
    grid = make_grid(-1.9, 1.9, 41)
    exact = profile_field(term, grid, eps)
    start = halfplane(grid).values
    start[0], start[-1] = exact.values[0], exact.values[-1]
    u, report = minimize(
        exact,
        ScalarField(grid=grid, values=start),
        term,
        SolveConfig(eps=eps, max_iter=200),
    )
    assert report.converged
    trace = np.asarray(report.energy_trace)
    assert len(trace) == report.iterations + 1
    assert trace[-1] == energy(u, term, eps)
    # Over-relaxing the exact node minimizer does not go uphill here; the
    # relaxed 3-step node Newton it replaced rose by up to 0.336.
    assert np.max(np.diff(trace)) <= 1e-12 * (1.0 + abs(trace[0]))


@pytest.mark.parametrize("fraction", [0.95, 0.99])
def test_halfplane_solve_near_the_grid_bound_converges_downhill(fraction):
    # h = fraction * sqrt(2) * T * eps; the node Newton ended these runs
    # unconverged at residual 26 and 20 after 121 and 140 bundles.
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    data = halfplane(grid)
    eps = grid.h / (fraction * np.sqrt(2.0))
    _, report = minimize(data, data, term, SolveConfig(eps=eps))
    assert report.converged
    trace = np.asarray(report.energy_trace)
    assert np.max(np.diff(trace)) <= 1e-12 * (1.0 + abs(trace[0]))


def test_residual_zero_field_and_stencil_order():
    term = _term()
    eps = 0.1
    res = {}
    for h in (2e-3, 1e-3):
        grid = make_grid(-1.0, 1.0, int(round(2.0 / h)) + 1)
        res[h] = residual(profile_field(term, grid, eps), term, eps)
        zero = ScalarField(grid=grid, values=np.zeros(grid.shape))
        assert residual(zero, term, eps) == 0.0
    assert res[1e-3] < 0.01
    assert 3.3 < res[2e-3] / res[1e-3] < 4.7


@pytest.mark.parametrize("dim, n", [(1, 41), (2, 41), (2, 4)])
def test_residual_is_the_interior_laplacian_defect_bit_for_bit(dim, n):
    term = _term()
    eps = 0.1
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, n)
    rng = np.random.default_rng(dim)
    v = rng.uniform(0.0, 2.0 * term.T * eps, grid.shape)
    v[rng.random(grid.shape) < 0.2] = 0.0
    u = ScalarField(grid=grid, values=v)
    defect = laplacian(u).values - f_eps(term, eps, v)
    want = float(np.max(np.abs(defect[interior_mask(grid)])))
    assert float.hex(residual(u, term, eps)) == float.hex(want)


def test_residual_reports_kink_of_nonsmooth_input():
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    assert residual(halfplane(grid), term, 0.05) > 10.0


def test_minimize_matches_one_dimensional_profile():
    term = _term()
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 2001)
    boundary = profile_field(term, grid, eps)
    exact = boundary.values
    init_vals = halfplane(grid).values
    init_vals[0], init_vals[-1] = exact[0], exact[-1]
    init = ScalarField(grid=grid, values=init_vals)
    cfg = SolveConfig(eps=eps, tol_residual=1e-8, max_iter=20_000)
    u, report = minimize(boundary, init, term, cfg)
    assert report.converged
    assert report.final_residual <= 1e-8
    assert np.max(np.abs(u.values - exact)) < 1e-4
    assert np.min(u.values) >= 0.0


def test_minimize_trivial_zero_data():
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    zero = ScalarField(grid=grid, values=np.zeros(grid.shape))
    u, report = minimize(zero, zero, term, SolveConfig(eps=0.2))
    assert np.all(u.values == 0.0)
    assert report.iterations == 0
    assert report.final_residual == 0.0
    assert report.converged
    assert report.energy_trace == (0.0,)


def test_minimize_2d_keeps_one_dimensional_symmetry():
    term = _term()
    eps = 0.1
    # Solve the one-dimensional column problem on the matching grid first;
    # tiling that solution gives boundary data whose two-dimensional
    # minimizer is exactly x-independent, so any x-spread in the result is
    # pure solver error.
    line = make_grid(-1.0, 1.0, 201)
    col_bc = profile_field(term, line, eps)
    col_cfg = SolveConfig(eps=eps, tol_residual=1e-10, max_iter=20_000)
    col, col_report = minimize(col_bc, col_bc, term, col_cfg)
    assert col_report.converged
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    base = np.tile(col.values, (grid.shape[0], 1))
    boundary = ScalarField(grid=grid, values=base)
    # x-dependent interior perturbation, vanishing on the boundary
    wiggle = 0.05 * np.cos(3.0 * xm) * (1 - xm**2) * (1 - ym**2)
    init = ScalarField(grid=grid, values=np.maximum(base + wiggle, 0.0))
    cfg = SolveConfig(eps=eps, tol_residual=1e-8, max_iter=5_000)
    u, report = minimize(boundary, init, term, cfg)
    assert report.converged
    spread = np.max(u.values, axis=0) - np.min(u.values, axis=0)
    assert np.max(spread) < 1e-6


def test_minimize_strong_maximum_principle():
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    ym = np.meshgrid(*grid.axes(), indexing="ij")[1]
    data = 0.3 + 0.1 * ym
    boundary = ScalarField(grid=grid, values=data)
    u, report = minimize(boundary, boundary, term, SolveConfig(eps=0.4))
    assert report.converged
    assert np.min(u.values) > 0.0


def test_minimize_energy_refines_at_second_order():
    term = _term()
    eps = 0.2
    energies = []
    for h in (0.02, 0.01, 0.005):
        boundary = profile_field(term, make_grid(-1.0, 1.0, int(round(2.0 / h)) + 1), eps)
        cfg = SolveConfig(eps=eps, tol_residual=1e-10, max_iter=50_000)
        u, report = minimize(boundary, boundary, term, cfg)
        assert report.converged
        energies.append(energy(u, term, eps))
    ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])
    assert ratio >= 2.0**1.8
    assert ratio < 6.0


def test_minimize_validates_inputs():
    term = _term()
    g1 = make_grid(-1.0, 1.0, 21)
    g2 = make_grid(-1.0, 1.0, 31)
    a = ScalarField(grid=g1, values=np.zeros(g1.shape))
    b = ScalarField(grid=g2, values=np.zeros(g2.shape))
    with pytest.raises(ValueError):
        minimize(a, b, term, SolveConfig(eps=0.1))
    neg = ScalarField(grid=g1, values=-np.ones(g1.shape))
    with pytest.raises(ValueError):
        minimize(neg, a, term, SolveConfig(eps=0.1))
    off = ScalarField(grid=g1, values=np.full(g1.shape, 0.5))
    with pytest.raises(ValueError):
        minimize(a, off, term, SolveConfig(eps=0.1))
    # At and above h = sqrt(d)*T*eps no node energy is strictly convex:
    # h = T*eps = 0.1 on g1, and h = 0.1 > sqrt(2)*0.05 in 2D.
    with pytest.raises(ValueError, match=r"h = 0\.1 .*sqrt\(d\)\*T\*eps = 0\.1\b"):
        minimize(a, a, term, SolveConfig(eps=0.1))
    g2d = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    z2d = ScalarField(grid=g2d, values=np.zeros(g2d.shape))
    with pytest.raises(ValueError, match=r"h = 0\.1 "):
        minimize(z2d, z2d, term, SolveConfig(eps=0.05))
    # A table with f(T) != 0 drops at T, whatever h is.
    s = np.linspace(0.0, 1.0, 41)
    lifted = make_tabulated(np.column_stack([s, 6.0 * s * (1.0 - s) ** 2 + 0.1]))
    fine = make_grid(-1.0, 1.0, 401)
    z = ScalarField(grid=fine, values=np.zeros(fine.shape))
    with pytest.raises(ValueError, match="f\\(T\\)"):
        minimize(z, z, lifted, SolveConfig(eps=0.1))


def test_config_validation_and_json():
    with pytest.raises(ValueError):
        SolveConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolveConfig(eps=0.1, tol_residual=0.0)
    with pytest.raises(ValueError):
        SolveConfig(eps=0.1, max_iter=0)
    cfg = SolveConfig(eps=0.25, tol_residual=1e-9, max_iter=77)
    assert from_json(SolveConfig, to_json(cfg)) == cfg


def test_report_round_trips_a_rising_trace():
    # The trace is a measurement, not an invariant: a rise is kept.
    rep = SolveReport(
        iterations=1, final_residual=0.5, energy_trace=(1.0, 2.0), converged=False
    )
    payload = to_json(rep)
    assert payload["energy_trace"] == [1.0, 2.0]
    assert payload["converged"] is False


def _masked_sweep(values, h, eps, omega, root, g=None):
    """Reference red-black sweep: the node solve on every interior node, then
    keep the nodes of the active colour (interior index sum even, then odd)."""
    dim = values.ndim
    core = (slice(1, -1),) * dim
    parity = np.indices(tuple(n - 2 for n in values.shape)).sum(axis=0) % 2 == 0
    for color in (parity, ~parity):
        neigh = np.zeros_like(values[core])
        for ax in range(dim):
            lo = tuple(slice(0, -2) if k == ax else slice(1, -1) for k in range(dim))
            hi = tuple(slice(2, None) if k == ax else slice(1, -1) for k in range(dim))
            neigh = neigh + values[lo] + values[hi]
        m = neigh * (eps / h**2)
        if g is not None:
            m = m - eps * g[core]
        target = root(m) * eps
        cand = np.maximum(values[core] + omega * (target - values[core]), 0.0)
        values[core] = np.where(color, cand, values[core])


def _tabulated_term():
    s = np.linspace(0.0, 1.5, 61)
    return make_tabulated(np.column_stack([s, 1.1 * np.asarray(make_reference(1.5).f(s))]))


@pytest.mark.parametrize(
    "make_term",
    [
        lambda: make_reference(0.37),
        lambda: make_reference(1.0),
        lambda: make_reference(2.0),
        _cubic_table,
        _tabulated_term,
    ],
    ids=["reference-T0.37", "reference-T1", "reference-T2", "cubic-table", "tabulated"],
)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("fraction", [0.3, 0.9])
def test_node_solve_is_exact_to_rounding(make_term, dim, fraction):
    term = make_term()
    eps = 0.1
    # fraction of the reference bound; 0.9 stays below the 1.1x table's
    # bound sqrt(dim/1.1)*T*eps too.
    h = fraction * np.sqrt(dim) * term.T * eps
    diag = 2.0 * dim / h**2
    k = diag * eps**2
    N = np.concatenate([[0.0], np.geomspace(1e-12, 10.0 * diag * term.T * eps, 4001)])
    root = term.shifted_inverse(k)
    w = eps * root(N * eps)
    assert np.all(w >= 0.0)
    defect = np.abs(diag * w - N + f_eps(term, eps, w))
    assert np.all(defect <= 8.0 * np.finfo(float).eps * (diag * w + N))
    linear = N * eps >= k * term.T
    assert 0 < np.count_nonzero(linear) < len(N)
    want = N[linear] / diag
    assert np.all(np.abs(w[linear] - want) <= 4.0 * np.spacing(want))


def test_tabulated_node_solve_below_the_first_row():
    # f is 0 below a first row at s > 0 and jumps to its value there: the
    # root follows k*s below the row and stays on the row across the jump.
    s = np.linspace(0.1, 1.0, 37)
    f = 6.0 * s * (1.0 - s) ** 2
    term = make_tabulated(np.column_stack([s, f]))
    k = 10.0
    m = np.linspace(0.0, 2.0 * k, 401)
    x = term.shifted_inverse(k)(m)
    on_jump = x == s[0]
    assert np.count_nonzero(on_jump) > 1 and np.count_nonzero(x < s[0]) > 1
    assert np.all((k * s[0] <= m[on_jump]) & (m[on_jump] <= k * s[0] + f[0]))
    x, m = x[~on_jump], m[~on_jump]
    assert np.all(np.abs(k * x + term.f(x) - m) <= 8.0 * np.finfo(float).eps * (k * x + m))


@pytest.mark.parametrize(
    "make_term",
    [lambda: make_reference(1.0), lambda: make_reference(2.0), _tabulated_term],
    ids=["reference-T1", "reference-T2", "tabulated"],
)
@pytest.mark.parametrize(
    "shape",
    [(3,), (4,), (7,), (1001,), (3, 3), (3, 4), (4, 5), (8, 9), (41, 40), (5, 4, 6), (6, 6, 6)],
)
def test_colour_block_sweep_is_the_masked_sweep_bit_for_bit(make_term, shape):
    term = make_term()
    rng = np.random.default_rng(sum(shape) * 7919 + len(shape))
    plan = _plan(shape)
    moved = False
    for eps in (0.5, 0.1):
        # h below sqrt(dim)*T*eps keeps every node energy strictly convex.
        h = 0.5 * eps * term.T
        diag = 2.0 * len(shape) / h**2
        root = term.shifted_inverse(diag * eps**2)
        start = rng.uniform(0.0, 2.0 * term.T * eps, shape)
        start[rng.random(shape) < 0.2] = 0.0
        start[rng.random(shape) < 0.1] = -0.0
        # The right-hand side of a coarse level: up to diag*T*eps either way,
        # so that some nodes are held at 0 and some at -0.0 scale to the root.
        g = rng.uniform(-1.0, 1.0, shape) * diag * term.T * eps
        g[rng.random(shape) < 0.2] = -0.0
        for omega, rhs in ((1.7, None), (1.0, None), (1.0, g), (1.7, g)):
            got, want = start.copy(), start.copy()
            for _ in range(5):
                _sweep(got, h, eps, omega, plan, root, rhs)
                _masked_sweep(want, h, eps, omega, root, rhs)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            moved = moved or not np.array_equal(got, start)
    assert moved


@pytest.mark.parametrize(
    "make_term", [lambda: make_reference(1.0), _tabulated_term], ids=["reference", "tabulated"]
)
@pytest.mark.parametrize("shape", [(41,), (21, 24)])
def test_sweep_with_a_right_hand_side_solves_each_node(make_term, shape):
    term = make_term()
    eps = 0.1
    dim = len(shape)
    h = 0.5 * eps * term.T
    diag = 2.0 * dim / h**2
    root = term.shifted_inverse(diag * eps**2)
    plan = _plan(shape)
    rng = np.random.default_rng(dim)
    start = rng.uniform(0.0, 2.0 * term.T * eps, shape)
    grid = GridSpec(dim=dim, origin=(0.0,) * dim, h=h, shape=shape)
    inner = interior_mask(grid)
    # Zero right-hand side: the bits of the sweep without one.
    got, want = start.copy(), start.copy()
    _sweep(got, h, eps, 1.7, plan, root, np.zeros(shape))
    _sweep(want, h, eps, 1.7, plan, root)
    assert np.array_equal(got, want)
    # |g| up to twice diag*T*eps: some nodes solve Delta w - f_eps(w) = g
    # and others are held at 0, where the equation would need w < 0.
    g = np.where(inner, rng.uniform(-2.0, 2.0, shape) * diag * term.T * eps, 0.0)
    w = start.copy()
    _sweep(w, h, eps, 1.0, plan, root, g)
    last = np.zeros(shape, dtype=bool)  # the colour swept last saw its final neighbours
    for b in plan[1].blocks:
        last[b.nodes] = True
    lap = laplacian(ScalarField(grid=grid, values=w)).values
    defect = lap - f_eps(term, eps, w) - g
    scale = np.abs(lap) + 2.0 * diag * w + np.abs(g)
    solved, held = last & (w > 0.0), last & (w == 0.0)
    assert np.count_nonzero(solved) > 3 and np.count_nonzero(held) > 3
    assert np.all(np.abs(defect[solved]) <= 16.0 * np.finfo(float).eps * scale[solved])
    assert np.all(defect[held] <= 16.0 * np.finfo(float).eps * scale[held])


@pytest.mark.parametrize("shape", [(9,), (5, 7), (7, 7)])
def test_full_weighting_is_the_scaled_transpose_of_interpolation(shape):
    coarse = tuple(n // 2 + 1 for n in shape)

    def matrix(op, src, dst):
        cols = []
        for idx in np.ndindex(*(n - 2 for n in src)):
            e = np.zeros(src)
            e[tuple(i + 1 for i in idx)] = 1.0
            out = op(e)
            assert out.shape == dst
            cols.append(out[tuple(slice(1, n - 1) for n in dst)].ravel())
        return np.array(cols).T

    P = matrix(_prolong, coarse, shape)
    R = matrix(_restrict, shape, coarse)
    assert np.array_equal(R, P.T / 2.0 ** len(shape))
    # Interpolation keeps multilinear functions, boundary included.
    axes = np.meshgrid(*(np.arange(n, dtype=float) for n in coarse), indexing="ij")
    fine = np.meshgrid(*(np.arange(n, dtype=float) / 2.0 for n in shape), indexing="ij")
    assert np.array_equal(_prolong(1.0 + np.prod(axes, axis=0)), 1.0 + np.prod(fine, axis=0))


@pytest.mark.parametrize(
    "dim, n, eps, factors",
    [
        (2, 41, 0.2, [1, 2]),  # spacing 0.1 is 0.35 of sqrt(2)*T*eps; 0.2 is 0.71
        (1, 81, 0.1, [1]),  # 0.05 is 0.5 of T*eps
        (2, 101, 0.05, [1]),  # 0.04 is 0.57 of the bound
        (2, 201, 0.1, [1, 2, 4]),  # 0.08 is 0.57
        (1, 1001, 0.1, [1, 2, 4, 8]),  # 126 nodes: 125 intervals do not halve
        (2, 5, 2.0, [1, 2]),  # 3 nodes per axis is the least grid
    ],
)
def test_levels_halve_the_grid_below_a_fraction_of_the_bound(dim, n, eps, factors):
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, n)
    levels = _levels(grid, _term(), eps)
    assert [lv.h / grid.h for lv in levels] == factors


@pytest.mark.parametrize(
    "dim, n, eps, depth",
    [(2, 41, 0.05, 1), (1, 81, 0.1, 1), (2, 41, 0.2, 2), (1, 1001, 0.1, 4)],
)
def test_the_coarsest_level_of_a_cycle_runs_24_over_relaxed_sweeps(
    monkeypatch, dim, n, eps, depth
):
    # A grid with no coarse level is its own coarsest level; every finer
    # level sweeps twice, plainly, on each side of its coarse correction.
    term = _term()
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, n)
    levels = _levels(grid, term, eps)
    assert len(levels) == depth
    calls = []

    def counted(values, h, eps, omega, *args):
        calls.append((h, omega))
        _sweep(values, h, eps, omega, *args)

    monkeypatch.setattr(solver, "_sweep", counted)
    u = profile_field(term, grid, eps).values.copy()
    solver._cycle(levels, u, None, term, eps)
    coarsest = levels[-1]
    down = [(lv.h, 1.0) for lv in levels[:-1] for _ in range(2)]
    assert calls == down + 24 * [(coarsest.h, coarsest.omega)] + down[::-1]


def test_cycle_count_is_flat_over_one_dimensional_grids():
    term = _term()
    eps = 0.1
    counts = []
    for n in (257, 513, 1025):
        data = profile_field(term, make_grid(-1.0, 1.0, n), eps)
        _, report = minimize(data, data, term, SolveConfig(eps=eps))
        assert report.stop_reason == "tol"
        trace = np.asarray(report.energy_trace)
        assert np.max(np.diff(trace)) <= 1e-12 * (1.0 + abs(trace[0]))
        counts.append(report.iterations)
    # 12, 12 and 10 cycles; red-black SOR alone took 87, 178 and 344 bundles.
    assert max(counts) <= 16
    assert max(counts) - min(counts) <= 4


def test_affine_column_stops_at_the_rounding_floor():
    # f = 0 above T*eps, so the solution is affine; its rounded values
    # leave a 3-point defect near spacing(max neighbour sum)/h^2 = 1.1e-10
    # at h = 0.002, which a tolerance of 1e-12 cannot get below.  Started a
    # defect of 2e-9 away, the solve stops a few cycles later, where it
    # would grind for a stall stretch of 60 otherwise.
    term = _term()
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 1001)
    x = grid.axes()[0]
    data = ScalarField(grid=grid, values=1.2 + 0.5 * x)
    q = np.spacing(2.0 * 1.7) / grid.h**2
    for bump, most in ((0.0, 0), (1e-9, 10)):
        start = ScalarField(grid=grid, values=data.values + bump * (1.0 - x**2))
        u, report = minimize(data, start, term, SolveConfig(eps=eps, tol_residual=1e-12))
        assert report.stop_reason == "floor"
        assert not report.converged
        assert report.iterations <= most
        assert report.final_residual <= 4.0 * q
        assert np.max(np.abs(u.values - data.values)) < 1e-10


def test_affine_column_without_the_floor_stops_as_stalled(monkeypatch):
    # The rounded affine column cannot improve its residual by 2%, so with
    # the floor stop switched off the stall rule ends the solve.
    monkeypatch.setattr(solver, "_FLOOR_MULTIPLE", 0.0)
    grid = make_grid(-1.0, 1.0, 1001)
    data = ScalarField(grid=grid, values=1.2 + 0.5 * grid.axes()[0])
    _, report = minimize(data, data, _term(), SolveConfig(eps=0.1, tol_residual=1e-12))
    assert (report.stop_reason, report.iterations) == ("stalled", solver._STALL_CYCLES)
    assert not report.converged


@pytest.mark.parametrize("dim, n, eps", [(1, 257, 0.1), (2, 41, 0.3)])
def test_refused_cycles_fall_back_to_one_bundle(monkeypatch, dim, n, eps):
    # A coarse correction shifted up by 1 raises the energy, so every cycle
    # is refused and replaced by the one-level cycle: the solve is the
    # one-level solve, bit for bit.
    term = _term()
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, n)
    data = profile_field(term, grid, eps)
    cfg = SolveConfig(eps=eps)
    assert len(_levels(grid, term, eps)) > 1
    prolong, levels = solver._prolong, solver._levels
    monkeypatch.setattr(solver, "_prolong", lambda e: prolong(e) + 1.0)
    uphill, uphill_report = minimize(data, data, term, cfg)
    monkeypatch.setattr(solver, "_levels", lambda *args: levels(*args)[:1])
    single, single_report = minimize(data, data, term, cfg)
    assert uphill_report.stop_reason == "tol"
    assert uphill_report == single_report
    assert np.array_equal(uphill.values, single.values)


def test_report_states_why_the_solve_stopped():
    term = _term()
    data = halfplane(make_grid((-1.0, -1.0), (1.0, 1.0), 41))
    _, capped = minimize(data, data, term, SolveConfig(eps=0.2, max_iter=2))
    assert (capped.stop_reason, capped.iterations, capped.converged) == ("max_iter", 2, False)
    assert len(capped.energy_trace) == 3
    _, done = minimize(data, data, term, SolveConfig(eps=0.2))
    assert done.stop_reason == "tol" and done.converged
    assert to_json(done)["stop_reason"] == "tol"


def _rises_at_most_16_ulps(trace) -> bool:
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) <= 16.0 * np.spacing(trace[:-1])))


@pytest.mark.parametrize("dim, n, eps", [(1, 257, 0.1), (2, 41, 0.2), (2, 41, 0.05)])
def test_refused_candidates_leave_the_plain_cycles(monkeypatch, dim, n, eps):
    # Every Anderson candidate pushed far uphill is refused, and a refusal
    # restores the cycle's own result: the solve is the one with plain
    # cycles, field and report.  (2, 41, 0.05) has one level.
    term = _term()
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, n)
    data = profile_field(term, grid, eps)
    cfg = SolveConfig(eps=eps)
    extrapolate = solver._extrapolate

    def uphill(u, *args):
        moved = extrapolate(u, *args)
        u += 100.0
        return moved

    monkeypatch.setattr(solver, "_extrapolate", uphill)
    refused, refused_report = minimize(data, data, term, cfg)
    monkeypatch.setattr(solver, "_ANDERSON_DEPTH", 0)
    plain, plain_report = minimize(data, data, term, cfg)
    assert refused_report.stop_reason == "tol"
    assert refused_report.extrapolated == 0
    assert refused_report == plain_report
    assert np.array_equal(refused.values, plain.values)


def test_extrapolate_leaves_u_when_every_difference_is_zero():
    u = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    start = u.copy()
    zero = np.zeros(u.shape, np.float32)
    f = np.ones(u.shape, np.float32)
    gram = [[0.0, 0.0], [0.0, 0.0]]
    assert not solver._extrapolate(u, f, [zero, zero], [zero, zero], gram, np.empty_like(u))
    assert np.array_equal(u, start)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_layer_between_nodes_converges_in_under_100_cycles(offset):
    # The 101^2, eps = 0.05 grid has no admissible coarse level.  With the
    # layer midway between nodes (offset 0.5) plain cycles of 8 sweeps took
    # 192, held up by the layer bending between the x-walls; with Anderson
    # they took 57, and a node on the layer 37.  Cycles of 24 sweeps take
    # 17 and 13.
    term = _term()
    eps, n = 0.05, 101
    h = 2.0 / (n - 1)
    grid = make_grid((-1.0, -1.0 + offset * h), (1.0, 1.0 + offset * h), n)
    assert len(_levels(grid, term, eps)) == 1
    data = profile_field(term, grid, eps)
    _, report = minimize(data, data, term, SolveConfig(eps=eps))
    assert report.stop_reason == "tol"
    assert report.iterations <= 20
    assert 0 < report.extrapolated <= report.iterations
    assert _rises_at_most_16_ulps(report.energy_trace)


@pytest.mark.parametrize(
    "source, eps, n, offset, most",
    [
        # 18 and 14 cycles; 60 and 41 with cycles of 8 sweeps.
        ("halfplane", 0.05, 101, 0.0, 20),
        ("halfplane", 0.05, 101, 0.5, 20),
        # 32 cycles; 123 with cycles of 8 sweeps.
        ("profile", 0.03, 201, 0.5, 40),
    ],
)
def test_one_level_grids_converge_in_few_cycles(source, eps, n, offset, most):
    term = _term()
    h = 2.0 / (n - 1)
    grid = make_grid((-1.0, -1.0 + offset * h), (1.0, 1.0 + offset * h), n)
    assert len(_levels(grid, term, eps)) == 1
    data = halfplane(grid) if source == "halfplane" else profile_field(term, grid, eps)
    _, report = minimize(data, data, term, SolveConfig(eps=eps))
    assert report.stop_reason == "tol"
    assert report.iterations <= most
    assert _rises_at_most_16_ulps(report.energy_trace)


def test_curved_column_reaches_the_floor_in_few_cycles():
    # The 24 coarsest sweeps leave the smooth error of a 1001-node column
    # (coarsest 126 nodes): plain cycles contracted it by about 0.66 each
    # and took 44-46 to the rounding floor from this start.
    term = _term()
    grid = make_grid(-1.0, 1.0, 1001)
    x = grid.axes()[0]
    data = ScalarField(grid=grid, values=1.2 + 0.5 * x)
    start = ScalarField(grid=grid, values=data.values + 0.01 * (1.0 - x * x))
    u, report = minimize(data, start, term, SolveConfig(eps=0.1, tol_residual=1e-12))
    assert report.stop_reason == "floor"
    assert report.iterations <= 20
    assert 0 < report.extrapolated <= report.iterations
    assert _rises_at_most_16_ulps(report.energy_trace)
    assert np.max(np.abs(u.values - data.values)) < 1e-10
