from __future__ import annotations

import numpy as np
import pytest

from onephase.field import ScalarField, interior_mask, laplacian, make_grid
from onephase.ode1d import solve_monotone
from onephase.potentials import f_eps, make_reference, make_tabulated
from onephase.records import from_json, to_json
from onephase.solver import (
    SolveConfig,
    SolveReport,
    _colour_blocks,
    _sweep,
    energy,
    minimize,
    residual,
)


def _term():
    return make_reference(1.0)


def _profile_on_axis(term, eps: float, x: np.ndarray) -> np.ndarray:
    """eps * V(x / eps) for the monotone profile, aligned to the grid."""
    span = float(np.max(np.abs(x))) / eps + 1.0
    base = solve_monotone(term, t_min=-span, t_max=span, h=1e-3)
    return eps * np.interp(x / eps, base.t, base.V)


def test_energy_of_halfplane_limit_competitor():
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    y = np.meshgrid(*grid.axes(), indexing="ij")[1]
    u = ScalarField(grid=grid, values=np.maximum(y, 0.0))
    val = energy(u, term, 0.0)
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
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    y = grid.axes()[1]
    col = _profile_on_axis(term, eps, y)
    u = ScalarField(grid=grid, values=np.tile(col, (grid.shape[0], 1)))
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
    y = np.meshgrid(*grid.axes(), indexing="ij")[1]
    exact = _profile_on_axis(term, eps, y[0])
    boundary = ScalarField(grid=grid, values=np.tile(exact, (grid.shape[0], 1)))
    edge = ~interior_mask(grid)
    start = np.maximum(y, 0.0)
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
    data = ScalarField(grid=grid, values=np.maximum(grid.axes()[0], 0.0) + 0.02)
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
    x = grid.axes()[0]
    exact = _profile_on_axis(term, eps, x)
    start = np.maximum(x, 0.0)
    start[0], start[-1] = exact[0], exact[-1]
    u, report = minimize(
        ScalarField(grid=grid, values=exact),
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
    y = np.meshgrid(*grid.axes(), indexing="ij")[1]
    data = ScalarField(grid=grid, values=np.maximum(y, 0.0))
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
        x = grid.axes()[0]
        u = ScalarField(grid=grid, values=_profile_on_axis(term, eps, x))
        res[h] = residual(u, term, eps)
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
    y = np.meshgrid(*grid.axes(), indexing="ij")[1]
    u = ScalarField(grid=grid, values=np.maximum(y, 0.0))
    assert residual(u, term, 0.05) > 10.0


def test_minimize_matches_one_dimensional_profile():
    term = _term()
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 2001)
    x = grid.axes()[0]
    exact = _profile_on_axis(term, eps, x)
    boundary = ScalarField(grid=grid, values=exact)
    init_vals = np.maximum(x, 0.0)
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
    col_bc = ScalarField(grid=line, values=_profile_on_axis(term, eps, line.axes()[0]))
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
        grid = make_grid(-1.0, 1.0, int(round(2.0 / h)) + 1)
        x = grid.axes()[0]
        exact = _profile_on_axis(term, eps, x)
        boundary = ScalarField(grid=grid, values=exact)
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


def _masked_sweep(values, h, eps, omega, root):
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
        target = root(neigh * (eps / h**2)) * eps
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
    colours = _colour_blocks(shape)
    moved = False
    for eps in (0.5, 0.1):
        # h below sqrt(dim)*T*eps keeps every node energy strictly convex.
        h = 0.5 * eps * term.T
        root = term.shifted_inverse(2.0 * len(shape) * eps**2 / h**2)
        start = rng.uniform(0.0, 2.0 * term.T * eps, shape)
        start[rng.random(shape) < 0.2] = 0.0
        for omega in (1.7, 1.0):
            got, want = start.copy(), start.copy()
            for _ in range(5):
                _sweep(got, h, eps, omega, colours, root)
                _masked_sweep(want, h, eps, omega, root)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            moved = moved or not np.array_equal(got, start)
    assert moved
