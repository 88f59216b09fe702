"""End-to-end acceptance checks for the whole laboratory.

Every test here pins a quantitative bar on a fixed geometry: reaction-term
structure, the 1D profile oracles, the 2D solver against those profiles,
agreement of the variation formulas with flow differencing, criticality and
stability at converged solutions, the sharp-interface cross-checks on exact
solutions, and the growth/density/convergence scans that separate the
profile family from the degenerate wedge family.  Geometries are sized so
the module runs in a few minutes; expensive solves are cached and shared.
"""

import functools

import numpy as np

from onephase.fbcheck import (
    _limit_boundary,
    density_scan,
    exit_radius,
    hausdorff_distance,
    l1_gap,
    level_region,
    nondegeneracy_scan,
)
from onephase.field import (
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    gradient,
    halfplane,
    make_grid,
    radial_cone,
    sample,
    support_box,
    tables,
)
from onephase.ode1d import (
    first_integral_residual,
    profile_field,
    solve_monotone,
    solve_wedge,
    wedge_field,
)
from onephase.potentials import make_reference, validate
from onephase.solver import SolveConfig, minimize
from onephase.variations import (
    classical_second_variation,
    extract_interface,
    inner_variations,
    inner_variation_fd,
    lie_derivative,
    surface_second_variation,
)


@functools.cache
def _term():
    return make_reference(1.0)


def _certified(u0, eps, tol=1e-8, max_iter=5_000):
    u, rep = minimize(u0, u0, _term(), SolveConfig(eps=eps, tol_residual=tol, max_iter=max_iter))
    assert rep.converged
    return u, rep


@functools.cache
def _column(eps, lo, hi, n):
    line = make_grid(lo, hi, n)
    bc = profile_field(_term(), line, eps)
    col, rep = minimize(
        bc, bc, _term(), SolveConfig(eps=eps, tol_residual=1e-10, max_iter=60_000)
    )
    assert rep.converged or rep.stop_reason == "floor"
    return col


@functools.cache
def _tiled(eps, lo, hi, n):
    """Converged 2D solution on (lo,hi)^2: solve the 1D column, tile, certify."""
    col = _column(eps, lo, hi, n)
    grid2 = make_grid((lo, lo), (hi, hi), (n, n))
    u0 = ScalarField(grid=grid2, values=np.tile(col.values, (n, 1)))
    return _certified(u0, eps)


@functools.cache
def _thin(eps):
    # (-0.35, 0.35) x (-1, 1) at h = 2e-3; the identity checks need this fine a grid
    col = _column(eps, -1.0, 1.0, 1001)
    grid2 = make_grid((-0.35, -1.0), (0.35, 1.0), (351, 1001))
    u0 = ScalarField(grid=grid2, values=np.tile(col.values, (351, 1)))
    u, _ = _certified(u0, eps)
    return u


def _thin_specs(seed, count):
    """Deformations supported inside the thin domain, clear of the collar."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        comps = []
        for _ in range(2):
            hw_x = rng.uniform(0.18, 0.30)
            hw_y = rng.uniform(0.48, 0.80)
            c_x = rng.uniform(-0.04, 0.04)
            c_y = rng.uniform(-0.15, 0.15)
            coeffs = rng.uniform(-1.0, 1.0, (4, 4))
            for a in range(4):
                for b in range(4):
                    if a + b > 3:
                        coeffs[a, b] = 0.0
            comps.append(
                PolyBump(coeffs=coeffs, center=(c_x, c_y), halfwidths=(hw_x, hw_y))
            )
        out.append(VectorFieldSpec(dim=2, components=tuple(comps)))
    return out


def _c1_norm(spec):
    lo, hi = support_box(spec)
    axes = [np.linspace(a, b, 65) for a, b in zip(lo, hi)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
    return float(np.abs(evaluate(spec, pts)).max() + np.abs(tables(spec, pts, 1)[1]).max())


def _square(n):
    return make_grid((-1.0, -1.0), (1.0, 1.0), n)


def _bump2(cx, cy, wx, wy, coef):
    c = np.zeros((4, 4))
    for (a, b), val in coef.items():
        c[a, b] = val
    return PolyBump(coeffs=c, center=(cx, cy), halfwidths=(wx, wy))


# --- reaction term structure ---


def test_reference_term_passes_structural_validation():
    report = validate(_term())
    assert report["passed"]
    conditions = report["conditions"]
    assert set(conditions) == {"nonnegativity", "support", "normalization", "window"}
    assert all(c["passed"] for c in conditions.values())
    assert conditions["normalization"]["worst"] < 1e-8


# --- 1D profile oracles ---


def test_monotone_profile_conserves_first_integral():
    base = solve_monotone(_term(), -30.0, 30.0, 1e-3)
    assert first_integral_residual(base, _term()) < 1e-8


def test_wedge_profile_hits_prescribed_slopes():
    for s in (0.25, 0.5, 0.75):
        p = solve_wedge(_term(), 1.0, s, 20.0, 1e-3)
        assert abs(p.Vp[-1] - s) <= 1e-4


def test_wedge_center_height_matches_inverse_potential():
    # F(0.5) = 0.6875 for the reference family, so s^2 = 0.3125 pins V(0) = 0.5
    p = solve_wedge(_term(), 1.0, np.sqrt(0.3125), 5.0, 1e-3)
    v0 = p.V[int(np.argmin(np.abs(p.t)))]
    assert abs(v0 - 0.5) <= 1e-10


# --- 2D solver against the 1D profile ---


def test_strip_solution_reproduces_profile_columns():
    eps = 0.1
    col = _column(eps, -1.0, 1.0, 401)  # h = 5e-3
    grid2 = make_grid((-0.05, -1.0), (0.05, 1.0), (21, 401))
    u0 = profile_field(_term(), grid2, eps)
    u, rep = _certified(u0, eps)
    assert rep.final_residual <= 1e-8
    trace = np.asarray(rep.energy_trace)
    assert np.all(np.diff(trace) <= 1e-10 * (1.0 + abs(trace[0])))
    assert np.abs(u.values - col.values[None, :]).max() <= 1e-4


# --- variation formulas against flow differencing ---


def test_inner_variation_formulas_match_flow_derivatives():
    term, eps = _term(), 2.0
    grid = make_grid(-1.0, 1.0, 8001)
    (x,) = grid.axes()
    fields = (
        0.9 + 0.4 * x + 0.3 * x**2,
        1.0 + 0.5 * np.sin(2.0 * x),
        0.8 + 0.5 * np.exp(-2.0 * x**2),
    )

    def bump1(c, hw, coeffs):
        arr = np.zeros(4)
        arr[: len(coeffs)] = coeffs
        return PolyBump(coeffs=arr, center=(c,), halfwidths=(hw,))

    specs = (
        VectorFieldSpec(dim=1, components=(bump1(0.1, 0.7, [1.0, 0.5]),)),
        VectorFieldSpec(dim=1, components=(bump1(-0.15, 0.75, [-0.9, 0.0, 0.6]),)),
        VectorFieldSpec(dim=1, components=(bump1(0.0, 0.8, [0.6, 1.2, 0.0, -0.5]),)),
    )
    dts = (0.1, 0.05, 0.025)
    for vals in fields:
        # values stay strictly inside (0, T*eps): no reaction-term kink is crossed
        u = ScalarField(grid=grid, values=vals)
        for spec in specs:
            a1, a2 = inner_variations(u, spec, term, eps)
            fd = {dt: inner_variation_fd(u, spec, term, eps, dt=dt) for dt in dts}
            for idx, analytic in ((0, a1), (1, a2)):
                coarse = fd[dts[0]][idx] - fd[dts[1]][idx]
                fine = fd[dts[1]][idx] - fd[dts[2]][idx]
                order = np.log2(abs(coarse / fine))
                assert order >= 3.5
                richardson = (16.0 * fd[dts[2]][idx] - fd[dts[1]][idx]) / 15.0
                assert abs(richardson - analytic) <= 1e-3 * abs(analytic)


# --- criticality and the second-variation identity at converged solutions ---


def test_converged_solution_is_critical_for_inner_variations():
    eps = 0.2
    u = _thin(eps)
    for spec in _thin_specs(20, 10):
        val = inner_variations(u, spec, _term(), eps)[0]
        assert abs(val) <= 1e-3 * _c1_norm(spec)


def test_second_inner_variation_matches_quadratic_form_at_solutions():
    term = _term()
    for eps in (0.2, 0.3):
        u = _thin(eps)
        for spec in _thin_specs(20, 10):
            inner = inner_variations(u, spec, term, eps)[1]
            outer = classical_second_variation(u, lie_derivative(u, spec, eps), term, eps)
            assert abs(inner - outer) <= 1e-3 * max(abs(inner), abs(outer))


# --- sharp-interface cross-checks on exact solutions ---


def test_volume_and_surface_forms_agree_on_exact_solutions():
    term = _term()
    generic_x = VectorFieldSpec(
        dim=2,
        components=(
            _bump2(0.1, -0.15, 0.55, 0.5, {(0, 0): 0.8, (1, 0): 0.3, (0, 2): -0.4}),
            _bump2(0.05, -0.1, 0.5, 0.6, {(0, 0): -0.5, (1, 1): 0.6, (2, 0): 0.2}),
        ),
    )
    radial_x = VectorFieldSpec(
        dim=2,
        components=(
            _bump2(0.0, 0.0, 0.85, 0.85, {(1, 0): 1.0}),
            _bump2(0.0, 0.0, 0.85, 0.85, {(0, 1): 1.0}),
        ),
    )
    plane = halfplane(_square(401))  # h = 5e-3
    radial = radial_cone(_square(401), 0.5)
    for u, spec in ((plane, generic_x), (radial, radial_x)):
        volume = inner_variations(u, spec, term, 0.0)[1]
        curve = extract_interface(u, 0.5 * u.grid.h)
        surface = surface_second_variation(u, spec, curve)
        assert abs(volume - surface) <= 5e-2 * max(abs(volume), abs(surface))

    flat = extract_interface(plane, 0.5 * plane.grid.h)
    assert np.abs(flat.curvature[~flat.singular]).max() <= 1e-6
    circle = extract_interface(radial, 0.5 * radial.grid.h)
    assert np.abs(circle.curvature[~circle.singular] - 2.0).max() <= 2e-2


def test_gradient_trace_is_unit_on_extracted_interfaces():
    for u in (halfplane(_square(401)), radial_cone(_square(401), 0.5)):
        h = u.grid.h
        curve = extract_interface(u, 0.5 * h)
        keep = ~curve.singular
        pts, nus = curve.points[keep], curve.normals[keep]
        g = gradient(u)
        comps = [ScalarField(grid=u.grid, values=g[k]) for k in range(2)]

        def trace_mag(d):
            q = pts - d * nus  # probe inside the positive phase
            return np.hypot(*(np.asarray(sample(c, q)) for c in comps))

        g0 = 2.5 * trace_mag(3.0 * h) - 1.5 * trace_mag(5.0 * h)
        assert np.abs(g0 - 1.0).max() <= 2e-2


# --- growth and density scans separate profiles from wedges ---


def test_growth_scan_separates_profile_from_wedge():
    term = _term()
    theta = term.tau / 4
    worst = {}
    for eps in (0.2, 0.1, 0.05):
        u, _ = _tiled(eps, -2.0, 2.0, 401)
        rep = nondegeneracy_scan(u, eps, theta, [1.0])
        worst[eps] = rep.worst
        assert rep.worst >= 0.5
    grid = make_grid((-2.0, -2.0), (2.0, 2.0), (401, 401))
    wedge = wedge_field(term, grid, 0.05, 0.05)
    rep_w = nondegeneracy_scan(wedge, 0.05, theta, [1.0])
    assert rep_w.worst <= 2.0 * 0.05
    assert worst[0.05] / rep_w.worst >= 5.0


def test_density_scan_separates_profile_from_wedge():
    for eps in (0.2, 0.1, 0.05):
        u, _ = _tiled(eps, -20.0 * eps, 20.0 * eps, 401)
        rep = density_scan(u, _term(), eps, 4.0, [24.0 * eps], threshold=0.4)
        assert rep.passed
        assert rep.worst >= 0.4
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), (401, 401))
    wedge = wedge_field(_term(), grid, 0.05, 0.05)
    rep_w = density_scan(wedge, _term(), 0.05, 4.0, [0.5])
    assert rep_w.worst < 0.1


# --- convergence of the reaction band to the sharp interface ---


def test_reaction_band_shrinks_linearly_and_tracks_limit_boundary():
    term = _term()
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        u, _ = _tiled(eps, -1.0, 1.0, 401)
        limit = halfplane(u.grid)
        gaps.append(l1_gap(u, limit, term, eps))
        band = level_region(u, term, eps, "F", term.tau)
        boundary = np.argwhere(_limit_boundary(limit.values))
        d = hausdorff_distance(band, boundary, u.grid.h)
        assert d <= term.T * eps + u.grid.h
    for big, small in zip(gaps, gaps[1:]):
        assert 1.5 <= big / small <= 2.5


def test_exit_radius_grows_logarithmically_in_height():
    term, eps = _term(), 0.1
    u, _ = _tiled(eps, -1.0, 1.0, 401)
    tau = term.tau
    # invert the solution's own center column for the probe heights, so the
    # sampled u(p) matches theta * eps up to roundoff
    ys = u.grid.axes()[1]
    col = u.values[u.grid.shape[0] // 2, :]
    rates = []
    for theta in (tau / 2, tau / 4, tau / 8):
        y_theta = float(np.interp(theta * eps, col, ys)) + 1e-9
        r = exit_radius(u, term, eps, theta, (0.0, y_theta))
        assert np.isfinite(r)
        rates.append(r / (eps * np.log(tau / theta)))
    assert max(rates) / min(rates) <= 1.2


# --- stability of the profile solution ---


def test_second_variation_nonnegative_at_profile_solution():
    term, eps = _term(), 0.1
    u, _ = _tiled(eps, -1.0, 1.0, 401)
    rng = np.random.default_rng(13)
    values = []
    for _ in range(20):
        comps = []
        for _ in range(2):
            hw = rng.uniform(0.3, 0.6, 2)
            center = rng.uniform(-0.25, 0.25, 2)
            coeffs = rng.uniform(-1.0, 1.0, (4, 4))
            for a in range(4):
                for b in range(4):
                    if a + b > 3:
                        coeffs[a, b] = 0.0
            comps.append(
                PolyBump(coeffs=coeffs, center=tuple(center), halfwidths=tuple(hw))
            )
        spec = VectorFieldSpec(dim=2, components=tuple(comps))
        values.append(inner_variations(u, spec, term, eps)[1])
    assert min(values) >= -1e-6
