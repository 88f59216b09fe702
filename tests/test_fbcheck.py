"""Tests for free-boundary diagnostics."""

import functools
import math

import numpy as np
import pytest

from onephase.field import (
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    halfplane,
    make_grid,
    radial_cone,
)
from onephase.fbcheck import (
    CheckReport,
    check_from_json,
    check_to_json,
    density_scan,
    exit_radius,
    hausdorff_distance,
    l1_gap,
    level_region,
    lipschitz_constant,
    nondegeneracy_scan,
    poincare_ratio,
    zero_phase_density,
)
from onephase.ode1d import profile_field, wedge_field
from onephase.potentials import make_reference, make_tabulated
from onephase.solver import SolveConfig, minimize

TERM = make_reference(1.0)
TAU = 0.5


def _profile_field(eps, lo, hi, n):
    return profile_field(TERM, make_grid((lo, lo), (hi, hi), n), eps)


def _halfplane(n):
    return halfplane(make_grid((-1.0, -1.0), (1.0, 1.0), n))


@functools.cache
def _wedge_field(eps):
    return wedge_field(TERM, make_grid(-1.0, 1.0, 2001), eps, eps)


def test_level_region_of_zero_field():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.zeros(grid.shape))
    z = level_region(u, TERM, 0.1, "Z", TAU)
    f = level_region(u, TERM, 0.1, "F", TAU)
    assert len(z) == grid.shape[0] * grid.shape[1]
    assert len(f) == 0


def test_level_region_strip_indices():
    u = _halfplane(201)
    eps = 0.1
    region = level_region(u, TERM, eps, "F", TAU)
    rows = np.unique(region[:, 1])
    ys = u.grid.axes()[1][rows]
    h = u.grid.h
    assert TAU * eps - 1e-9 <= ys.min() <= TAU * eps + h
    assert TERM.T * eps - h <= ys.max() <= TERM.T * eps + 1e-9
    assert len(region) == len(rows) * u.grid.shape[0]
    sampled = u.values[tuple(region.T)]
    assert np.all((sampled >= TAU * eps) & (sampled <= TERM.T * eps))


def test_level_region_bands_overlap_at_theta():
    # values hit theta * eps exactly at node 2 (0.05 = 2 * 0.025 holds
    # bitwise), pinning the one-node overlap of the two bands
    grid = make_grid(0.0, 1.0, 21)
    u = ScalarField(grid=grid, values=np.arange(21) * 0.025)
    eps = 0.1
    z = level_region(u, TERM, eps, "Z", TAU)
    f = level_region(u, TERM, eps, "F", TAU)
    zset = set(map(tuple, z))
    fset = set(map(tuple, f))
    assert zset & fset == {(2,)}
    below_t = set(map(tuple, np.argwhere(u.values <= TERM.T * eps)))
    assert (zset | fset) == below_t


def test_level_region_monotone_in_theta():
    u = _profile_field(0.2, -1.0, 1.0, 101)
    counts = [
        len(level_region(u, TERM, 0.2, "Z", th)) for th in (TAU / 4, TAU / 2, TAU, 1.0)
    ]
    assert counts == sorted(counts)
    quarter = set(map(tuple, level_region(u, TERM, 0.2, "Z", TAU / 4)))
    full = set(map(tuple, level_region(u, TERM, 0.2, "Z", TAU)))
    assert quarter <= full


def test_level_region_validation():
    u = _halfplane(21)
    with pytest.raises(ValueError):
        level_region(u, TERM, 0.1, "Q", TAU)
    with pytest.raises(ValueError):
        level_region(u, TERM, 0.1, "Z", 0.0)
    with pytest.raises(ValueError):
        level_region(u, TERM, 0.1, "Z", TERM.T + 0.1)
    with pytest.raises(ValueError):
        level_region(u, TERM, 0.0, "Z", TAU)


def test_nondegeneracy_halfplane_discrete_constant():
    # centers sit one row above the zero line, so the measured constant
    # exceeds 1 by exactly h/r
    u = _halfplane(201)
    h = u.grid.h
    report = nondegeneracy_scan(u, 1e-6, 0.5, [0.25, 0.5])
    for r, c in zip(report.params, report.values):
        assert c == pytest.approx((r + h) / r, rel=1e-12)
        assert c >= 1.0


def test_nondegeneracy_scales_linearly():
    u = _halfplane(201)
    doubled = ScalarField(grid=u.grid, values=2.0 * u.values)
    base = nondegeneracy_scan(u, 1e-6, 0.5, [0.25, 0.5])
    scaled = nondegeneracy_scan(doubled, 2e-6, 0.5, [0.25, 0.5])
    assert all(s == 2.0 * b for s, b in zip(scaled.values, base.values))


def test_nondegeneracy_wedge_family_degenerates():
    cs = {}
    for eps in (0.05, 0.025):
        report = nondegeneracy_scan(_wedge_field(eps), eps, 0.125, [1.0])
        cs[eps] = report.values[0]
        assert cs[eps] <= 2.0 * eps
    assert cs[0.025] / cs[0.05] == pytest.approx(0.5, abs=0.08)


def test_nondegeneracy_empty_scan():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.zeros(grid.shape))
    report = nondegeneracy_scan(u, 1.0, 0.5, [0.25])
    assert report.values == ()
    assert report.worst is None
    assert not report.passed


def test_nondegeneracy_validation():
    u = _halfplane(51)
    with pytest.raises(ValueError):
        nondegeneracy_scan(u, 0.0, 0.5, [0.25])
    with pytest.raises(ValueError):
        nondegeneracy_scan(u, 0.1, 0.5, [])
    with pytest.raises(ValueError):
        nondegeneracy_scan(u, 0.1, 0.5, [-0.1])
    with pytest.raises(ValueError):
        nondegeneracy_scan(u, 1e-6, 0.5, [1.5])


@pytest.mark.parametrize("radius", [math.nan, math.inf])
@pytest.mark.parametrize("scan", ["nondeg", "density", "zero-density"])
def test_scans_refuse_a_radius_that_is_not_finite(scan, radius):
    # nan and inf used to reach int(r / h) and fail there, naming no parameter.
    u = _halfplane(51)
    with pytest.raises(ValueError, match=r"radii must be finite"):
        if scan == "nondeg":
            nondegeneracy_scan(u, 0.1, 0.5, [0.25, radius])
        elif scan == "density":
            density_scan(u, 0.1, 1.0, [radius])
        else:
            zero_phase_density(u, [radius])


@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -0.5])
def test_nondegeneracy_refuses_a_theta_that_is_not_finite_and_positive(theta):
    # Unchecked, nan and inf gave an empty scan and 0 scanned every node.
    with pytest.raises(ValueError, match="theta must be finite and positive"):
        nondegeneracy_scan(_halfplane(51), 0.1, theta, [0.25])


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_check_report_refuses_a_threshold_that_is_not_finite(threshold):
    # A nan threshold made a report that JSON could not hold.
    for values in [(), (1.0,)]:
        with pytest.raises(ValueError, match="threshold must be finite"):
            CheckReport(check="x", params=values, values=values, threshold=threshold)


def test_density_profile_thick_ball_passes():
    u = _profile_field(0.1, -2.0, 2.0, 401)
    report = density_scan(u, 0.1, 24.0, [2.4], threshold=0.4)
    assert report.passed
    assert 0.40 <= report.worst <= 0.46


def test_density_profile_thin_ball_reveals_band_offset():
    # at r = 5 eps the low set starts a fixed fraction of the ball radius
    # below the worst band center, so the measured fraction drops well
    # under one half
    u = _profile_field(0.1, -2.0, 2.0, 401)
    report = density_scan(u, 0.1, 5.0, [0.5])
    assert 0.15 <= report.worst <= 0.25


def test_density_wedge_slab_fails():
    eps = 0.05
    report = density_scan(_wedge_field(eps), eps, 5.0, [0.5], threshold=0.1)
    assert report.worst == 0.0
    assert not report.passed


def test_density_empty_band():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.full(grid.shape, 0.9))
    report = density_scan(u, 0.1, 1.0, [0.5])
    assert report.values == ()
    assert report.worst is None


def test_density_rescale_invariance():
    # u -> u(2x)/2 with eps -> eps/2 and r -> r/2 reproduces the same
    # discrete balls and profile samples, so the fractions agree exactly
    coarse = _profile_field(0.2, -2.0, 2.0, 401)
    fine = _profile_field(0.1, -1.0, 1.0, 401)
    r1 = density_scan(coarse, 0.2, 12.0, [2.4])
    r2 = density_scan(fine, 0.1, 12.0, [1.2])
    assert r1.worst == pytest.approx(r2.worst, rel=1e-12)


def test_density_validation():
    u = _profile_field(0.1, -1.0, 1.0, 101)
    with pytest.raises(ValueError):
        density_scan(u, 0.1, 10.0, [0.5])
    with pytest.raises(ValueError):
        density_scan(u, 0.1, 0.0, [0.5])
    with pytest.raises(ValueError):
        density_scan(u, 0.0, 1.0, [0.5])


def test_zero_phase_density_halfplane():
    u = _halfplane(201)
    r = 0.25
    report = zero_phase_density(u, [r])
    assert 0.5 - 2.0 * u.grid.h / r <= report.worst <= 0.5


def test_zero_phase_density_radial():
    u = radial_cone(make_grid((-1.0, -1.0), (1.0, 1.0), 1001), 0.5)
    report = zero_phase_density(u, [0.1])
    assert 0.45 <= report.worst <= 0.5


def test_zero_phase_density_positive_field_empty():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.full(grid.shape, 1.0))
    report = zero_phase_density(u, [0.25])
    assert report.values == ()
    assert not report.passed


def test_lipschitz_examples():
    u = _halfplane(201)
    assert lipschitz_constant(u) == pytest.approx(1.0, rel=1e-9)
    grid = make_grid(-1.0, 1.0, 101)
    lin = ScalarField(grid=grid, values=3.0 * grid.axes()[0])
    assert lipschitz_constant(lin) == pytest.approx(3.0, rel=1e-9)


def test_lipschitz_uniform_over_solved_family():
    line = make_grid(-1.0, 1.0, 201)
    for eps in (0.2, 0.1, 0.05):
        bc = profile_field(TERM, line, eps)
        col, report = minimize(
            bc, bc, TERM, SolveConfig(eps=eps, tol_residual=1e-8, max_iter=40_000)
        )
        assert report.converged
        grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
        u = ScalarField(grid=grid, values=np.tile(col.values, (201, 1)))
        assert lipschitz_constant(u) <= 1.1


def test_exit_radius_zero_when_already_above():
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 2001)
    u = profile_field(TERM, grid, eps)
    k = int(np.argmax(u.values >= TAU * eps))
    assert exit_radius(u, eps, TAU / 4, [grid.axes()[0][k]]) == 0.0


def test_exit_radius_profile_log_growth():
    eps = 0.1
    grid = make_grid(-1.0, 1.0, 2001)
    u = profile_field(TERM, grid, eps)
    expected = {TAU / 2: 0.37, TAU / 4: 0.69, TAU / 8: 0.99}
    rates = []
    for theta, want in expected.items():
        k = int(np.argmax(u.values >= theta * eps))
        r = exit_radius(u, eps, theta, [grid.axes()[0][k]])
        assert r / eps == pytest.approx(want, abs=0.03)
        rates.append(r / (eps * math.log(TAU / theta)))
    assert max(rates) / min(rates) <= 1.2


def test_exit_radius_unreachable_is_inf():
    grid = make_grid(-1.0, 1.0, 201)
    u = ScalarField(grid=grid, values=np.full(201, 0.03))
    assert exit_radius(u, 0.1, 0.25, [0.0]) == math.inf


def test_exit_radius_validation():
    u = _halfplane(51)
    with pytest.raises(ValueError):
        exit_radius(u, 0.1, TAU, [0.0, 0.5])
    with pytest.raises(ValueError):
        exit_radius(u, 0.1, TAU / 4, [0.0, -0.5])
    with pytest.raises(ValueError):
        exit_radius(u, 0.0, TAU / 4, [0.0, 0.5])


def test_scans_read_the_window_from_the_term():
    # A tabulated term with T = 1 and tau = 0.3 scans like make_reference(0.6),
    # whose window is 0.3 too, on fields below 0.6 eps.  A window of T / 2
    # takes other bands, low sets and exit sets.
    s = np.linspace(0.0, 1.0, 201)
    tab = make_tabulated(np.stack([s, TERM.f(s)], axis=1), tau=0.3)
    ref = make_reference(0.6)
    assert tab.tau == ref.tau == 0.3
    eps = 0.1
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 101)
    y = np.meshgrid(*grid.axes(), indexing="ij")[1]
    tent = ScalarField(grid=grid, values=np.maximum(0.05 - np.abs(y), 0.0))
    scans = [density_scan(tent, eps, 1.0, [0.5, 0.8], term=t).values for t in (tab, ref)]
    assert scans[0] == scans[1] and min(scans[0]) > 0.0
    u = _halfplane(201)
    radii = [exit_radius(u, eps, 0.05, [0.0, 0.01], term=t) for t in (tab, ref)]
    assert radii[0] == radii[1] == pytest.approx(0.02, abs=1e-12)
    with pytest.raises(ValueError, match="theta must lie in"):
        exit_radius(u, eps, 0.3, [0.0, 0.5], term=tab)


@pytest.mark.parametrize("dim", [1, 2])
def test_exit_radius_is_the_distance_to_the_nearest_hit_node(dim):
    # The oracle scans the whole-grid node list; exit_radius reads the hit nodes' axes.
    grid = make_grid((-1.0,) * dim, (1.0,) * dim, 81 if dim > 1 else 801)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    wave = 0.2 * np.sin(3.0 * mesh[0]) if dim > 1 else 0.0
    u = ScalarField(grid=grid, values=0.1 * np.maximum(mesh[-1] + 0.8 + wave, 0.0))
    p = np.array([0.05, -0.6][-dim:])
    hit = u.values >= TAU * 0.1
    want = float(np.min(np.linalg.norm(grid.nodes()[hit.ravel()] - p, axis=1)))
    assert exit_radius(u, 0.1, 0.0001, p) == want
    assert 0.0 < want < 1.0


def test_poincare_zero_field():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    g = ScalarField(grid=grid, values=np.zeros(grid.shape))
    assert poincare_ratio(g, 0.3) == 0.0


def test_poincare_clamp_field():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 401)
    ratio = poincare_ratio(halfplane(grid), 0.3)
    assert ratio <= 1.0
    assert ratio == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=0.01)


def test_poincare_ratio_is_second_order_in_h():
    # The closed form of test_check_poincare_of_the_profile_field (eps 0.1).
    # Node sums of |g| and |grad g| missed it by 1.8e-3 at 201^2 and 8.8e-4 at
    # 401^2, first order; the trapezoid rule misses it by 5.4e-6 and 1.3e-6.
    eps = 0.1
    r3 = math.sqrt(3.0)
    c = math.log((2.0 * r3 - 2.0) / (6.0 * math.sqrt(2.0) - 8.0)) / r3
    want = (0.5 + eps + c * eps * eps) / (math.sqrt(2.0) * (1.0 + eps))
    err = [abs(poincare_ratio(_profile_field(eps, -1.0, 1.0, n)) - want) for n in (201, 401)]
    assert err[0] < 1e-4
    assert err[0] > 3.5 * err[1]
    # |g|_L1 = 1 and |grad g|_L1 = 2 on [-1, 1]^2, exact for the trapezoid rule.
    assert poincare_ratio(_halfplane(201), 0.3) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-14)


def test_poincare_random_bumps_bounded():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 101)
    nodes = grid.nodes()
    rng = np.random.default_rng(11)
    zero = PolyBump(coeffs=np.zeros((4, 4)), center=(0.0, 0.0), halfwidths=(0.3, 0.3))
    for _ in range(50):
        coeffs = np.zeros((4, 4))
        for a in range(4):
            for b in range(4 - a):
                coeffs[a, b] = rng.uniform(-1.0, 1.0)
        bump = PolyBump(
            coeffs=coeffs,
            center=tuple(rng.uniform(-0.3, 0.3, size=2)),
            halfwidths=tuple(rng.uniform(0.3, 0.6, size=2)),
        )
        spec = VectorFieldSpec(dim=2, components=(bump, zero))
        g = ScalarField(
            grid=grid, values=evaluate(spec, nodes)[:, 0].reshape(grid.shape)
        )
        assert poincare_ratio(g, 0.3) <= 1.0


def test_poincare_rejects_broken_promise():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    g = ScalarField(grid=grid, values=np.ones(grid.shape))
    with pytest.raises(ValueError):
        poincare_ratio(g, 0.3)


@pytest.mark.parametrize("fraction", [math.nan, -0.1, 1.5])
def test_poincare_refuses_a_zero_fraction_outside_the_unit_interval(fraction):
    # nan compared False and kept no promise; -0.1 promised nothing.
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    with pytest.raises(ValueError, match=r"zero_fraction must lie in \[0, 1\]"):
        poincare_ratio(halfplane(grid), fraction)


def test_l1_gap_halves_with_eps():
    limit = _halfplane(201)
    gaps = {
        eps: l1_gap(_profile_field(eps, -1.0, 1.0, 201), limit, TERM, eps)
        for eps in (0.2, 0.1, 0.05)
    }
    assert 1.5 <= gaps[0.2] / gaps[0.1] <= 2.5
    assert 1.5 <= gaps[0.1] / gaps[0.05] <= 2.5


def test_l1_gap_saturated_indicator_is_zero():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 101)
    ym = np.meshgrid(*grid.axes(), indexing="ij")[1]
    eps = 0.1
    u = ScalarField(grid=grid, values=5.0 * eps * (ym > 0.0))
    assert l1_gap(u, u, TERM, eps) == 0.0


def test_l1_gap_subgrid_transition():
    eps = 1e-4
    u = _profile_field(eps, -1.0, 1.0, 201)
    gap = l1_gap(u, _halfplane(201), TERM, eps)
    assert gap <= 2.0 * u.grid.h + 1e-12


def test_l1_gap_validation():
    a = _halfplane(51)
    b = _halfplane(101)
    with pytest.raises(ValueError):
        l1_gap(a, b, TERM, 0.1)
    with pytest.raises(ValueError):
        l1_gap(a, a, TERM, 0.0)


def test_hausdorff_basic():
    a = np.array([[0, 0], [0, 1], [0, 2]])
    assert hausdorff_distance(a, a, 0.1) == 0.0
    line1 = np.stack([np.full(5, 3), np.arange(5)], axis=1)
    line2 = np.stack([np.full(5, 7), np.arange(5)], axis=1)
    assert hausdorff_distance(line1, line2, 0.1) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        hausdorff_distance(np.empty((0, 2)), a, 0.1)
    with pytest.raises(ValueError):
        hausdorff_distance(a, a, 0.0)


def test_hausdorff_rejects_sets_of_different_dimension():
    # A broadcasting brute force would pair (n, 2) with (m, 1) silently.
    a = np.array([[0, 0], [0, 1], [2, 2]])
    with pytest.raises(ValueError, match="dimension"):
        hausdorff_distance(a, np.array([[0], [3]]), 0.1)
    with pytest.raises(ValueError, match="dimension"):
        hausdorff_distance(np.array([0, 3]), a, 0.1)


def _kdtree_hausdorff(a, b, h):
    """The k-d tree form of the distance, the oracle of the brute force."""
    from scipy.spatial import cKDTree

    pa = np.asarray(a, dtype=float).reshape(len(a), -1)
    pb = np.asarray(b, dtype=float).reshape(len(b), -1)
    d_ab = float(np.max(cKDTree(pb).query(pa)[0]))
    d_ba = float(np.max(cKDTree(pa).query(pb)[0]))
    return h * max(d_ab, d_ba)


def test_hausdorff_equals_kdtree_on_random_node_sets():
    rng = np.random.default_rng(7)
    cases = [
        (rng.integers(0, 401, 300), rng.integers(0, 401, 200)),
        (rng.integers(-50, 50, (250, 2)), rng.integers(0, 401, (400, 2))),
        (rng.integers(0, 401, (1206, 2)), rng.integers(0, 401, (564, 2))),
        (np.array([[5, 7]]), rng.integers(0, 40, (30, 2))),
        (np.array([[5, 7]]), np.array([[-3, 2]])),
        (np.array([4]), np.array([4])),
        (np.repeat(rng.integers(0, 9, (6, 2)), 5, axis=0), rng.integers(0, 9, (4, 2))),
    ]
    for a, b in cases:
        for h in (0.005, 2.0 / 400, 1.0):
            assert hausdorff_distance(a, b, h) == _kdtree_hausdorff(a, b, h)


def test_hausdorff_equals_kdtree_across_chunk_boundaries(monkeypatch):
    # The farthest node sits in every row position, so a chunk split that
    # drops or repeats a row changes the maximum.  1024 rows of b make a
    # chunk of 1024 rows of a; the small chunk splits both directions often.
    from onephase import fbcheck

    far = (5000, -3000)
    rng = np.random.default_rng(3)
    b = rng.integers(0, 2000, (1024, 2))
    for n in (1023, 1024, 1025):
        a = rng.integers(0, 2000, (n, 2))
        for k in (0, n - 2, n - 1):
            row = a[k].copy()
            a[k] = far
            assert hausdorff_distance(a, b, 0.01) == _kdtree_hausdorff(a, b, 0.01)
            a[k] = row
    monkeypatch.setattr(fbcheck, "_CHUNK_PAIRS", 60)
    for n in (1, 2, 3, 4, 7, 20):
        a = rng.integers(0, 50, (n, 2))
        b = rng.integers(0, 50, (20, 2))
        for k in range(n):
            bent = a.copy()
            bent[k] = far
            assert hausdorff_distance(bent, b, 0.1) == _kdtree_hausdorff(bent, b, 0.1)
        for k in range(len(b)):
            bent = b.copy()
            bent[k] = far
            assert hausdorff_distance(a, bent, 0.1) == _kdtree_hausdorff(a, bent, 0.1)


def test_hausdorff_band_tracks_limit_boundary():
    from onephase.fbcheck import _limit_boundary

    limit = _halfplane(201)
    f0 = np.argwhere(_limit_boundary(limit.values))
    for eps in (0.2, 0.1, 0.05):
        u = _profile_field(eps, -1.0, 1.0, 201)
        band = level_region(u, TERM, eps, "F", TAU)
        d = hausdorff_distance(band, f0, u.grid.h)
        assert d <= TERM.T * eps + u.grid.h + 1e-12


def test_check_report_invariants_enforced():
    # worst and passed are derived, so only stored JSON can disagree.
    scanned = check_to_json(CheckReport(check="x", params=(1.0,), values=(2.0,), threshold=0.0))
    empty = check_to_json(CheckReport(check="x", params=(), values=(), threshold=0.0))
    for payload, key, bad in (
        (scanned, "worst", 1.0),
        (scanned, "pass", False),
        (empty, "pass", True),
    ):
        with pytest.raises(ValueError):
            check_from_json({**payload, key: bad})
    with pytest.raises(ValueError):
        CheckReport(check="x", params=(1.0,), values=(math.nan,), threshold=0.0)


def test_check_report_json_roundtrip():
    report = nondegeneracy_scan(_halfplane(51), 1e-6, 0.5, [0.25], threshold=0.5)
    payload = check_to_json(report)
    assert payload["pass"] is True
    assert check_from_json(payload) == report
    empty = density_scan(
        ScalarField(
            grid=make_grid((-1.0, -1.0), (1.0, 1.0), 21),
            values=np.full((21, 21), 0.9),
        ),
        0.1,
        1.0,
        [0.5],
    )
    assert check_to_json(empty)["worst"] is None
    assert check_from_json(check_to_json(empty)) == empty


@pytest.mark.parametrize("n", [1, 3, 41])
def test_widening_maxes_equal_scipy_maximum_filter(n):
    # Sizes 1, 3 and 2m + 1, with discs narrower and wider than the array.
    # A line, one row and one column: every disc row off the array is empty,
    # so each disc is a window of halfwidth w along the array.
    from scipy.ndimage import maximum_filter1d

    from onephase.fbcheck import _ball_reduce

    rng = np.random.default_rng(n)
    line = rng.standard_normal(n)
    cases = [(line, 0), (line.reshape(1, n), 1), (line.reshape(n, 1), 0)]
    for arr, axis in cases:
        for w in range(46):
            got = _ball_reduce(arr, float(w), 1.0, np.maximum, -np.inf)
            want = maximum_filter1d(arr, 2 * w + 1, axis=axis, mode="constant", cval=-np.inf)
            assert np.array_equal(got, want)


def test_dilation_equals_scipy_binary_dilation():
    # At r = h the disc is scipy's default structuring element, the cross.
    from scipy.ndimage import binary_dilation

    from onephase.fbcheck import _ball_reduce

    def dilate(mask):
        return _ball_reduce(mask, 1.0, 1.0, np.logical_or, False)

    rng = np.random.default_rng(11)
    for shape in [(1,), (2,), (17,), (1, 1), (3, 4), (23, 31)]:
        for density in (0.05, 0.5):
            mask = rng.random(shape) < density
            assert np.array_equal(dilate(mask), binary_dilation(mask))
    edge = np.zeros((5, 5), dtype=bool)
    edge[0, 0] = True
    assert np.array_equal(dilate(edge), binary_dilation(edge))


@pytest.mark.parametrize("r", [0.05, 0.13, 0.3, 2.0])
def test_ball_max_and_count_match_brute_force_discs(r):
    # Every op _ball_reduce serves (max, count, or) on 2D and 1D arrays,
    # some smaller than the disc.
    from onephase.fbcheck import _ball_reduce

    h = 0.05
    rng = np.random.default_rng(int(100 * r))
    for op, fill in [(np.maximum, -np.inf), (np.add, 0.0), (np.logical_or, False)]:
        for shape in [(13, 17), (1,), (2,), (1, 1), (3, 2)]:
            values = rng.standard_normal(shape)
            if op is not np.maximum:
                values = (values > 0.25).astype(float if op is np.add else bool)
            idx = np.argwhere(np.ones(shape, dtype=bool))
            want = np.empty_like(values)
            for p in idx:
                # Same disc as _disc: |q - p| <= r up to the 1e-9 slack.
                inside = np.linalg.norm((idx - p) * h, axis=1) <= r + 1e-9 * h
                want[tuple(p)] = op.reduce(values.reshape(-1)[inside])
            assert np.array_equal(_ball_reduce(values, r, h, op, fill), want)


@pytest.mark.parametrize("r", [0.05, 0.12, 0.3])
def test_ball_statistics_on_the_disc_box_are_the_whole_grid_ones(r):
    # A scan reduces only the bounding box of its centers grown by the disc
    # halfwidth; at each center that box holds the whole disc.
    from onephase.fbcheck import _ball_reduce, _disc_box

    h = 0.05
    rng = np.random.default_rng(int(100 * r))
    for op, fill in [(np.maximum, -np.inf), (np.add, 0.0), (np.logical_or, False)]:
        for shape in [(41, 37), (61,)]:
            values = rng.standard_normal(shape)
            if op is not np.maximum:
                values = (values > 0.25).astype(float if op is np.add else bool)
            for share in (0.002, 0.05, 1.0):
                centers = rng.random(shape) < share
                centers.flat[rng.integers(centers.size)] = True
                box = _disc_box(centers, r, h)
                got = _ball_reduce(values[box], r, h, op, fill)[centers[box]]
                want = _ball_reduce(values, r, h, op, fill)[centers]
                assert np.array_equal(got, want)
