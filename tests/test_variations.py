"""Tests for inner variations and free-boundary surface forms."""

import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.field import (
    PolyBump,
    _derivative,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    gradient,
    halfplane,
    integrate,
    make_grid,
    max_norm,
    radial_cone,
    support_box,
    tables,
)
from onephase.ode1d import profile_field
from onephase.potentials import F_eps, f_eps, make_reference, make_tabulated
from onephase.records import from_json, to_json
from onephase.solver import SolveConfig, minimize
from onephase.variations import (
    NotClassicalSolutionError,
    InterfaceCurve,
    VariationReport,
    _curve_quadrature,
    _offset_probe,
    _probe_block,
    cjk_form,
    classical_second_variation,
    default_fd_step,
    extract_interface,
    inner_variations,
    inner_variation_fd,
    lie_derivative,
    save_curve,
    load_curve,
    surface_second_variation,
    variation_report,
)


def _term():
    return make_reference(1.0)


def _bump(cx, cy, wx, wy, coef):
    c = np.zeros((4, 4))
    for (a, b), val in coef.items():
        c[a, b] = val
    return PolyBump(coeffs=c, center=(cx, cy), halfwidths=(wx, wy))


def _generic_x():
    return VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.1, -0.15, 0.55, 0.5, {(0, 0): 0.8, (1, 0): 0.3, (0, 2): -0.4}),
            _bump(0.05, -0.1, 0.5, 0.6, {(0, 0): -0.5, (1, 1): 0.6, (2, 0): 0.2}),
        ),
    )


def _zero_x():
    return VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.0, 0.0, 0.5, 0.5, {}),
            _bump(0.0, 0.0, 0.5, 0.5, {}),
        ),
    )


def _smooth_u(grid):
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    return ScalarField(
        grid=grid, values=0.25 + 0.1 * xm + 0.08 * ym**2 - 0.05 * xm * ym
    )


def _halfplane(n, slope=1.0):
    u = halfplane(make_grid((-1.0, -1.0), (1.0, 1.0), n))
    return ScalarField(grid=u.grid, values=slope * u.values)


def _radial(n=401, radius=0.5):
    return radial_cone(make_grid((-1.0, -1.0), (1.0, 1.0), n), radius)


def _shifted(a, k, axis, fill):
    """out[i] = a[i + k] along axis, fill past the array edge."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (max(-k, 0), max(k, 0))
    padded = np.pad(a, pad, constant_values=fill)
    return np.take(padded, np.arange(a.shape[axis]) + max(k, 0), axis=axis)


def _cascade(values, h, mask):
    """The gradient on a phase by five nested np.where stencils on every node.

    The phase gradient that field._derivative replaced, kept as its oracle:
    centered where both neighbours share the phase, second-order one-sided
    where only one side does, first-order when the phase is two nodes thin,
    zero on isolated nodes and outside the mask.
    """
    out = np.zeros((values.ndim,) + values.shape)
    for ax in range(values.ndim):
        vp, vm = _shifted(values, 1, ax, 0.0), _shifted(values, -1, ax, 0.0)
        vpp, vmm = _shifted(values, 2, ax, 0.0), _shifted(values, -2, ax, 0.0)
        mp, mm = _shifted(mask, 1, ax, False), _shifted(mask, -1, ax, False)
        mpp, mmm = _shifted(mask, 2, ax, False), _shifted(mask, -2, ax, False)
        d = np.where(
            mp & mm,
            (vp - vm) / (2.0 * h),
            np.where(
                mp & mpp,
                (-3.0 * values + 4.0 * vp - vpp) / (2.0 * h),
                np.where(
                    mp,
                    (vp - values) / h,
                    np.where(
                        mm & mmm,
                        (3.0 * values - 4.0 * vm + vmm) / (2.0 * h),
                        np.where(mm, (values - vm) / h, 0.0),
                    ),
                ),
            ),
        )
        out[ax] = np.where(mask, d, 0.0)
    return out


@functools.cache
def _solved_profile():
    """Converged eps-solution on a 401^2 grid, one-dimensional by symmetry.

    The discrete 1D column problem is solved first and tiled; the tiled
    field already satisfies the 2D equations, so minimize certifies it
    at once instead of iterating.
    """
    term = _term()
    eps = 0.3
    col_bc = profile_field(term, make_grid(-1.0, 1.0, 401), eps)
    col, col_report = minimize(
        col_bc, col_bc, term, SolveConfig(eps=eps, tol_residual=1e-10, max_iter=40_000)
    )
    assert col_report.converged
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 401)
    tiled = ScalarField(grid=grid, values=np.tile(col.values, (grid.shape[0], 1)))
    u, report = minimize(
        tiled, tiled, term, SolveConfig(eps=eps, tol_residual=1e-8, max_iter=5_000)
    )
    assert report.converged
    return u, term, eps


def test_lie_derivative_of_zero_field_vanishes():
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 51))
    out = lie_derivative(u, _zero_x(), 0.5)
    assert np.all(out.values == 0.0)


def test_lie_derivative_linear_field_is_exact():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 101)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    u = ScalarField(grid=grid, values=0.7 * xm - 0.3 * ym)
    spec = _generic_x()
    out = lie_derivative(u, spec, 0.5)
    from onephase.field import evaluate

    xv = evaluate(spec, grid.nodes()).reshape(grid.shape + (2,))
    want = 0.7 * xv[..., 0] - 0.3 * xv[..., 1]
    assert np.max(np.abs(out.values - want)) < 1e-12


def test_lie_derivative_halfplane_equals_normal_component():
    u = _halfplane(201)
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.0, 0.5, 0.5, 0.35, {(0, 0): 0.4}),
            _bump(0.0, 0.5, 0.5, 0.35, {(0, 0): 0.9, (1, 0): -0.2}),
        ),
    )
    out = lie_derivative(u, spec, 0.0)
    from onephase.field import evaluate

    xv = evaluate(spec, u.grid.nodes()).reshape(u.grid.shape + (2,))
    ym = np.meshgrid(*u.grid.axes(), indexing="ij")[1]
    inside = ym >= u.grid.h
    assert np.max(np.abs(out.values[inside] - xv[..., 1][inside])) < 1e-12


@pytest.mark.parametrize("n", [41, 201])
def test_lie_derivative_across_the_grid_edge_matches_the_whole_grid_gradient(n):
    # X's support crosses the grid edge at x = 1 and y = 1, so the block
    # gradient runs its one-sided stencil there.  Inside the grid it is
    # (v+ - v-)/2h as gradient computes it, bit for bit; on the edge the two
    # second-order stencils round apart, by a few ulps of their terms u/h.
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), n)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    s = (0.6 * xm + 0.8 * ym - 0.05) / 0.1
    u = ScalarField(grid=grid, values=0.1 * np.logaddexp(0.0, s) + 0.3 * np.sin(3.0 * xm * ym))
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.8, 0.7, 0.5, 0.45, {(0, 0): 0.7, (1, 0): 0.3, (0, 1): -0.4}),
            _bump(0.8, 0.7, 0.5, 0.45, {(0, 0): -0.5, (1, 1): 0.6}),
        ),
    )
    lie = lie_derivative(u, spec, 0.1).values
    full = np.sum(gradient(u) * np.moveaxis(evaluate(spec, grid), -1, 0), axis=0)
    edge = np.ones(grid.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    assert np.count_nonzero(lie[edge]) > n // 4
    assert np.array_equal(lie[~edge], full[~edge])
    ulp = np.spacing(np.max(np.abs(u.values))) / grid.h * max_norm(spec)
    assert np.max(np.abs(lie[edge] - full[edge])) <= 4.0 * ulp


@pytest.mark.parametrize("n", [41, 201])
def test_lie_derivative_at_positive_eps_is_the_gradient_contracted_with_x(n):
    # The block gradient at eps > 0 is gradient(u) on the block, one-sided
    # stencils on the grid edge included, so the contraction is exact there.
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), n)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    u = ScalarField(grid=grid, values=0.1 * np.logaddexp(0.0, (0.6 * xm + 0.8 * ym) / 0.1))
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.8, 0.7, 0.5, 0.45, {(0, 0): 0.7, (1, 0): 0.3, (0, 1): -0.4}),
            _bump(0.8, 0.7, 0.5, 0.45, {(0, 0): -0.5, (1, 1): 0.6}),
        ),
    )
    g, xv = gradient(u), evaluate(spec, grid)
    want = g[0] * xv[..., 0] + g[1] * xv[..., 1]
    lie = lie_derivative(u, spec, 0.1).values
    edge = np.ones(grid.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    assert np.count_nonzero(lie[edge]) > n // 4
    assert np.array_equal(lie, want)


_STEPS = st.sampled_from([1.0, 0.1, 2.0**-7, 0.013])
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))


@st.composite
def _masked_lines(draw):
    """Values and a mask on a 1D or 2D array of 1 to 9 nodes per axis.

    The mask is random, or all-true, or all-false, or runs of one or two
    nodes along one axis, gaps of one or two between them: thin phases and
    isolated nodes on every line.
    """
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    size = math.prod(shape)
    values = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size))).reshape(shape)
    kind = draw(st.sampled_from(["random", "all", "none", "thin"]))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    elif kind == "thin":
        axis = draw(st.integers(0, len(shape) - 1))
        lines = []
        for _ in range(size // shape[axis]):
            line = [False] * draw(st.integers(0, 1))
            while len(line) < shape[axis]:
                line += [True] * draw(st.integers(1, 2)) + [False] * draw(st.integers(1, 2))
            lines.append(line[: shape[axis]])
        mask = np.moveaxis(np.array(lines).reshape(shape[:axis] + shape[axis + 1:] + shape[axis:axis + 1]), -1, axis)
    else:
        mask = np.full(size, kind == "all")
    return values, mask.reshape(shape)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_masked_lines(), h=_STEPS)
def test_derivative_matches_the_five_way_cascade_bit_for_bit(case, h):
    values, mask = case
    want = _cascade(values, h, mask)
    for ax in range(values.ndim):
        got = _derivative(values, h, ax, mask)
        assert got.shape == values.shape
        assert got.tobytes() == want[ax].tobytes(), (ax, values, mask)
        if mask.all():
            assert _derivative(values, h, ax).tobytes() == got.tobytes()


def test_first_variation_of_zero_field_is_zero():
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 51))
    assert inner_variations(u, _zero_x(), _term(), 0.5)[0] == 0.0


def test_variations_match_fd_oracle_on_smooth_field():
    term = _term()
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 201))
    spec = _generic_x()
    eps = 0.5
    dt = 0.1
    first_a, second_a = inner_variations(u, spec, term, eps)
    first_fd, second_fd = inner_variation_fd(u, spec, term, eps, dt)
    assert abs(first_a - first_fd) < 1e-3
    assert abs(second_a - second_fd) < max(1e-3, 10.0 * dt**2)
    # the 5-point stencil is far better than the contract bound here
    assert abs(second_a - second_fd) < 5e-3


def test_first_variation_chain_rule_identity():
    # deltaI[X] = -I'(u)[L_X u] for any smooth field, not just solutions
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 201)
    u = _smooth_u(grid)
    spec = _generic_x()
    eps = 0.5
    first = inner_variations(u, spec, term, eps)[0]
    lx = lie_derivative(u, spec, eps)
    gu, gl = gradient(u), gradient(lx)
    dens = 2.0 * np.sum(gu * gl, axis=0) + 2.0 * f_eps(term, eps, u.values) * lx.values
    iprime = integrate(ScalarField(grid=grid, values=dens))
    assert abs(first + iprime) < 1e-3 * abs(first)


def test_first_variation_vanishes_at_converged_solution():
    u, term, eps = _solved_profile()
    spec = _generic_x()
    val = inner_variations(u, spec, term, eps)[0]
    assert abs(val) <= 1e-3 * max_norm(spec) * float(np.max(np.abs(u.values)))


def test_second_variation_matches_classical_form_at_solution():
    u, term, eps = _solved_profile()
    spec = _generic_x()
    inner = inner_variations(u, spec, term, eps)[1]
    classical = classical_second_variation(u, lie_derivative(u, spec, eps), term, eps)
    assert abs(inner - classical) <= 1e-3 * max(abs(inner), abs(classical))


def test_second_variation_nonnegative_at_profile_solution():
    u, term, eps = _solved_profile()
    rng = np.random.default_rng(7)
    for _ in range(5):
        comps = []
        for _ in range(2):
            coef = {
                (a, b): rng.uniform(-1.0, 1.0)
                for a in range(4)
                for b in range(4 - a)
            }
            cx, cy = rng.uniform(-0.3, 0.3, size=2)
            wx, wy = rng.uniform(0.3, 0.6, size=2)
            comps.append(_bump(cx, cy, wx, wy, coef))
        spec = VectorFieldSpec(dim=2, components=tuple(comps))
        assert inner_variations(u, spec, term, eps)[1] >= -1e-6


def test_fd_oracle_matches_formulas_on_softplus_layer():
    # The 41^2 layer of the CLI pin.  The oracle shares the node gradient
    # and quadrature of the formulas, so only the O(dt^4) stencil and RK4
    # errors separate them (measured: 7e-8 and 1.4e-7 relative).
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    xs, ys = np.meshgrid(*grid.axes(), indexing="ij")
    u = ScalarField(
        grid=grid, values=0.1 * np.logaddexp(0.0, (0.6 * xs + 0.8 * ys - 0.05) / 0.1)
    )
    spec, term, eps = _generic_x(), _term(), 0.1
    first, second = inner_variation_fd(u, spec, term, eps)
    assert first == pytest.approx(inner_variations(u, spec, term, eps)[0], rel=1e-6)
    assert second == pytest.approx(inner_variations(u, spec, term, eps)[1], rel=1e-6)


def test_fd_oracle_zero_field_is_roundoff_zero():
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 51))
    first, second = inner_variation_fd(u, _zero_x(), _term(), 0.5, dt=0.05)
    assert abs(first) < 1e-12
    assert abs(second) < 1e-10


def test_fd_first_derivative_stable_at_kink():
    # the deformation keeps clear of the kink line, so the transported
    # energy stays smooth in t even though u itself is only Lipschitz
    u = _halfplane(201)
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.0, 0.5, 0.55, 0.4, {(0, 0): 0.8, (0, 1): 0.3}),
            _bump(0.0, 0.5, 0.55, 0.4, {(0, 0): -0.6, (1, 0): 0.2}),
        ),
    )
    dt = default_fd_step(spec)
    f1, _ = inner_variation_fd(u, spec, _term(), 0.0, dt)
    f2, _ = inner_variation_fd(u, spec, _term(), 0.0, dt / 2.0)
    assert abs(f1 - f2) < 1e-3


def test_first_variation_halfplane_extrapolates_to_zero():
    # |grad u| = 1 on the interface makes the continuum value vanish
    term = _term()
    spec = _generic_x()
    vals = {}
    for n in (201, 401):
        u = _halfplane(n)
        vals[n] = inner_variations(u, spec, term, 0.0)[0]
    extrapolated = 2.0 * vals[401] - vals[201]
    assert abs(extrapolated) < 5e-3


def test_surface_form_matches_volume_form_halfplane():
    term = _term()
    u = _halfplane(401)
    spec = _generic_x()
    volume = inner_variations(u, spec, term, 0.0)[1]
    curve = extract_interface(u, 0.5 * u.grid.h)
    surface = surface_second_variation(u, spec, curve)
    assert surface > 0.0
    assert abs(volume - surface) <= 5e-2 * max(abs(volume), abs(surface))


def test_surface_form_matches_volume_form_radial():
    term = _term()
    u = _radial()
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.0, 0.0, 0.85, 0.85, {(1, 0): 1.0}),
            _bump(0.0, 0.0, 0.85, 0.85, {(0, 1): 1.0}),
        ),
    )
    volume = inner_variations(u, spec, term, 0.0)[1]
    curve = extract_interface(u, 0.5 * u.grid.h)
    surface = surface_second_variation(u, spec, curve)
    assert abs(volume - surface) <= 5e-2 * max(abs(volume), abs(surface))


def test_extract_interface_halfplane_is_flat_line():
    u = _halfplane(201)
    level = 0.5 * u.grid.h
    curve = extract_interface(u, level)
    assert not curve.closed
    assert len(curve) > 100
    assert np.max(np.abs(curve.points[:, 1] - level)) < 1e-12
    assert np.max(np.abs(curve.curvature)) < 1e-6
    assert np.max(np.linalg.norm(curve.normals - [0.0, -1.0], axis=1)) < 1e-9
    assert np.ptp(curve.points[:, 0]) > 1.9


def test_extract_interface_radial_circle():
    u = _radial()
    h = u.grid.h
    curve = extract_interface(u, 0.5 * h)
    assert curve.closed
    assert not curve.singular.any()
    rad = np.linalg.norm(curve.points, axis=1)
    # the level sits |grad u| * h/2 outside the true circle
    assert np.max(np.abs(rad - (0.5 + 0.5 * h))) < h
    assert np.max(np.abs(curve.curvature - 2.0)) < 2e-2
    outward = curve.points / rad[:, None]
    assert np.max(np.linalg.norm(curve.normals + outward, axis=1)) < 5e-3


def test_extract_interface_empty_cases():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = ScalarField(grid=grid, values=np.full(grid.shape, 0.3))
    assert len(extract_interface(u, 0.5)) == 0
    assert len(extract_interface(u, 0.3)) == 0


@pytest.mark.parametrize(
    "flip, level, closed, points",
    [
        # case 5, centre above: the corners above join through the centre
        (False, 0.25, False, [(0.75, 0), (1, 0.25), (1.75, 1), (1, 1.75), (0.25, 1), (0, 0.75)]),
        # case 5, centre below: corner (1, 1) is cut off alone
        (False, 0.75, True, [(1, 0.75), (0.75, 1), (1, 1.25), (1.25, 1)]),
        # case 10 (the same field mirrored in x), centre above, then below
        (True, 0.25, False, [(1.25, 0), (1, 0.25), (0.25, 1), (1, 1.75), (1.75, 1), (2, 0.75)]),
        (True, 0.75, True, [(1, 0.75), (0.75, 1), (1, 1.25), (1.25, 1)]),
    ],
)
def test_extract_interface_resolves_saddles_by_the_cell_centre(flip, level, closed, points):
    # Nodes (0, 0) and (1, 1) are above the level, so cell (0, 0) is a case-5
    # saddle; mirrored, cell (1, 0) is a case-10 one.  Its centre is 0.5.
    grid = make_grid((0.0, 0.0), (2.0, 2.0), 3)
    vals = np.zeros(grid.shape)
    vals[0, 0] = vals[1, 1] = 1.0
    curve = extract_interface(ScalarField(grid=grid, values=vals[::-1] if flip else vals), level)
    assert curve.closed == closed
    assert curve.points.tolist() == [list(p) for p in points]


def test_extract_interface_bits_are_pinned_on_a_saddle_rich_field():
    # 60 case-5 and 151 case-10 cells, and nodes on the level.
    grid = make_grid((-1.0, -1.0), (1.0, 0.8), (41, 37))
    i, j = np.meshgrid(np.arange(41), np.arange(37), indexing="ij")
    vals = ((3 * i * i + 4 * j * j + i * j) % 7).astype(float)
    curve = extract_interface(ScalarField(grid=grid, values=vals), 2.0)
    arrays = (curve.points, curve.normals, curve.curvature, curve.singular)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays) + bytes([curve.closed]))
    assert (len(curve), curve.closed) == (68, False)
    assert digest.hexdigest() == "01b6fe0f73bc298d5f04e3128303264be00fdce5839b230a0c1f9cb8404fcb26"


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_extract_interface_refuses_a_level_that_is_not_finite(level):
    # Before, every comparison with nan was False: an empty curve.
    with pytest.raises(ValueError, match="level must be finite"):
        extract_interface(_halfplane(21), level)


@pytest.mark.parametrize("u", [_halfplane(201), _radial(101)], ids=["open", "closed"])
def test_curve_quadrature_is_the_segment_loop(u):
    # The loop it replaces, with lengths in plain products, to the bit.
    curve = extract_interface(u, 0.5 * u.grid.h)
    vals = np.where(curve.singular, 0.0, curve.curvature)
    pts = curve.points.tolist()
    n = len(pts)
    acc = 0.0
    for a in range(n if curve.closed else n - 1):
        b = (a + 1) % n
        dx, dy = pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]
        acc += 0.5 * (vals[a] + vals[b]) * math.sqrt(dx * dx + dy * dy)
    assert _curve_quadrature(curve, curve.curvature) == acc


def test_surface_form_rejects_non_unit_gradient():
    u = _halfplane(201, slope=2.0)
    curve = extract_interface(u, u.grid.h)
    spec = _generic_x()
    with pytest.raises(NotClassicalSolutionError):
        surface_second_variation(u, spec, curve)


def test_classical_second_variation_validation():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    u = _smooth_u(grid)
    zero = ScalarField(grid=grid, values=np.zeros(grid.shape))
    term = _term()
    assert classical_second_variation(u, zero, term, 0.5) == 0.0
    with pytest.raises(ValueError):
        classical_second_variation(u, zero, term, 0.0)
    bad = np.zeros(grid.shape)
    bad[0, 5] = 1.0
    with pytest.raises(ValueError):
        classical_second_variation(u, ScalarField(grid=grid, values=bad), term, 0.5)


def test_classical_second_variation_flat_reaction_region():
    # above T*eps the reaction derivative vanishes and only the Dirichlet
    # term survives
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 101)
    term = _term()
    eps = 0.5
    u = ScalarField(grid=grid, values=np.full(grid.shape, 0.9))
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    phi_vals = np.maximum(0.0, 1.0 - 2.0 * np.sqrt(xm**2 + ym**2)) ** 2
    phi = ScalarField(grid=grid, values=phi_vals)
    got = classical_second_variation(u, phi, term, eps)
    g = gradient(phi)
    want = 2.0 * integrate(ScalarField(grid=grid, values=np.sum(g * g, axis=0)))
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12)


def _whole_grid_classical(u, phi, term, eps):
    """2 int |grad phi|^2 + f_eps'(u) phi^2 by np.gradient and np.trapezoid on every node."""
    h = u.grid.h
    g = np.gradient(phi, h, edge_order=2)
    dens = g[0] ** 2 + g[1] ** 2 + term.fprime(u.values / eps) / eps**2 * phi**2
    return 2.0 * float(np.trapezoid(np.trapezoid(dens, dx=h, axis=-1), dx=h))


@pytest.mark.parametrize("support", ["lie", "collar"])
def test_classical_second_variation_matches_a_whole_grid_reference(support):
    # The form runs on the box of phi's nonzero nodes grown by the stencil
    # reach.  "collar" makes that box the grid minus the collar, so the
    # one-sided stencils of the boundary nodes read phi.
    term, eps = _term(), 0.5
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 201))
    if support == "lie":
        phi = lie_derivative(u, _generic_x(), eps).values
    else:
        phi = np.zeros(u.grid.shape)
        phi[2:-2, 2:-2] = _gauss(u.grid)[2:-2, 2:-2]
    got = classical_second_variation(u, ScalarField(grid=u.grid, values=phi), term, eps)
    want = _whole_grid_classical(u, phi, term, eps)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _phase_bulk(u, phi):
    """int_{u>0} |grad phi|^2 by the trapezoid rule, grad phi the phase gradient."""
    mask = u.values > 0.0
    g = _cascade(phi, u.grid.h, mask)
    return integrate(ScalarField(grid=u.grid, values=np.where(mask, np.sum(g * g, axis=0), 0.0)))


@functools.cache
def _cone_and_curve(kind, n):
    """The exact half-plane or radius-0.5 radial cone on [-1, 1]^2 and its h/2 curve."""
    u = _halfplane(n) if kind == "halfplane" else _radial(n)
    return u, extract_interface(u, 0.5 * u.grid.h)


def _gauss(grid):
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    return np.exp(-4.0 * (xm**2 + (ym - 0.3) ** 2))


@pytest.mark.parametrize("n", [201, 401])
@pytest.mark.parametrize("kind", ["halfplane", "radial"])
def test_cjk_form_reads_phi_on_the_positive_phase_only(kind, n):
    # A plain gradient across the free boundary and a curve sample between
    # the phases read phi off {u > 0}: 10.70 against 2.354 on the 201^2
    # half-plane, 19.78 against 0.4405 on the cone.
    u, curve = _cone_and_curve(kind, n)
    phi = _gauss(u.grid)
    inside = np.where(u.values > 0.0, phi, 0.0)
    assert cjk_form(u, ScalarField(grid=u.grid, values=phi), curve) == cjk_form(
        u, ScalarField(grid=u.grid, values=inside), curve
    )


@pytest.mark.parametrize("kind", ["halfplane", "radial"])
def test_cjk_form_of_a_phase_restricted_phi_converges(kind):
    # 201^2 -> 401^2 moves it by 0.35 % on the half-plane and 4.1 % on the
    # cone; with phi read off the phase it moved by +71 % and +101 %.
    vals = []
    for n in (201, 401):
        u, curve = _cone_and_curve(kind, n)
        phi = np.where(u.values > 0.0, _gauss(u.grid), 0.0)
        vals.append(cjk_form(u, ScalarField(grid=u.grid, values=phi), curve))
    assert abs(vals[1] - vals[0]) < 0.1 * abs(vals[0])


@pytest.mark.parametrize("n", [201, 401])
@pytest.mark.parametrize("kind", ["halfplane", "radial"])
def test_surface_second_variation_is_twice_the_cjk_form_at_the_lie_derivative(kind, n):
    # At eps = 0 lie_derivative reads u by the phase gradient.  With the
    # plain gradient across the kink the cone's form read 0.141 on 201^2
    # and 0.309 on 401^2, against 0.0723 and 0.0685 from the surface form.
    u, curve = _cone_and_curve(kind, n)
    spec = _generic_x()
    form = 2.0 * cjk_form(u, lie_derivative(u, spec, 0.0), curve)
    assert surface_second_variation(u, spec, curve) == pytest.approx(form, rel=1e-13, abs=0.0)


@st.composite
def _bump_pairs(draw):
    """Two scalar PolyBump tables of total degree <= 3, as a 2D spec's components."""
    coef = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    comps = []
    for _ in range(2):
        coeffs = np.zeros((4, 4))
        for idx in np.ndindex(coeffs.shape):
            if sum(idx) <= 3:
                coeffs[idx] = draw(coef)
        center = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(2))
        widths = tuple(draw(st.floats(0.2, 0.8)) for _ in range(2))
        comps.append(PolyBump(coeffs=coeffs, center=center, halfwidths=widths))
    return VectorFieldSpec(dim=2, components=tuple(comps))


@pytest.mark.parametrize("kind", ["halfplane", "radial"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(spec=_bump_pairs())
def test_cjk_form_is_a_quadratic_form_of_phi(kind, spec):
    # Q(phi + psi) + Q(phi - psi) = 2 Q(phi) + 2 Q(psi), within 4 ulps of the
    # summed bulk and curve terms of the four forms; on 300 random draws of
    # this strategy the worst case was 2 ulps on either field.
    u, curve = _cone_and_curve(kind, 101)
    empty = extract_interface(u, 5.0)
    tabs = evaluate(spec, u.grid)
    phi, psi = tabs[..., 0], tabs[..., 1]
    scale = 0.0
    q = []
    for f in (phi + psi, phi - psi, phi, psi):
        bulk = cjk_form(u, ScalarField(grid=u.grid, values=f), empty)
        q.append(cjk_form(u, ScalarField(grid=u.grid, values=f), curve))
        scale += bulk + abs(bulk - q[-1])
    assert abs((q[0] + q[1]) - (2.0 * q[2] + 2.0 * q[3])) <= 4.0 * np.spacing(scale)


@pytest.mark.parametrize("kind", ["halfplane", "radial"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(spec=_bump_pairs())
def test_cjk_form_ignores_phi_off_the_positive_phase(kind, spec):
    u, curve = _cone_and_curve(kind, 101)
    tabs = evaluate(spec, u.grid)
    off = np.where(u.values > 0.0, tabs[..., 0], tabs[..., 1])
    assert cjk_form(u, ScalarField(grid=u.grid, values=tabs[..., 0]), curve) == cjk_form(
        u, ScalarField(grid=u.grid, values=off), curve
    )


def test_cjk_form_halfplane_is_dirichlet_energy():
    u = _halfplane(201)
    curve = extract_interface(u, 0.5 * u.grid.h)
    grid = u.grid
    phi = ScalarField(grid=grid, values=_gauss(grid))
    val = cjk_form(u, phi, curve)
    assert val > 0.0
    zero = ScalarField(grid=grid, values=np.zeros(grid.shape))
    assert cjk_form(u, zero, curve) == 0.0


def test_cjk_form_radial_curve_term_matches_closed_form():
    u = _radial()
    grid = u.grid
    curve = extract_interface(u, 0.5 * grid.h)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    r = np.sqrt(xm**2 + ym**2)
    s = np.clip((r - 0.5) / 0.45, -1.0, 1.0)
    phi = ScalarField(grid=grid, values=(1.0 - s**2) ** 3)
    val = cjk_form(u, phi, curve)
    curve_term = _phase_bulk(u, phi.values) - val
    rad = np.linalg.norm(curve.points, axis=1)
    phi_on_curve = (1.0 - np.clip((rad - 0.5) / 0.45, -1.0, 1.0) ** 2) ** 3
    closed_form = float(
        np.mean(1.0 / rad * phi_on_curve**2) * 2.0 * np.pi * np.mean(rad)
    )
    assert abs(curve_term - closed_form) <= 5e-2 * closed_form


def test_variation_report_roundtrip():
    term = _term()
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 101))
    spec = _generic_x()
    report = variation_report(u, spec, term, 0.5, dt=0.1)
    assert report.classical_second is not None
    assert report.surface_second is None
    payload = to_json(report)
    again = from_json(VariationReport, json.loads(json.dumps(payload)))
    assert again == report


def test_variation_report_with_a_tabulated_term_fills_classical_second():
    ref = _term()
    s = np.linspace(0.0, 1.0, 401)
    tab = make_tabulated(np.column_stack([s, np.asarray(ref.f(s))]))
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 101))
    spec = _generic_x()
    report = variation_report(u, spec, tab, 0.5, dt=0.1)
    want = classical_second_variation(u, lie_derivative(u, spec, 0.5), tab, 0.5)
    assert report.classical_second == want and math.isfinite(want)


def test_variation_report_rejects_non_finite():
    with pytest.raises(ValueError):
        VariationReport(
            first_analytic=float("nan"),
            second_analytic=0.0,
            first_fd=0.0,
            second_fd=0.0,
            dt=0.1,
        )


_GRID = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
_X1 = VectorFieldSpec(dim=1, components=(PolyBump(coeffs=np.zeros(4), center=(0.0,), halfwidths=(0.5,)),))
_COARSE = ScalarField(grid=make_grid((-1.0, -1.0), (1.0, 1.0), 11), values=np.zeros((11, 11)))


def _curve(**kw):
    return InterfaceCurve(**{
        "points": np.zeros((2, 2)), "normals": [[1.0, 0.0]] * 2, "curvature": np.zeros(2),
        "singular": np.zeros(2, dtype=bool), "closed": False, **kw,
    })


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VariationReport(0.0, 0.0, 0.0, 0.0, dt=0.0), "dt must be positive, got 0.0"),
        (lambda: VariationReport(0.0, 0.0, 0.0, 0.0, dt=0.1, classical_second=math.nan),
         "classical_second must be finite when present"),
        (lambda: VariationReport(0.0, 0.0, 0.0, 0.0, dt=0.1, surface_second=math.inf),
         "surface_second must be finite when present"),
        (lambda: _curve(curvature=np.zeros(3)), "per-vertex arrays disagree in length"),
        (lambda: _curve(points=[[0.0, 0.0], [math.nan, 0.0]]), "curve data must be finite"),
        (lambda: _curve(curvature=[0.0, math.inf]), "curve data must be finite"),
        (lambda: _curve(normals=[[1.0, 0.0], [1.0, 1.0]]), "normals must be unit vectors"),
        (lambda: inner_variations(halfplane(_GRID), _X1, _term(), 0.0), "X has dim 1, field has dim 2"),
        (lambda: lie_derivative(halfplane(_GRID), _X1, 0.0), "X has dim 1, field has dim 2"),
        (lambda: classical_second_variation(_smooth_u(_GRID), _COARSE, _term(), 0.1),
         "phi must live on the grid of u"),
        (lambda: cjk_form(halfplane(_GRID), _COARSE, _curve()), "phi must live on the grid of u"),
        (lambda: extract_interface(halfplane(make_grid(-1.0, 1.0, 21)), 0.05),
         "interface extraction requires a 2D field"),
    ],
)
def test_variations_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_curve_quadrature_of_a_single_vertex_is_zero():
    curve = InterfaceCurve(points=[[0.0, 0.0]], normals=[[1.0, 0.0]], curvature=[2.0],
                           singular=[False], closed=True)
    assert _curve_quadrature(curve, np.ones(1)) == 0.0


@st.composite
def _probe_cases(draw):
    return draw(st.integers(12, 80)), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_probe_cases())
def test_the_probe_block_holds_every_node_the_probes_read(case):
    # Vertices on nodes and anywhere within 12h of the grid, so some probes are
    # clamped, with unit normals in every direction: values that are nan off
    # the probe block, or given on it alone, must probe as the whole field does.
    n, k, seed = case
    rng = np.random.default_rng(seed)
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), n)
    pts = rng.uniform(-1.0 - 12.0 * grid.h, 1.0 + 12.0 * grid.h, size=(k, 2))
    pts[: k // 2] = grid.nodes()[rng.integers(0, n * n, k // 2)]
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    nu = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    v = rng.standard_normal(grid.shape)
    box = _probe_block(grid, pts)
    whole = (slice(0, n), slice(0, n))
    want, clipped = _offset_probe(grid, v, whole, pts, nu)
    masked = np.full(grid.shape, math.nan)
    masked[box] = v[box]
    for values, where in [(masked, whole), (v[box], box)]:
        got, got_clipped = _offset_probe(grid, values, where, pts, nu)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got_clipped, clipped)


def test_save_load_curve_roundtrip(tmp_path):
    u = _radial(201)
    curve = extract_interface(u, u.grid.h)
    path = tmp_path / "curve.csv"
    save_curve(curve, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,nu_x,nu_y,H"
    again = load_curve(path)
    assert again.closed == curve.closed
    assert np.array_equal(again.points, curve.points)
    assert np.array_equal(again.normals, curve.normals)
    assert np.array_equal(again.curvature, curve.curvature)
    assert np.array_equal(again.singular, curve.singular)


def test_interior_support_is_required():
    u = _smooth_u(make_grid((-1.0, -1.0), (1.0, 1.0), 51))
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.5, 0.0, 0.5, 0.3, {(0, 0): 1.0}),
            _bump(0.0, 0.0, 0.3, 0.3, {}),
        ),
    )
    with pytest.raises(ValueError):
        inner_variations(u, spec, _term(), 0.5)


def test_deformation_between_nodes_has_zero_variations():
    # On the h = 0.04 grid the support box (0.005, 0.035)^2 lies strictly
    # inside the domain and holds no node, so every form is an empty sum.
    spec = VectorFieldSpec(
        dim=2,
        components=(
            _bump(0.02, 0.02, 0.015, 0.015, {(0, 0): 0.7, (1, 0): 0.2}),
            _bump(0.02, 0.02, 0.015, 0.015, {(0, 0): -0.4}),
        ),
    )
    term = _term()
    u = _halfplane(51)
    smooth = _smooth_u(u.grid)
    for field, eps in ((u, 0.0), (smooth, 0.1)):
        assert inner_variations(field, spec, term, eps) == (0.0, 0.0)
        assert inner_variation_fd(field, spec, term, eps) == (0.0, 0.0)
    lie = lie_derivative(smooth, spec, 0.1).values
    assert np.all(lie == 0.0) and not np.any(np.signbit(lie))
    empty = extract_interface(smooth, 0.0)
    assert len(empty) == 0
    assert surface_second_variation(u, spec, empty) == 0.0
    assert surface_second_variation(u, spec, extract_interface(u, 0.5 * u.grid.h)) == 0.0


def test_cjk_form_with_empty_curve_is_its_bulk_term():
    u = _halfplane(51)
    phi = ScalarField(grid=u.grid, values=_gauss(u.grid))
    bulk = _phase_bulk(u, phi.values)
    empty = extract_interface(_smooth_u(u.grid), 0.0)
    assert bulk > 0.0 and cjk_form(u, phi, empty) == bulk


# The support boxes below have dyadic edges, so on the h = 1/16 grid some
# nodes lie exactly on them.  The second box ends one node inside the grid
# edge, so the padded stencil blocks are clipped there.
_ON_NODES = VectorFieldSpec(
    dim=2,
    components=(
        _bump(0.0625, -0.125, 0.5625, 0.5, {(0, 0): 0.8, (1, 0): 0.3, (0, 2): -0.4}),
        _bump(0.125, 0.0, 0.5, 0.5625, {(0, 0): -0.5, (1, 1): 0.6, (2, 0): 0.2}),
    ),
)
_NEAR_EDGE = VectorFieldSpec(
    dim=2,
    components=(
        _bump(0.34375, -0.34375, 0.59375, 0.59375, {(0, 0): 0.7, (0, 1): -0.3, (1, 1): 0.4}),
        _bump(0.34375, -0.34375, 0.59375, 0.59375, {(0, 0): 0.2, (1, 0): 0.5, (2, 0): -0.3}),
    ),
)


def _full_grid_variations(u, spec, term, eps):
    """First and second inner variation densities on every node, integrated."""
    g = _cascade(u.values, u.grid.h, u.values > 0.0) if eps == 0.0 else gradient(u)
    e = np.sum(g * g, axis=0) + F_eps(term, eps, u.values)
    xv, jac, hes = tables(spec, u.grid, 2)
    div = np.einsum("...ii->...", jac)
    q1 = np.einsum("i...,j...,...ij->...", g, g, jac)
    q2 = np.einsum("i...,j...,...k,...ijk->...", g, g, xv, hes)
    r3 = np.einsum("i...,j...,...kj,...ik->...", g, g, jac, jac) + np.einsum(
        "i...,j...,...jk,...ik->...", g, g, jac, jac
    )
    xgd = np.einsum("...k,...k->...", xv, np.einsum("...iik->...k", hes))
    second = e * (xgd + div**2) - 4.0 * div * q1 - 2.0 * q2 + 2.0 * r3
    return (
        integrate(ScalarField(grid=u.grid, values=e * div - 2.0 * q1)),
        integrate(ScalarField(grid=u.grid, values=second)),
    )


def _full_grid_surface_bulk(u, spec):
    """2 int_{u>0} |grad L_X u|^2 with every stencil on the whole grid."""
    mask = u.values > 0.0
    pg = _cascade(u.values, u.grid.h, mask)
    lvals = np.sum(pg * np.moveaxis(evaluate(spec, u.grid), -1, 0), axis=0)
    lg = _cascade(lvals, u.grid.h, mask)
    dens = np.where(mask, np.sum(lg * lg, axis=0), 0.0)
    return 2.0 * integrate(ScalarField(grid=u.grid, values=dens))


def _inside_box(grid, spec):
    lo, hi = support_box(spec)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return np.all([(m > a) & (m < b) for m, a, b in zip(mesh, lo, hi)], axis=0)


@pytest.mark.parametrize("spec", [_ON_NODES, _NEAR_EDGE], ids=["on-nodes", "near-edge"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_support_block_crop_matches_the_full_grid(spec, eps):
    term = _term()
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 33)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    s = 0.6 * xm + 0.8 * ym - 0.05
    # Slope 1.5 at eps = 0: at slope 1 the first variation is a sum that
    # cancels to 1e-4 of its terms, and a relative gap would measure that.
    kinked = 1.5 * np.maximum(s, 0.0)
    u = ScalarField(grid=grid, values=kinked if eps == 0.0 else 0.1 * np.logaddexp(0.0, s / 0.1))
    inside = _inside_box(grid, spec)
    assert np.any(inside) and not np.all(inside)
    first, second = _full_grid_variations(u, spec, term, eps)
    assert inner_variations(u, spec, term, eps)[0] == pytest.approx(first, rel=1e-13, abs=0.0)
    assert inner_variations(u, spec, term, eps)[1] == pytest.approx(second, rel=1e-13, abs=0.0)

    lie = lie_derivative(u, spec, eps).values
    g = _cascade(u.values, grid.h, u.values > 0.0) if eps == 0.0 else gradient(u)
    full = np.sum(g * np.moveaxis(evaluate(spec, grid), -1, 0), axis=0)
    assert np.max(np.abs(lie - full)) <= 1e-13 * np.max(np.abs(full))
    off = lie[~inside]
    assert np.all(off == 0.0) and not np.any(np.signbit(off))

    if eps == 0.0:
        empty = extract_interface(u, 10.0)  # no curve term: the bulk alone
        bulk = surface_second_variation(u, spec, empty)
        assert bulk == pytest.approx(_full_grid_surface_bulk(u, spec), rel=1e-13, abs=0.0)


def test_support_block_crop_matches_the_full_grid_1d():
    term = _term()
    grid = make_grid(-1.0, 1.0, 33)
    x = grid.axes()[0]
    u = ScalarField(grid=grid, values=0.1 * np.logaddexp(0.0, (x - 0.05) / 0.1))
    c = np.array([0.6, -0.4, 0.3, 0.0])
    bump = PolyBump(coeffs=c, center=(0.40625,), halfwidths=(0.46875,))
    spec = VectorFieldSpec(dim=1, components=(bump,))
    first, second = _full_grid_variations(u, spec, term, 0.1)
    assert inner_variations(u, spec, term, 0.1)[0] == pytest.approx(first, rel=1e-13, abs=0.0)
    assert inner_variations(u, spec, term, 0.1)[1] == pytest.approx(second, rel=1e-13, abs=0.0)
    lie = lie_derivative(u, spec, 0.1).values
    full = gradient(u)[0] * evaluate(spec, grid)[:, 0]
    assert np.max(np.abs(lie - full)) <= 1e-13 * np.max(np.abs(full))
    off = lie[~_inside_box(grid, spec)]
    assert np.all(off == 0.0) and not np.any(np.signbit(off))
