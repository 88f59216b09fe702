from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.field import (
    DomainError,
    _block_gradient,
    _derivative,
    _multilinear,
    _neighbour_sum,
    _neighbours,
    _nodes,
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    flow,
    gradient,
    integrate,
    interior_mask,
    laplacian,
    load_field,
    load_vector_spec,
    make_grid,
    max_norm,
    radial_cone,
    sample,
    save_field,
    save_vector_spec,
    support_box,
    tables,
)


def _linear_field(grid: GridSpec) -> ScalarField:
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return ScalarField(grid=grid, values=3.0 * mesh[0] + 2.0 * mesh[1])


def _bump_spec() -> VectorFieldSpec:
    c0 = np.zeros((4, 4))
    c0[0, 0], c0[1, 0], c0[0, 2], c0[2, 1] = 1.0, 0.5, -0.25, 0.3
    c1 = np.zeros((4, 4))
    c1[0, 0], c1[1, 1], c1[3, 0] = -0.7, 0.4, 0.2
    return VectorFieldSpec(
        dim=2,
        components=(
            PolyBump(coeffs=c0, center=(0.1, -0.15), halfwidths=(0.55, 0.5)),
            PolyBump(coeffs=c1, center=(0.05, -0.1), halfwidths=(0.5, 0.6)),
        ),
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=2, origin=(0.0, 0.0), h=0.1, shape=(2, 5))
    with pytest.raises(ValueError):
        GridSpec(dim=3, origin=(0.0, 0.0, 0.0), h=0.1, shape=(5, 5, 5))
    with pytest.raises(ValueError):
        make_grid((0.0, 0.0), (1.0, 2.0), (11, 11))
    # The node count is checked before it divides the span.
    for n in (1, 2, (11, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need at least 3 nodes"):
                make_grid((0.0, 0.0), (1.0, 1.0), n)
    g = make_grid((0.0, 0.0), (1.0, 2.0), (11, 21))
    assert g.h == pytest.approx(0.1)
    assert g.hi == pytest.approx((1.0, 2.0))


_PB = PolyBump(coeffs=np.zeros((4, 4)), center=(0.0, 0.0), halfwidths=(0.5, 0.5))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GridSpec(dim=2, origin=(0.0,), h=0.1, shape=(3, 3)), "origin and shape must have length dim"),
        (lambda: GridSpec(dim=2, origin=(0.0, 0.0), h=0.1, shape=(3,)), "origin and shape must have length dim"),
        (lambda: GridSpec(dim=1, origin=(0.0,), h=0.0, shape=(3,)), "spacing must be positive, got 0.0"),
        (lambda: GridSpec(dim=1, origin=(0.0,), h=math.nan, shape=(3,)), "spacing must be positive, got nan"),
        # An infinite spacing passed as positive and gave axes [nan, inf, inf].
        (lambda: GridSpec(dim=1, origin=(0.0,), h=math.inf, shape=(3,)),
         r"spacing and origin must be finite, got h = inf, origin = \(0.0,\)"),
        (lambda: GridSpec(dim=2, origin=(0.0, -math.inf), h=0.1, shape=(3, 3)),
         r"spacing and origin must be finite, got h = 0.1, origin = \(0.0, -inf\)"),
        # A nan spacing on a later axis compared False and passed as agreeing.
        (lambda: make_grid((0.0, 0.0), (1.0, math.nan), 3), "axes disagree on spacing"),
        (lambda: make_grid((0.0, 0.0), (math.inf, math.inf), 3), "spacing and origin must be finite, got h = inf"),
        (lambda: make_grid((0.0, 0.0), (1.0,), 3), "lo, hi, n must agree in length"),
        (lambda: make_grid((0.0, 0.0), (1.0, 1.0), (3, 3, 3)), "lo, hi, n must agree in length"),
        (lambda: ScalarField(grid=make_grid(0.0, 1.0, 3), values=[0.0, math.inf, 0.0]), "field values must be finite"),
        (lambda: sample(_linear_field(make_grid((0.0, 0.0), (1.0, 1.0), 3)), [0.5]), "points must have 2 coordinates"),
        (lambda: PolyBump(coeffs=np.zeros((3, 3)), center=(0.0, 0.0), halfwidths=(1.0, 1.0)),
         r"coeffs must have shape \(4, 4\), got \(3, 3\)"),
        (lambda: PolyBump(coeffs=np.full(4, math.nan), center=(0.0,), halfwidths=(1.0,)), "coefficients must be finite"),
        # A nan center or halfwidth gave a nan support box, and the inner variations read 0.0.
        (lambda: PolyBump(coeffs=np.zeros((4, 4)), center=(math.nan, 0.0), halfwidths=(0.5, 0.5)),
         r"center must be finite, got \(nan, 0.0\)"),
        (lambda: PolyBump(coeffs=np.zeros(4), center=(math.inf,), halfwidths=(0.5,)), r"center must be finite, got \(inf,\)"),
        (lambda: PolyBump(coeffs=np.zeros((4, 4)), center=(0.0, 0.0), halfwidths=(math.nan, 0.5)),
         "halfwidths must be finite and positive, one per axis"),
        (lambda: PolyBump(coeffs=np.zeros(4), center=(0.0,), halfwidths=(math.inf,)), "halfwidths must be finite and positive"),
        (lambda: PolyBump(coeffs=np.zeros(4), center=(0.0,), halfwidths=(0.0,)), "halfwidths must be finite and positive,"),
        (lambda: VectorFieldSpec(dim=3, components=(_PB,) * 3), "dim must be 1 or 2, got 3"),
        (lambda: VectorFieldSpec(dim=2, components=(_PB,)), "need exactly one component per axis"),
        (lambda: VectorFieldSpec(dim=1, components=(_PB,)), "component dimension mismatch"),
        (lambda: flow(_bump_spec(), 0.1, [0.0, 0.0], n_steps=0), "n_steps must be >= 1, got 0"),
    ],
)
def test_field_refuses_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_radial_cone_needs_a_2d_grid():
    with pytest.raises(ValueError, match="2D grid"):
        radial_cone(make_grid(-1.0, 1.0, 21), 0.5)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_radial_cone_needs_a_finite_positive_radius(radius):
    # Unchecked, nan gave an all-zero field, inf a field with no positive
    # phase in the box, and 0 and -1 divided by zero or took logs of negatives.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"radius must be finite and positive, got {radius}"):
            radial_cone(make_grid((-1.0, -1.0), (1.0, 1.0), 21), radius)


def test_gradient_exact_on_linear():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    g = gradient(_linear_field(grid))
    assert np.all(g[0] == pytest.approx(3.0, abs=1e-13))
    assert np.all(g[1] == pytest.approx(2.0, abs=1e-13))


def test_gradient_exact_on_quadratic_interior():
    grid = make_grid(0.0, 1.0, 101)
    x = grid.axes()[0]
    g = gradient(ScalarField(grid=grid, values=x * x))
    i = int(np.argmin(np.abs(x - 0.5)))
    assert g[0, i] == pytest.approx(1.0, abs=1e-13)


def test_gradient_error_bound_on_sine():
    grid = make_grid(np.pi / 2 - 0.5, np.pi / 2 + 0.5, 101)
    x = grid.axes()[0]
    g = gradient(ScalarField(grid=grid, values=np.sin(x)))
    err = np.max(np.abs(g[0] - np.cos(x)))
    assert err <= grid.h**2 / 6.0 * 1.01


def test_gradient_is_np_gradient_inside_and_within_4_ulps_on_the_edge():
    # Inside, both take (v[i+1] - v[i-1]) / 2h.  On the edge np.gradient
    # rounds -1.5/h, 2/h and -0.5/h apart, gradient takes (-3v0 + 4v1 - v2)/2h:
    # on 3000 random fields the gap was at most 3 ulps of (3|v0| + 4|v1| + |v2|)/2h.
    rng = np.random.default_rng(5)
    for shape in [(3,), (4,), (17,), (3, 3), (5, 9), (31, 4)]:
        for h in (1.0, 0.013, 2.0**-7):
            grid = make_grid((0.0,) * len(shape), tuple(h * (n - 1) for n in shape), shape)
            v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0)
            got = gradient(ScalarField(grid=grid, values=v))
            for ax in range(len(shape)):
                want = np.moveaxis(np.gradient(v, grid.h, axis=ax, edge_order=2), ax, 0)
                g, w = np.moveaxis(got[ax], ax, 0), np.moveaxis(v, ax, 0)
                assert g[1:-1].tobytes() == want[1:-1].tobytes()
                for k, s in ((0, 1), (-1, -1)):
                    scale = (3.0 * abs(w[k]) + 4.0 * abs(w[k + s]) + abs(w[k + 2 * s])) / (2.0 * grid.h)
                    assert np.all(np.abs(g[k] - want[k]) <= 4.0 * np.spacing(scale))


def test_laplacian_exact_on_quadratics():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    inner = interior_mask(grid)
    lap = laplacian(ScalarField(grid=grid, values=mesh[0] ** 2 + mesh[1] ** 2))
    assert np.all(np.abs(lap.values[inner] - 4.0) < 1e-11)
    assert np.all(lap.values[~inner] == 0.0)
    harm = laplacian(ScalarField(grid=grid, values=mesh[0] ** 2 - mesh[1] ** 2))
    assert np.all(np.abs(harm.values[inner]) < 1e-11)


@pytest.mark.parametrize("shape", [(7,), (6, 9), (5, 4, 6)])
def test_neighbour_sum_of_a_block_is_the_interior_sum_there_bit_for_bit(shape):
    # Red-black blocks (step 2) and the whole interior (step 1) take a
    # node's sum from 0.0 in one order, so an all -0.0 neighbourhood sums
    # to +0.0 in any block, into a fresh array or into a given out.
    rng = np.random.default_rng(len(shape))
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.8] = -0.0
    v[rng.random(shape) < 0.1] = 0.0
    whole = _neighbour_sum(v)
    core = tuple(slice(1, n - 1) for n in shape)
    want = np.zeros(whole.shape)
    for nb in _neighbours(core):
        want = want + v[nb]
    assert np.array_equal(whole.view(np.uint64), want.view(np.uint64))
    assert np.any((whole == 0.0) & ~np.signbit(whole))
    for off in np.ndindex(*(2,) * len(shape)):
        block = tuple(slice(1 + o, n - 1, 2) for o, n in zip(off, shape))
        at = tuple(slice(o, None, 2) for o in off)
        out = np.full(v[block].shape, np.nan)
        got = _neighbour_sum(v, _neighbours(block), out=out)
        assert got is out
        assert np.array_equal(got.view(np.uint64), whole[at].view(np.uint64))


def test_laplacian_second_order_on_harmonic():
    errs = []
    for n in (51, 101):
        grid = make_grid((0.0, 0.0), (1.0, 1.0), n)
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        lap = laplacian(ScalarField(grid=grid, values=np.sin(mesh[0]) * np.sinh(mesh[1])))
        errs.append(np.max(np.abs(lap.values[interior_mask(grid)])))
    assert 3.4 < errs[0] / errs[1] < 4.6


def test_integrate_exact_and_quadrature():
    grid = make_grid((0.0, 0.0), (1.0, 1.0), 21)
    ones = ScalarField(grid=grid, values=np.ones(grid.shape))
    assert integrate(ones) == pytest.approx(1.0, abs=1e-14)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    assert integrate(ScalarField(grid=grid, values=mesh[0] * mesh[1])) == pytest.approx(
        0.25, abs=1e-14
    )
    line = make_grid(0.0, 1.0, 1001)
    x = line.axes()[0]
    val = integrate(ScalarField(grid=line, values=np.sin(np.pi * x)))
    assert val == pytest.approx(2.0 / np.pi, abs=1e-6)


def test_sample_linear_node_and_cell_center():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    u = _linear_field(grid)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.99, 0.99, size=(20, 2))
    exact = 3.0 * pts[:, 0] + 2.0 * pts[:, 1]
    assert np.max(np.abs(sample(u, pts) - exact)) < 1e-13
    assert sample(u, (grid.axes()[0][7], grid.axes()[1][11])) == pytest.approx(
        u.values[7, 11], abs=1e-14
    )
    line = make_grid(0.0, 1.0, 101)
    x = line.axes()[0]
    sq = ScalarField(grid=line, values=x * x)
    center = 0.505
    err = abs(sample(sq, (center,)) - center**2)
    assert err == pytest.approx(line.h**2 / 4.0, rel=1e-9)
    with pytest.raises(DomainError):
        sample(u, (1.5, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_refuses_a_point_that_is_not_finite(bad):
    # A nan coordinate passed both bounds tests and interpolated to nan.
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 21)
    u = _linear_field(grid)
    for p in [(bad, 0.0), (0.0, bad), [(0.1, 0.2), (bad, bad)]]:
        with pytest.raises(DomainError, match="not finite or outside"):
            sample(u, p)
    with pytest.raises(DomainError):
        sample(ScalarField(grid=make_grid(0.0, 1.0, 11), values=np.zeros(11)), (bad,))


@pytest.mark.parametrize(
    "origin, h, shape",
    [((-1.0,), 0.01, (201,)), ((0.1,), 0.5, (3,)), ((-1.0, -1.0), 0.01, (201, 201)),
     ((-0.3, 0.7), 0.0271, (37, 53))],
)
def test_sample_linear_is_bit_identical_to_regular_grid_interpolator(origin, h, shape):
    from scipy.interpolate import RegularGridInterpolator

    grid = GridSpec(dim=len(shape), origin=origin, h=h, shape=shape)
    rng = np.random.default_rng(sum(shape))
    # Signed zeros among the values check the sign of zero sums too.
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    values[rng.random(shape) < 0.1] = -0.0
    u = ScalarField(grid=grid, values=values)
    pts = np.concatenate(
        [
            rng.uniform(grid.origin, grid.hi, size=(20_000, grid.dim)),
            _nodes(grid.axes()),
            np.array([grid.origin, grid.hi]),
        ]
    )
    ours = sample(u, pts)
    ref = RegularGridInterpolator(grid.axes(), values, method="linear")(pts)
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


@st.composite
def _grids_and_blocks(draw):
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 12)) for _ in range(dim))
    origin = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(dim))
    grid = GridSpec(dim=dim, origin=origin, h=draw(st.floats(1e-3, 1.0)), shape=shape)
    block = []
    for n in shape:
        start = draw(st.integers(0, n - 2))
        block.append(slice(start, draw(st.integers(start + 2, n))))
    return grid, tuple(block), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_grids_and_blocks())
def test_sampling_a_block_is_sampling_the_whole_grid_bit_for_bit(case):
    # Points whose cells lie in the block: its nodes, its upper corner and
    # upper edges (where the whole grid takes the next cell at weight 0),
    # and points drawn across its span.
    grid, block, seed = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, *grid.shape)) * np.exp(rng.uniform(-20.0, 20.0, (2, *grid.shape)))
    values[rng.random(values.shape) < 0.1] = -0.0
    axes = [ax[s] for ax, s in zip(grid.axes(), block)]
    lo, hi = [ax[0] for ax in axes], [ax[-1] for ax in axes]
    pts = np.concatenate([
        np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim),
        rng.uniform(lo, hi, size=(50, grid.dim)),
        [hi],
        [[ax[-1] if k == j else x for k, (ax, x) in enumerate(zip(axes, lo))] for j in range(grid.dim)],
    ])
    ours = _multilinear(values[(slice(None), *block)], axes, pts)
    whole = [sample(ScalarField(grid=grid, values=v), pts) for v in values]
    assert np.array_equal(ours.view(np.int64), np.stack(whole).view(np.int64))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_grids_and_blocks(), masked=st.booleans())
def test_block_gradient_is_the_whole_grid_stencil_on_the_block_bit_for_bit(case, masked):
    # Blocks inside the grid and on its edges, with no mask or a random one
    # (thin phases and isolated nodes among them), values with signed zeros.
    grid, block, seed = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) * np.exp(rng.uniform(-20.0, 20.0, grid.shape))
    values[rng.random(grid.shape) < 0.1] = -0.0
    mask = rng.random(grid.shape) < rng.uniform(0.2, 1.0) if masked else None
    whole = np.stack([_derivative(values, grid.h, ax, mask) for ax in range(grid.dim)])
    got = _block_gradient(values, grid.h, block, mask)
    want = whole[(slice(None), *block)]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_vector_spec_rejects_high_degree():
    c = np.zeros((4, 4))
    c[3, 1] = 1.0
    with pytest.raises(ValueError):
        PolyBump(coeffs=c, center=(0.0, 0.0), halfwidths=(0.5, 0.5))
    with pytest.raises(ValueError):
        PolyBump(coeffs=np.zeros((4, 4)), center=(0.0, 0.0), halfwidths=(0.5, 0.0))


def test_vector_field_vanishes_outside_support_box():
    spec = _bump_spec()
    lo, hi = support_box(spec)
    assert lo == pytest.approx((-0.45, -0.7))
    assert hi == pytest.approx((0.65, 0.5))
    pts = np.array([[0.66, 0.0], [-0.46, 0.0], [0.0, 0.51], [0.0, -0.71], [0.9, 0.9]])
    assert np.all(evaluate(spec, pts) == 0.0)
    assert np.all(tables(spec, pts, 1)[1] == 0.0)
    assert np.all(tables(spec, pts, 2)[2] == 0.0)
    assert all(np.all(t == 0.0) for t in tables(spec, pts, 2))
    # Inside the union box but outside the box of one component: that
    # component and its partials vanish exactly, the other one does not.
    for p, off in (((0.6, 0.0), 1), ((0.0, 0.45), 0)):
        x, dx, ddx = tables(spec, np.array(p), 2)
        assert x[off] == 0.0 and np.all(dx[off] == 0.0) and np.all(ddx[off] == 0.0)
        assert x[1 - off] != 0.0
    # A grid whose first row and column lie on the lower edges of the box.
    # There y = (x - center) / w rounds to just inside the bump (x: -1 + 2
    # ulp), so only the box test keeps those nodes at +0.0, not ~1e-63.
    box = VectorFieldSpec(
        dim=2,
        components=tuple(
            dataclasses.replace(c, center=(-0.15, 0.1), halfwidths=(0.3, 0.45))
            for c in spec.components
        ),
    )
    lo, hi = support_box(box)
    grid = GridSpec(dim=2, origin=lo, h=0.05, shape=(15, 21))
    xs, ys = np.meshgrid(*grid.axes(), indexing="ij")
    rim = (xs <= lo[0]) | (xs >= hi[0]) | (ys <= lo[1]) | (ys >= hi[1])
    for t in tables(box, grid, 2):
        assert np.all(t[rim] == 0.0) and not np.any(np.signbit(t[rim]))


def _fd_jacobian(spec, pts, delta):
    out = np.empty((pts.shape[0], spec.dim, spec.dim))
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = delta
        out[:, :, j] = (evaluate(spec, pts + e) - evaluate(spec, pts - e)) / (2 * delta)
    return out


def _fd_hessian(spec, pts, delta):
    out = np.empty((pts.shape[0], spec.dim, spec.dim, spec.dim))
    for j in range(spec.dim):
        ej = np.zeros(spec.dim)
        ej[j] = delta
        for k in range(spec.dim):
            ek = np.zeros(spec.dim)
            ek[k] = delta
            if j == k:
                out[:, :, j, k] = (
                    evaluate(spec, pts + ej)
                    - 2.0 * evaluate(spec, pts)
                    + evaluate(spec, pts - ej)
                ) / delta**2
            else:
                out[:, :, j, k] = (
                    evaluate(spec, pts + ej + ek)
                    - evaluate(spec, pts + ej - ek)
                    - evaluate(spec, pts - ej + ek)
                    + evaluate(spec, pts - ej - ek)
                ) / (4.0 * delta**2)
    return out


def _assert_tables_match_views(spec, pts, grid):
    for p in (pts, pts[0], pts[len(pts) // 2], grid):
        x, dx, ddx = tables(spec, p, 2)
        assert np.array_equal(x, evaluate(spec, p))
        assert np.array_equal(tables(spec, p, 1)[1], dx)
    # A grid gives the tables of its node list in grid.shape, bit for bit:
    # the open mesh runs the same operations per point as the batch.
    for t, ref in zip(tables(spec, grid, 2), tables(spec, _nodes(grid.axes()), 2)):
        ref = ref.reshape(t.shape)
        assert np.array_equal(t, ref)
        assert np.array_equal(np.signbit(t), np.signbit(ref))


def test_analytic_derivatives_match_finite_differences():
    spec = _bump_spec()
    rng = np.random.default_rng(11)
    pts = rng.uniform((-0.8, -0.9), (0.9, 0.7), size=(40, 2))
    assert np.max(np.abs(tables(spec, pts, 1)[1] - _fd_jacobian(spec, pts, 1e-5))) < 1e-8
    assert np.max(np.abs(tables(spec, pts, 2)[2] - _fd_hessian(spec, pts, 1e-5))) < 1e-5
    _assert_tables_match_views(spec, pts, make_grid((-0.8, -0.9), (0.9, 0.7), (18, 17)))
    with pytest.raises(ValueError):
        tables(spec, pts, 3)
    with pytest.raises(ValueError):
        tables(spec, make_grid(-1.0, 1.0, 11), 0)


def test_analytic_derivatives_one_dimensional():
    spec = VectorFieldSpec(
        dim=1,
        components=(
            PolyBump(
                coeffs=np.array([0.8, -0.3, 0.0, 0.1]),
                center=(0.2,),
                halfwidths=(0.4,),
            ),
        ),
    )
    pts = np.linspace(-0.4, 0.8, 25)[:, np.newaxis]
    assert np.max(np.abs(tables(spec, pts, 1)[1] - _fd_jacobian(spec, pts, 1e-5))) < 1e-8
    assert np.max(np.abs(tables(spec, pts, 2)[2] - _fd_hessian(spec, pts, 1e-5))) < 1e-5
    assert max_norm(spec) == pytest.approx(0.8, rel=0.1)
    _assert_tables_match_views(spec, pts, make_grid(-0.4, 0.8, 25))


def _bump_poly(dim: int, k: int) -> dict:
    """(1 - y_k^2)^4 as {exponents: Fraction} in dim variables."""
    return {
        tuple(2 * j * (i == k) for i in range(dim)): Fraction(math.comb(4, j) * (-1) ** j)
        for j in range(5)
    }


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for e, c in p.items():
        for f, d in q.items():
            g = tuple(a + b for a, b in zip(e, f))
            out[g] = out.get(g, 0) + c * d
    return out


def _partial(p: dict, beta) -> dict:
    """D^beta of the polynomial p in y."""
    for k, b in enumerate(beta):
        for _ in range(b):
            p = {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.items() if e[k]}
    return p


def _value(p: dict, y) -> Fraction:
    """p at y, exactly, over one common denominator (no gcd per term)."""
    if not p:
        return Fraction(0)
    top = [max(e[k] for e in p) for k in range(len(y))]
    den = math.lcm(*(c.denominator for c in p.values()))
    num = 0
    for e, c in p.items():
        t = c.numerator * (den // c.denominator)
        for v, n, m in zip(y, e, top):
            t *= v.numerator**n * v.denominator ** (m - n)
        num += t
    return Fraction(num, den * math.prod(v.denominator**m for v, m in zip(y, top)))


def _oracle(comp: PolyBump):
    """x -> {alpha: (D^alpha X, the sum of its absolute terms)}, |alpha| <= 2.

    Rational arithmetic on the float inputs: D^alpha differentiates the
    expanded P(y) prod_k (1 - y_k^2)^4, y = (x - center) / w, exactly.  The
    absolute terms are those of Leibniz's rule, each monomial c y^e of
    D^beta P and of the bump partials taken as |c| |y|^e.
    """
    dim = len(comp.center)
    p = {e: Fraction(float(c)) for e, c in np.ndenumerate(comp.coeffs) if c != 0.0}
    bumps = [_bump_poly(dim, k) for k in range(dim)]
    whole = p
    for b in bumps:
        whole = _times(whole, b)
    table = {}
    for alpha in (a for a in np.ndindex(*(3,) * dim) if sum(a) <= 2):
        terms = []
        for beta in np.ndindex(*(a + 1 for a in alpha)):
            factors = [_partial(p, beta)] + [
                _partial(bump, [(alpha[k] - beta[k]) * (i == k) for i in range(dim)])
                for k, bump in enumerate(bumps)
            ]
            weight = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            terms.append((weight, [{e: abs(c) for e, c in f.items()} for f in factors]))
        scale = math.prod(Fraction(w) ** a for w, a in zip(comp.halfwidths, alpha))
        table[alpha] = (_partial(whole, alpha), terms, scale)

    def at(x) -> dict:
        y = [(Fraction(a) - Fraction(c)) / Fraction(w) for a, c, w in zip(x, comp.center, comp.halfwidths)]
        if any(abs(v) >= 1 for v in y):
            return {a: (Fraction(0), Fraction(0)) for a in table}
        absy = [abs(v) for v in y]
        out = {}
        for alpha, (d, terms, scale) in table.items():
            bound = sum((w * math.prod(_value(f, absy) for f in fs) for w, fs in terms), Fraction(0))
            out[alpha] = (_value(d, y) / scale, bound / scale)
        return out

    return at


@st.composite
def _specs_and_points(draw):
    """A PolyBump spec of total degree <= 3 in 1D or 2D, and points inside
    its bumps, near bump edges and on or near its support_box edges."""
    dim = draw(st.sampled_from((1, 2)))
    coef = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    comps = []
    for _ in range(dim):
        coeffs = np.zeros((4,) * dim)
        for idx in np.ndindex(coeffs.shape):
            if sum(idx) <= 3:
                coeffs[idx] = draw(coef)
        center = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(dim))
        widths = tuple(draw(st.floats(0.1, 1.0)) for _ in range(dim))
        comps.append(PolyBump(coeffs=coeffs, center=center, halfwidths=widths))
    spec = VectorFieldSpec(dim=dim, components=tuple(comps))
    lo, hi = support_box(spec)
    pts = np.empty((8, dim))
    for n, k in np.ndindex(pts.shape):
        comp = comps[draw(st.integers(0, dim - 1))]
        c, w = comp.center[k], comp.halfwidths[k]
        kind = draw(st.sampled_from(("bump", "bump edge", "box edge")))
        if kind == "bump":
            pts[n, k] = c + w * draw(st.floats(-1.0, 1.0))
        elif kind == "bump edge":
            gap = draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-8, 1e-4)))
            pts[n, k] = c + w * draw(st.sampled_from((-1.0, 1.0))) * (1.0 - gap)
        else:
            edge = draw(st.sampled_from((lo[k], hi[k])))
            pts[n, k] = np.nextafter(edge, edge + draw(st.sampled_from((-1.0, 0.0, 1.0))))
    return spec, pts


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_tables_match_an_exact_rational_oracle(data):
    # Within 8 ulps of the sum of the absolute terms, the scale of the
    # rounding error of + - * /.  On 300 random draws of this strategy the
    # worst case was 4.1 ulps.  Points not strictly inside the box get +0.0.
    spec, pts = data.draw(_specs_and_points())
    tabs = tables(spec, pts, 2)
    lo, hi = support_box(spec)
    oracles = [_oracle(comp) for comp in spec.components]
    for n, x in enumerate(pts):
        if not np.all((x > lo) & (x < hi)):
            assert all(np.all(t[n] == 0.0) and not np.any(np.signbit(t[n])) for t in tabs)
            continue
        for i, at in enumerate(oracles):
            for alpha, (exact, bound) in at(x).items():
                got = tabs[sum(alpha)][n][(i, *np.repeat(range(spec.dim), alpha))]
                ulp = Fraction(float(np.spacing(float(bound))))
                assert abs(Fraction(float(got)) - exact) <= 8 * ulp, (alpha, got, exact)


def test_flow_identity_and_frozen_outside_support():
    spec = _bump_spec()
    p = np.array([0.1, -0.1])
    q, J = flow(spec, 0.0, p)
    assert np.array_equal(q, p)
    assert np.array_equal(J, np.eye(2))
    far = np.array([[0.8, 0.8], [-0.9, 0.0], [0.1, 0.5]])
    q, J = flow(spec, 0.5, far)
    assert np.array_equal(q, far)
    assert np.array_equal(J, np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_flow_round_trip():
    spec = _bump_spec()
    rng = np.random.default_rng(7)
    pts = rng.uniform((-0.4, -0.6), (0.6, 0.4), size=(20, 2))
    fwd, j_fwd = flow(spec, 0.1, pts, n_steps=64)
    back, j_back = flow(spec, -0.1, fwd, n_steps=64)
    assert np.max(np.abs(back - pts)) < 1e-10
    assert np.max(np.abs(fwd - pts)) > 1e-3
    # Chain rule over the round trip: D(phi_-t o phi_t) = I.
    assert np.max(np.abs(j_back @ j_fwd - np.eye(2))) < 1e-10
    assert np.max(np.abs(j_fwd - np.eye(2))) > 1e-3


def test_flow_jacobian_matches_differenced_positions():
    spec = _bump_spec()
    rng = np.random.default_rng(3)
    pts = rng.uniform((-0.4, -0.6), (0.6, 0.4), size=(20, 2))
    _, J = flow(spec, 0.3, pts, n_steps=8)
    d = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = d
        plus, _ = flow(spec, 0.3, pts + e, n_steps=8)
        minus, _ = flow(spec, 0.3, pts - e, n_steps=8)
        assert np.max(np.abs(J[:, :, j] - (plus - minus) / (2.0 * d))) < 1e-8


def test_field_csv_round_trip(tmp_path):
    grid = make_grid((0.0, -0.5), (1.0, 0.5), (11, 11))
    rng = np.random.default_rng(5)
    u = ScalarField(grid=grid, values=rng.standard_normal(grid.shape))
    path = tmp_path / "field.csv"
    save_field(u, path)
    v = load_field(path)
    assert np.array_equal(v.values, u.values)
    assert v.grid == u.grid
    assert path.read_text().splitlines()[0] == "i,j,x,y,u"
    assert path.read_text().splitlines()[1] == f"0,0,0,-0.5,{u.values[0, 0]:.17g}"


def test_field_csv_round_trip_1d(tmp_path):
    grid = make_grid(0.0, 1.0, 11)
    u = ScalarField(grid=grid, values=np.linspace(0.0, 2.0, 11) ** 2)
    path = tmp_path / "line.csv"
    save_field(u, path)
    v = load_field(path)
    assert np.array_equal(v.values, u.values)
    assert v.grid == u.grid
    assert path.read_text().splitlines()[0] == "i,x,u"
    assert path.read_text().splitlines()[1] == "0,0,0"


def test_vector_spec_json_round_trip(tmp_path):
    spec = _bump_spec()
    path = tmp_path / "spec.json"
    save_vector_spec(spec, path)
    again = load_vector_spec(path)
    assert again.dim == spec.dim
    for a, b in zip(again.components, spec.components):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.center == b.center
        assert a.halfwidths == b.halfwidths
