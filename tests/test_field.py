from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from onephase.field import (
    DomainError,
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    flow,
    gradient,
    hessian,
    integrate,
    interior_mask,
    jacobian,
    laplacian,
    load_field,
    load_vector_spec,
    make_grid,
    max_norm,
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


def test_laplacian_exact_on_quadratics():
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), 41)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    inner = interior_mask(grid)
    lap = laplacian(ScalarField(grid=grid, values=mesh[0] ** 2 + mesh[1] ** 2))
    assert np.all(np.abs(lap.values[inner] - 4.0) < 1e-11)
    assert np.all(lap.values[~inner] == 0.0)
    harm = laplacian(ScalarField(grid=grid, values=mesh[0] ** 2 - mesh[1] ** 2))
    assert np.all(np.abs(harm.values[inner]) < 1e-11)


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
            grid.nodes(),
            np.array([grid.origin, grid.hi]),
        ]
    )
    ours = sample(u, pts)
    ref = RegularGridInterpolator(grid.axes(), values, method="linear")(pts)
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


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
    assert np.all(jacobian(spec, pts) == 0.0)
    assert np.all(hessian(spec, pts) == 0.0)
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
        assert np.array_equal(dx, jacobian(spec, p))
        assert np.array_equal(ddx, hessian(spec, p))
        assert np.array_equal(tables(spec, p, 1)[1], dx)
    # A grid gives the tables of its node list in grid.shape.  In 1D the
    # axis contraction is a matrix-vector product whose last bits may move
    # with the batch size, so allow 2 ulp there.
    for t, ref in zip(tables(spec, grid, 2), tables(spec, grid.nodes(), 2)):
        ref = ref.reshape(t.shape)
        if grid.dim == 2:
            assert np.array_equal(t, ref)
            assert np.array_equal(np.signbit(t), np.signbit(ref))
        else:
            assert np.all(np.abs(t - ref) <= 2 * np.spacing(np.abs(ref)))


def test_analytic_derivatives_match_finite_differences():
    spec = _bump_spec()
    rng = np.random.default_rng(11)
    pts = rng.uniform((-0.8, -0.9), (0.9, 0.7), size=(40, 2))
    assert np.max(np.abs(jacobian(spec, pts) - _fd_jacobian(spec, pts, 1e-5))) < 1e-8
    assert np.max(np.abs(hessian(spec, pts) - _fd_hessian(spec, pts, 1e-5))) < 1e-5
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
    assert np.max(np.abs(jacobian(spec, pts) - _fd_jacobian(spec, pts, 1e-5))) < 1e-8
    assert np.max(np.abs(hessian(spec, pts) - _fd_hessian(spec, pts, 1e-5))) < 1e-5
    assert max_norm(spec) == pytest.approx(0.8, rel=0.1)
    _assert_tables_match_views(spec, pts, make_grid(-0.4, 0.8, 25))


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
