"""Uniform-grid scalar fields and closed-form test vector fields.

Scalar fields live on tensor grids with a single spacing h shared by all
axes; discrete calculus (gradient, laplacian, trapezoid quadrature) is
second order.  Vector fields for domain deformations are closed-form: a
polynomial of total degree at most 3 in local coordinates, multiplied by
the compactly supported bump psi(y) = (1 - y^2)^4 per coordinate.  Their
first and second partials are evaluated analytically, never by grid
differencing, so flow-based finite differences can be compared against
exact inner-variation integrands without stencil noise.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .records import from_json, read_json, read_table, to_json, write_json, write_table

__all__ = [
    "DomainError",
    "GridSpec",
    "ScalarField",
    "PolyBump",
    "VectorFieldSpec",
    "make_grid",
    "gradient",
    "laplacian",
    "interior_mask",
    "integrate",
    "sample",
    "tables",
    "evaluate",
    "jacobian",
    "hessian",
    "support_box",
    "max_norm",
    "flow",
    "save_field",
    "load_field",
    "spec_to_json",
    "spec_from_json",
    "save_vector_spec",
    "load_vector_spec",
]

_MAX_TOTAL_DEGREE = 3


class DomainError(ValueError):
    """A point fell outside the grid domain."""


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: nodes at origin + h * (i, j).

    Attributes:
        dim: 1 or 2.
        origin: coordinates of node (0[, 0]).
        h: node spacing, shared by all axes.
        shape: node counts per axis, each at least 3.
    """

    dim: int
    origin: tuple[float, ...]
    h: float
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.origin) != self.dim or len(self.shape) != self.dim:
            raise ValueError("origin and shape must have length dim")
        if not self.h > 0.0:
            raise ValueError(f"spacing must be positive, got {self.h}")
        if any(n < 3 for n in self.shape):
            raise ValueError(f"need at least 3 nodes per axis, got {self.shape}")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(o + self.h * (n - 1) for o, n in zip(self.origin, self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            o + self.h * np.arange(n) for o, n in zip(self.origin, self.shape)
        )

    def nodes(self) -> np.ndarray:
        """All node coordinates, row-major, as an (n_nodes, dim) array."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def make_grid(
    lo: float | Sequence[float], hi: float | Sequence[float], n: int | Sequence[int]
) -> GridSpec:
    """Build a GridSpec covering the box [lo, hi] with n nodes per axis.

    Args:
        lo: lower corner (scalar means 1D).
        hi: upper corner.
        n: node count per axis; scalars broadcast across axes.

    Returns:
        GridSpec whose last node lands on hi.

    Raises:
        ValueError: if an axis has fewer than 3 nodes or the axes would not
            share a common spacing.
    """
    lo_t = tuple(np.atleast_1d(np.asarray(lo, dtype=float)))
    hi_t = tuple(np.atleast_1d(np.asarray(hi, dtype=float)))
    dim = len(lo_t)
    n_t = (n,) * dim if np.isscalar(n) else tuple(int(k) for k in n)
    if len(hi_t) != dim or len(n_t) != dim:
        raise ValueError("lo, hi, n must agree in length")
    if any(k < 3 for k in n_t):
        raise ValueError(f"need at least 3 nodes per axis, got {n_t}")
    spacings = [(b - a) / (k - 1) for a, b, k in zip(lo_t, hi_t, n_t)]
    h = spacings[0]
    if any(abs(s - h) > 1e-12 * abs(h) for s in spacings[1:]):
        raise ValueError(f"axes disagree on spacing: {spacings}")
    return GridSpec(dim=dim, origin=lo_t, h=h, shape=n_t)


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarField:
    """Grid plus one finite value per node, row-major."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)


def gradient(u: ScalarField) -> np.ndarray:
    """Second-order gradient, centered inside and one-sided at the boundary.

    Args:
        u: field on a grid with at least 3 nodes per axis.

    Returns:
        Array of shape (dim, *grid.shape); component k is the derivative
        along axis k.
    """
    g = np.gradient(u.values, u.grid.h, edge_order=2)
    if u.grid.dim == 1:
        return np.asarray(g)[np.newaxis, :]
    return np.stack(g, axis=0)


def _neighbour_sum(v: np.ndarray, block: tuple[slice, ...] | None = None) -> np.ndarray:
    """Sum of the 2*dim axis neighbours of the interior nodes of v in block.

    block holds one slice per axis with explicit start >= 1, stop <= n - 1
    and step 1 or 2; the default is the whole interior.  A slice moved by
    one node selects the neighbours of every node it held, so the laplacian
    (step 1) and a red-black colour block (step 2) share this sum.  It is
    accumulated from zero as + lower + upper per axis for every block, so a
    node's sum has the same bits whichever block it is taken in.
    """
    if block is None:
        block = tuple(slice(1, n - 1) for n in v.shape)

    def moved(ax: int, k: int) -> tuple[slice, ...]:
        return tuple(
            slice(b.start + k, b.stop + k, b.step) if i == ax else b
            for i, b in enumerate(block)
        )

    acc = np.zeros_like(v[block])
    for ax in range(v.ndim):
        acc += v[moved(ax, -1)]
        acc += v[moved(ax, 1)]
    return acc


def laplacian(u: ScalarField) -> ScalarField:
    """5-point (3-point in 1D) laplacian; boundary nodes are set to 0.

    Use interior_mask to tell genuine zeros from the flagged boundary.
    """
    v = u.values
    out = np.zeros_like(v)
    core = (slice(1, -1),) * u.grid.dim
    out[core] = (_neighbour_sum(v) - 2.0 * u.grid.dim * v[core]) / u.grid.h**2
    return ScalarField(grid=u.grid, values=out)


def interior_mask(grid: GridSpec) -> np.ndarray:
    """Boolean array marking nodes not on the grid boundary."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = True
    return mask


def _shift(a: np.ndarray, k: int, axis: int, fill) -> np.ndarray:
    """Shift so that out[i] = a[i + k] along axis, padding with fill."""
    if k == 0:
        return a
    out = np.full_like(a, fill)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if k > 0:
        src[axis], dst[axis] = slice(k, None), slice(None, -k)
    else:
        src[axis], dst[axis] = slice(None, k), slice(-k, None)
    out[tuple(dst)] = a[tuple(src)]
    return out


def integrate(u: ScalarField) -> float:
    """Tensor-product trapezoid rule over the whole grid domain."""
    acc = u.values
    for _ in range(u.grid.dim):
        acc = np.trapezoid(acc, dx=u.grid.h, axis=-1)
    return float(acc)


def _multilinear(u: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation, bit for bit scipy's RegularGridInterpolator.

    Cell index and weight per axis follow scipy's find_indices: the cell is
    the last node <= x, clipped to the last cell, so the upper corner lands
    in the last cell at weight 1.  The corner products are formed and summed
    in the order of scipy's linear kernels, starting from a 0.0 accumulator
    as they do (it turns a sum of -0.0 terms into +0.0).
    """
    idx, wts = [], []
    for ax, x in zip(u.grid.axes(), pts.T):
        i = np.clip(np.searchsorted(ax, x, "right") - 1, 0, len(ax) - 2)
        idx.append(i)
        wts.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    v = u.values
    if u.grid.dim == 1:
        (i,), (y,) = idx, wts
        return 0.0 + v[i] * (1 - y) + v[i + 1] * y
    (i0, i1), (y0, y1) = idx, wts
    return (
        0.0
        + v[i0, i1] * (1 - y0) * (1 - y1)
        + v[i0, i1 + 1] * (1 - y0) * y1
        + v[i0 + 1, i1] * y0 * (1 - y1)
        + v[i0 + 1, i1 + 1] * y0 * y1
    )


def _snap_inside(grid: GridSpec, pts: np.ndarray) -> np.ndarray:
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.hi)
    tol = 1e-9 * grid.h
    if np.any(pts < lo - tol) or np.any(pts > hi + tol):
        bad = pts[np.any((pts < lo - tol) | (pts > hi + tol), axis=-1)]
        raise DomainError(f"point outside grid domain: {bad[:1]!r}")
    return np.clip(pts, lo, hi)


def sample(u: ScalarField, p: Iterable[float] | np.ndarray) -> float | np.ndarray:
    """Interpolate u multilinearly at one point or a batch of points.

    Args:
        u: field to sample.
        p: point of shape (dim,) or batch of shape (n, dim).

    Returns:
        Scalar for a single point, 1D array for a batch.

    Raises:
        DomainError: if any point lies outside the grid domain.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != u.grid.dim:
        raise ValueError(f"points must have {u.grid.dim} coordinates")
    vals = _multilinear(u, _snap_inside(u.grid, pts))
    return float(vals[0]) if single else vals


@dataclasses.dataclass(frozen=True, eq=False)
class PolyBump:
    """One vector-field component: polynomial times per-coordinate bump.

    In local coordinates y = (x - center) / halfwidths the component reads
    P(y) * prod_k (1 - y_k^2)^4 for |y_k| < 1 and 0 outside.  coeffs[a, b]
    multiplies y_1^a y_2^b (one index in 1D); total degree is capped at 3.
    """

    coeffs: np.ndarray
    center: tuple[float, ...]
    halfwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        dim = len(self.center)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (_MAX_TOTAL_DEGREE + 1,) * dim:
            raise ValueError(f"coeffs must have shape {(4,) * dim}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        degree = np.indices(c.shape).sum(axis=0)
        if np.any(c[degree > _MAX_TOTAL_DEGREE] != 0.0):
            raise ValueError("total degree above 3 is not admitted")
        if len(self.halfwidths) != dim or any(w <= 0 for w in self.halfwidths):
            raise ValueError("halfwidths must be positive, one per axis")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "halfwidths", tuple(float(v) for v in self.halfwidths))


@dataclasses.dataclass(frozen=True, eq=False)
class VectorFieldSpec:
    """Closed-form deformation field: one PolyBump per coordinate axis."""

    dim: int
    components: tuple[PolyBump, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.components) != self.dim:
            raise ValueError("need exactly one component per axis")
        for comp in self.components:
            if len(comp.center) != self.dim:
                raise ValueError("component dimension mismatch")
        object.__setattr__(self, "components", tuple(self.components))


# Row a of _DIFF @ (1, y, y^2, y^3) is d/dy y^a = a * y^(a - 1).
_DIFF = np.diag([1.0, 2.0, 3.0], k=-1)


def _axis_factors(y: np.ndarray, order: int) -> list[np.ndarray]:
    """Tables g[m][a] = d^m/dy^m [y^a psi(y)] for m <= order, shape (4, n).

    Every derivative of psi = q^4, q = 1 - y^2, carries a factor q, so
    setting q = 0 for |y| >= 1 zeroes all rows outside the bump.
    """
    q = np.where(np.abs(y) < 1.0, 1.0 - y * y, 0.0)
    q2 = q * q
    psi = [q2 * q2]
    if order >= 1:
        psi.append(-8.0 * y * q2 * q)
    if order >= 2:
        psi.append(8.0 * q2 * (7.0 * y * y - 1.0))
    pw = np.stack([np.ones_like(y), y, y * y, y * y * y])
    g = [pw * psi[0]]
    for m in range(1, order + 1):
        # Leibniz rule for the m-th derivative of the product y^a * psi.
        g.append(
            sum(
                math.comb(m, r) * (np.linalg.matrix_power(_DIFF, r) @ pw) * psi[m - r]
                for r in range(m + 1)
            )
        )
    return g


def tables(spec: VectorFieldSpec, p, order: int) -> list[np.ndarray]:
    """X and its exact partials up to the given order, in one pass.

    Component i is P_i(y) * prod_k psi(y_k) with y = (x - center) / w, so
    D^alpha X^i = sum_ab c_ab g_a^(alpha_1)(y_1) g_b^(alpha_2)(y_2) / w^alpha
    with the per-axis tables g of _axis_factors, built on one coordinate
    array per axis: a batch's columns, or a grid's open mesh (np.ix_) so
    that each axis node is tabled once and the axes combine by
    broadcasting.  Points not strictly inside support_box(spec) get +0.0.

    Args:
        spec: deformation field.
        p: point (dim,), batch (..., dim), or GridSpec of dimension dim.
        order: highest derivative order, 0, 1 or 2.

    Returns:
        [X, DX, D2X][:order + 1] with X[i] = X^i, DX[i, j] = dX^i/dx_j and
        D2X[i, j, k] = d^2 X^i / dx_j dx_k, each behind the leading axes
        lead: () for a point, (...) for a batch, grid.shape for a grid.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    dim = spec.dim
    if isinstance(p, GridSpec):
        coords = np.ix_(*p.axes())
    else:
        coords = tuple(np.moveaxis(np.asarray(p, dtype=float), -1, 0))
    if len(coords) != dim:
        raise ValueError(f"points must have {dim} coordinates, got {len(coords)}")
    # Box-edge nodes can round to |y| < 1, where psi is ~1e-63, not 0: mask them.
    lo, hi = support_box(spec)
    inside = True
    for x, a, b in zip(coords, lo, hi):
        inside = inside & (x > a) & (x < b)
    out = [np.empty(inside.shape + (dim,) * (k + 1)) for k in range(order + 1)]
    for i, comp in enumerate(spec.components):
        w = np.asarray(comp.halfwidths)
        g = []
        for x, c, wk in zip(coords, comp.center, w):
            flat = _axis_factors(((x - c) / wk).ravel(), order)
            g.append([t.reshape((4,) + x.shape) for t in flat])
        parts: dict[tuple[int, ...], np.ndarray] = {}
        for k in range(order + 1):
            for idx in np.ndindex(*(dim,) * k):
                der = tuple(idx.count(ax) for ax in range(dim))
                if der not in parts:
                    val = comp.coeffs.T @ g[0][der[0]].reshape(4, -1)
                    val = val.reshape(val.shape[:-1] + coords[0].shape)
                    if dim == 2:
                        val = np.sum(val * g[1][der[1]], axis=0)
                    parts[der] = np.where(inside, val / np.prod(w**der), 0.0)
                out[k][(..., i) + idx] = parts[der]
    return out


def evaluate(spec: VectorFieldSpec, p) -> np.ndarray:
    """X at p, of shape lead + (dim,); p (a GridSpec too) and lead as in tables."""
    return tables(spec, p, 0)[0]


def jacobian(spec: VectorFieldSpec, p) -> np.ndarray:
    """Exact J[i, j] = dX^i/dx_j at p, of shape lead + (dim, dim); see tables."""
    return tables(spec, p, 1)[1]


def hessian(spec: VectorFieldSpec, p) -> np.ndarray:
    """Exact d^2 X^i / dx_j dx_k at p, of shape lead + (dim,) * 3; see tables."""
    return tables(spec, p, 2)[2]


def support_box(spec: VectorFieldSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Smallest box outside which X and all its partials vanish."""
    lo = [
        min(c.center[k] - c.halfwidths[k] for c in spec.components)
        for k in range(spec.dim)
    ]
    hi = [
        max(c.center[k] + c.halfwidths[k] for c in spec.components)
        for k in range(spec.dim)
    ]
    return tuple(lo), tuple(hi)


def max_norm(spec: VectorFieldSpec, n: int = 65) -> float:
    """Sampled estimate of sup |X| (componentwise max over a support lattice)."""
    lo, hi = support_box(spec)
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return float(np.max(np.abs(evaluate(spec, pts))))


def flow(
    spec: VectorFieldSpec, t: float, p, n_steps: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Flow map phi_t of X and its Jacobian J = Dphi_t at p.

    q integrates dq/dt = X(q) and J the variational equation
    dJ/dt = DX(q) J, J(0) = I, on the same RK4 stages, so J is the exact
    derivative of the discrete map p -> q.

    Args:
        spec: deformation field.
        t: flow time, any sign.
        p: starting point (dim,) or batch (n, dim).
        n_steps: RK4 step count, at least 1.

    Returns:
        (q, J): end point(s) of the shape of p, and J of shape
        p.shape + (dim,) with J[..., i, j] = dq^i/dp_j.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    q = pts.copy()
    jac = np.broadcast_to(np.eye(pts.shape[-1]), pts.shape + pts.shape[-1:]).copy()
    # Points outside the support box are fixed points of the flow and of
    # every RK4 stage (X = 0 and DX = 0 there), so they keep q = p and J = I
    # and only the inside batch is advanced.
    lo, hi = support_box(spec)
    moving = np.all((pts > np.asarray(lo)) & (pts < np.asarray(hi)), axis=-1)
    qm, jm = q[moving], jac[moving]

    def rates(qs, js):
        x, dx = tables(spec, qs, 1)
        return x, dx @ js

    dt = t / n_steps
    for _ in range(n_steps):
        k1, l1 = rates(qm, jm)
        k2, l2 = rates(qm + 0.5 * dt * k1, jm + 0.5 * dt * l1)
        k3, l3 = rates(qm + 0.5 * dt * k2, jm + 0.5 * dt * l2)
        k4, l4 = rates(qm + dt * k3, jm + dt * l3)
        qm = qm + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        jm = jm + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    q[moving], jac[moving] = qm, jm
    return (q[0], jac[0]) if single else (q, jac)


def save_field(u: ScalarField, path: str | Path) -> None:
    """Write a field as a `records` table with the grid as its sidecar.

    2D rows are "i,j,x,y,u" in row-major node order; 1D rows are "i,x,u".
    The node indices are written as integers.
    """
    dim = u.grid.dim
    index = np.indices(u.grid.shape).reshape(dim, -1)
    coords = [a.ravel() for a in np.meshgrid(*u.grid.axes(), indexing="ij")]
    rows = np.column_stack([*index, *coords, u.values.ravel()])
    header = ",".join(["i", "j"][:dim] + ["x", "y"][:dim] + ["u"])
    fmt = ["%d"] * dim + ["%.17g"] * (dim + 1)
    write_table(path, header, rows, to_json(u.grid), fmt)


def load_field(path: str | Path) -> ScalarField:
    """Read a field written by save_field."""
    rows, sidecar = read_table(path)
    grid = from_json(GridSpec, sidecar)
    return ScalarField(grid=grid, values=rows[:, -1].reshape(grid.shape))


def spec_to_json(spec: VectorFieldSpec) -> dict:
    return to_json(spec)


def spec_from_json(payload: dict) -> VectorFieldSpec:
    comps = tuple(from_json(PolyBump, entry) for entry in payload["components"])
    return from_json(VectorFieldSpec, {**payload, "components": comps})


def save_vector_spec(spec: VectorFieldSpec, path: str | Path) -> None:
    write_json(path, spec_to_json(spec))


def load_vector_spec(path: str | Path) -> VectorFieldSpec:
    return spec_from_json(read_json(path))
