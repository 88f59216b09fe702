"""Uniform-grid scalar fields and closed-form test vector fields.

Scalar fields live on tensor grids with a single spacing h shared by all
axes; discrete calculus (gradient, laplacian, trapezoid quadrature) is
second order.  Vector fields for domain deformations are closed-form: a
polynomial of total degree at most 3 in local coordinates, multiplied by
the compactly supported bump psi(y) = (1 - y^2)^4 per coordinate.  Their
first and second partials are exact, never grid differences: Leibniz's
rule combines Horner sums of the polynomial's partials with products of
psi, psi' and psi'', in + - * / alone.  So flow-based finite differences
can be compared against exact inner-variation integrands without stencil
noise.  `halfplane` and `radial_cone` are the exact one-phase solutions.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .records import (
    _read_last_column,
    _write_grid_table,
    from_json,
    read_json,
    to_json,
    write_json,
)

__all__ = [
    "DomainError",
    "GridSpec",
    "ScalarField",
    "halfplane",
    "radial_cone",
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
    """A point was not finite or fell outside the grid domain."""


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
        return _nodes(self.axes())


def _nodes(axes: Iterable[np.ndarray]) -> np.ndarray:
    """The tensor grid of the axes, row-major, as an (n_nodes, dim) array."""
    mesh = np.meshgrid(*axes, indexing="ij")
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


def _column_field(grid: GridSpec, column: np.ndarray) -> ScalarField:
    """The field on grid that is column along its last axis, tiled across the rest."""
    return ScalarField(grid=grid, values=np.broadcast_to(column, grid.shape).copy())


def halfplane(grid: GridSpec) -> ScalarField:
    """The half-plane solution max(y, 0) on grid, y its last coordinate."""
    return _column_field(grid, np.maximum(grid.axes()[-1], 0.0))


def radial_cone(grid: GridSpec, radius: float) -> ScalarField:
    """R log(r/R) outside r = R = radius, 0 inside; ValueError unless grid is 2D
    and radius finite and positive."""
    if grid.dim != 2:
        raise ValueError("radial fields need a 2D grid")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    rr = np.sqrt(xm**2 + ym**2)
    vals = np.where(rr > radius, radius * np.log(np.maximum(rr, 1e-300) / radius), 0.0)
    return ScalarField(grid=grid, values=vals)


def _derivative(v: np.ndarray, h: float, axis: int, mask: np.ndarray | None = None) -> np.ndarray:
    """The library's one difference stencil: d v / d x_axis, reading mask nodes only.

    The array edge bounds the mask; None means every node.  Centered where both
    neighbours are in the mask, else one-sided toward the upper neighbour if it
    is in, the lower if not: second order where that side holds two mask nodes,
    first order where it holds one.  0 on isolated nodes and off the mask.  The
    one-sided forms run only on the mask's edge nodes (the end slabs for None).
    """
    w = np.moveaxis(v, axis, 0)
    n = len(w)
    out = np.empty(v.shape)
    o = np.moveaxis(out, axis, 0)
    np.subtract(w[2:], w[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    if mask is None and n >= 3:
        o[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
        o[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
        return out
    m = np.moveaxis(np.ones(v.shape, dtype=bool) if mask is None else mask, axis, 0)
    np.copyto(o, 0.0, where=~m)
    edge = m.copy()
    edge[1:-1] &= ~(m[2:] & m[:-2])
    i, *rest = np.nonzero(edge)
    at = [(i + k, np.clip(i + k, 0, n - 1)) for k in (-2, -1, 0, 1, 2)]
    mm, m1, _, p1, pp = [(k == j) & m[(j, *rest)] for k, j in at]
    vmm, vm, v0, vp, vpp = [w[(j, *rest)] for _, j in at]
    o[(i, *rest)] = np.select(
        [p1 & pp, p1, m1 & mm, m1],
        [(-3.0 * v0 + 4.0 * vp - vpp) / (2.0 * h), (vp - v0) / h,
         (3.0 * v0 - 4.0 * vm + vmm) / (2.0 * h), (v0 - vm) / h],
    )
    return out


def gradient(u: ScalarField) -> np.ndarray:
    """Second-order gradient, centered inside and one-sided at the boundary.

    Args:
        u: field on a grid with at least 3 nodes per axis.

    Returns:
        Array of shape (dim, *grid.shape); component k is _derivative along
        axis k.
    """
    return np.stack([_derivative(u.values, u.grid.h, ax) for ax in range(u.grid.dim)])


def _neighbours(block: tuple[slice, ...]) -> tuple[tuple[slice, ...], ...]:
    """The 2*dim slices that select the axis neighbours of the nodes of block.

    block holds one slice per axis with explicit start >= 1, stop <= n - 1
    and step 1 or 2.  The slice moved by one node down, then up, along each
    axis in turn selects the lower, then upper neighbour of every node it
    held, so the laplacian (step 1) and a red-black colour block (step 2)
    share them.
    """
    return tuple(
        tuple(
            slice(b.start + k, b.stop + k, b.step) if i == ax else b
            for i, b in enumerate(block)
        )
        for ax in range(len(block))
        for k in (-1, 1)
    )


def _neighbour_sum(
    v: np.ndarray,
    neighbours: tuple[tuple[slice, ...], ...] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of the 2*dim axis neighbours of the nodes of one block of v.

    neighbours are the slices of _neighbours(block); the default block is
    the whole interior.  The sum is written into out when given.  It is
    accumulated from 0.0 as + lower + upper per axis for every block, so a
    node's sum has the same bits, and the same sign of zero, whichever
    block it is taken in.
    """
    if neighbours is None:
        neighbours = _neighbours(tuple(slice(1, n - 1) for n in v.shape))
    if out is None:
        out = np.zeros(v[neighbours[0]].shape)
    else:
        out[...] = 0.0
    for nb in neighbours:
        out += v[nb]
    return out


def laplacian(u: ScalarField) -> ScalarField:
    """5-point (3-point in 1D) laplacian; boundary nodes are set to 0.

    Use interior_mask to tell genuine zeros from the flagged boundary.
    """
    v = u.values
    out = np.zeros_like(v)
    core = (slice(1, -1),) * u.grid.dim
    out[core] = (_neighbour_sum(v) - 2.0 * u.grid.dim * v[core]) / (u.grid.h * u.grid.h)
    return ScalarField(grid=u.grid, values=out)


def interior_mask(grid: GridSpec) -> np.ndarray:
    """Boolean array marking nodes not on the grid boundary."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = True
    return mask


def _span(k: int, n: int) -> tuple[slice, slice]:
    """Slices (dst, src) of an axis of n nodes that pair node i with i + k;
    both are empty when |k| >= n."""
    k = max(-n, min(k, n))
    return slice(max(-k, 0), n - max(k, 0)), slice(max(k, 0), n + min(k, 0))


def _integral(dens: np.ndarray, grid: GridSpec, region) -> float:
    """Trapezoid rule of the grid field that is dens on region and zero off it.

    region holds one slice per axis with explicit start and stop.  A node
    weighs h per axis, h / 2 on the grid edge, and the weighted nodes are
    added by one np.sum: the only quadrature of grid fields.
    """
    for ax, (s, n) in enumerate(zip(region, grid.shape)):
        edge = [k - s.start for k in sorted({0, n - 1}) if s.start <= k < s.stop]
        if edge:
            dens = dens.copy()
            dens[(slice(None),) * ax + (edge,)] *= 0.5
    return math.prod([grid.h] * grid.dim) * float(np.sum(dens))


def integrate(u: ScalarField) -> float:
    """Trapezoid rule over the whole grid domain, by _integral."""
    return _integral(u.values, u.grid, tuple(slice(0, n) for n in u.grid.shape))


def _box(idx, pad: int, shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Bounding box of a node set, one index array per axis, grown by pad and clipped to shape."""
    return tuple(
        slice(max(int(i.min()) - pad, 0), min(int(i.max()) + pad + 1, n)) for i, n in zip(idx, shape)
    )


def _multilinear(v: np.ndarray, axes: Sequence[np.ndarray], pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation, bit for bit scipy's RegularGridInterpolator.

    v holds node values on a block, behind any leading component axes, and
    axes are the block's slices of grid.axes().  Cell index and weight per
    axis follow scipy's find_indices: the cell is the last node <= x,
    clipped to the last cell, so the upper corner lands in the last cell at
    weight 1.  As scipy's linear kernels do, each corner value is multiplied
    by its axis weights in axis order and the corners are summed in binary
    order from 0.0 (which turns a -0.0 sum into +0.0).  So a point whose
    cell lies in the block gets the bits of the whole grid.
    """
    idx, wts = [], []
    for ax, x in zip(axes, pts.T):
        i = np.clip(np.searchsorted(ax, x, "right") - 1, 0, len(ax) - 2)
        idx.append(i)
        wts.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(idx)):
        term = v[(..., *(i + c for i, c in zip(idx, corner)))]
        for c, y in zip(corner, wts):
            term = term * (y if c else 1 - y)
        out = out + term
    return out


def _snap_inside(grid: GridSpec, pts: np.ndarray) -> np.ndarray:
    lo, hi = np.asarray(grid.origin), np.asarray(grid.hi)
    tol = 1e-9 * grid.h
    inside = np.all((pts >= lo - tol) & (pts <= hi + tol), axis=-1)
    if not np.all(inside):
        raise DomainError(f"point not finite or outside grid domain: {pts[~inside][:1]!r}")
    return np.clip(pts, lo, hi)


def sample(u: ScalarField, p: Iterable[float] | np.ndarray) -> float | np.ndarray:
    """Interpolate u multilinearly at one point or a batch of points.

    Args:
        u: field to sample.
        p: point of shape (dim,) or batch of shape (n, dim).

    Returns:
        Scalar for a single point, 1D array for a batch.

    Raises:
        DomainError: if a point is not finite or lies outside the grid domain.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != u.grid.dim:
        raise ValueError(f"points must have {u.grid.dim} coordinates")
    vals = _multilinear(u.values, u.grid.axes(), _snap_inside(u.grid, pts))
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

    @functools.cached_property
    def _partials(self) -> dict[tuple[int, ...], list]:
        """The nonzero D^beta P in x, |beta| <= 2, as _horner's nested lists."""
        out = {}
        for beta in filter(lambda b: sum(b) <= 2, np.ndindex(*(3,) * len(self.center))):
            c = self.coeffs
            for ax, (d, w) in enumerate(zip(beta, self.halfwidths)):
                for _ in range(d):
                    c = np.moveaxis(c, ax, -1)[..., 1:] * (np.arange(1.0, c.shape[ax]) / w)
                    c = np.moveaxis(c, -1, ax)
            if c.any():
                out[beta] = _nested(c)
        return out


def _nested(c: np.ndarray) -> list:
    """c as nested lists of floats, trailing zeros dropped on every axis."""
    n = 1 + max(np.flatnonzero(c if c.ndim == 1 else c.any(axis=1)), default=0)
    return c[:n].tolist() if c.ndim == 1 else [_nested(row) for row in c[:n]]


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


def _contract(c, g) -> np.ndarray:
    """sum_a c[a] * g[a], accumulated from a = 0 in plain products: a matrix
    product's last bits would depend on the BLAS kernel the CPU selects."""
    acc = c[0] * g[0]
    for a in range(1, len(g)):
        acc = acc + c[a] * g[a]
    return acc


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrices of arrays, matrix axes first, in plain products (see _contract)."""
    return np.array([[_contract(row, b[:, j]) for j in range(len(b))] for row in a])


def _horner(c: list, ys, out: np.ndarray | None = None) -> np.ndarray | float:
    """sum_ab c[a][b] ys[0]^a ys[1]^b (c[a] ys[0]^a in 1D) by Horner's rule: each
    row c[a] is on the last axis alone (axis work on an open mesh), then the
    sum over a is taken in place in out."""
    rows = [_horner(row, ys[1:]) if isinstance(row, list) else row for row in c]
    acc = rows.pop()
    for row in reversed(rows):
        acc = np.multiply(acc, ys[0], out=out)
        acc += row
    return acc


def tables(spec: VectorFieldSpec, p, order: int) -> list[np.ndarray]:
    """X and its exact partials up to the given order, in one pass.

    Component i is P(y) B(y), B = prod_k psi(y_k), y = (x - center) / w, and
    D^alpha X^i = sum_beta binom(alpha, beta) D^beta P D^(alpha - beta) B:
    psi, psi' and psi'' per axis from q = 1 - y^2 by products, D^beta P by
    Horner's rule on PolyBump._partials, in + - * / alone (no BLAS kernel or
    CPU dispatch sets the bits).  A batch's columns or a grid's open mesh
    (np.ix_) broadcast with the same operations per point, so a grid tables
    each axis node once.  Points not strictly inside support_box get +0.0.

    Args:
        spec: deformation field.
        p: point (dim,), batch (..., dim), or GridSpec of dimension dim.
        order: highest derivative order, 0, 1 or 2.

    Returns:
        [X, DX, D2X][:order + 1] with X[i] = X^i, DX[i, j] = dX^i/dx_j and
        D2X[i, j, k] = d^2 X^i / dx_j dx_k, each behind the leading axes
        lead: () for a point, (...) for a batch, grid.shape for a grid.
    """
    on_grid = isinstance(p, GridSpec)
    coords = np.ix_(*p.axes()) if on_grid else tuple(np.moveaxis(np.asarray(p, dtype=float), -1, 0))
    out = _tables(spec, coords, order)
    return [np.moveaxis(t, range(k + 1), range(-k - 1, 0)) for k, t in enumerate(out)]


def _tables(spec: VectorFieldSpec, coords, order: int) -> list[np.ndarray]:
    """tables on one coordinate array per axis, arrays that broadcast together;
    the component axes lead, so X[i], DX[i, j] and D2X[i, j, k] are arrays."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    dim = spec.dim
    if len(coords) != dim:
        raise ValueError(f"points must have {dim} coordinates, got {len(coords)}")
    # A coordinate not strictly inside the box moves to a - (b - a), where each
    # |y| > 1 and psi = 0: box-edge nodes would round to psi ~ 1e-63, not 0.
    lo, hi = support_box(spec)
    coords = [np.where((x > a) & (x < b), x, a - (b - a)) for x, a, b in zip(coords, lo, hi)]
    shape = np.broadcast_shapes(*(x.shape for x in coords))
    out = [np.empty((dim,) * (k + 1) + shape) for k in range(order + 1)]
    # Partials in an order that puts each after those below it; shared scratch.
    ders = [a for a in np.ndindex(*(order + 1,) * dim) if sum(a) <= order]
    term, work = np.empty(shape), np.empty((len(ders),) + shape)
    for i, comp in enumerate(spec.components):
        ys = [(x - c) / w for x, c, w in zip(coords, comp.center, comp.halfwidths)]
        # psi[k][m] = d^m/dx_k^m psi(y_k): psi = q^4, q = 1 - y^2 clipped at 0,
        # so each carries a factor q; 1/w^m is folded into the constants.
        psi = []
        for y, w in zip(ys, comp.halfwidths):
            yy = y * y
            q = np.maximum(1.0 - yy, 0.0)
            q2 = q * q
            rows = (lambda: q2 * q2, lambda: (-8.0 / w) * y * q2 * q,
                    lambda: (8.0 / (w * w)) * q2 * (7.0 * yy - 1.0))
            psi.append([row() for row in rows[: order + 1]])
        polys = {}  # a zero partial has no entry and adds no term
        for j, der in enumerate(ders):
            if der in comp._partials:
                polys[der] = _horner(comp._partials[der], ys, work[j, ...])
            slot = out[sum(der)][(i, *(ax for ax, d in enumerate(der) for _ in range(d)), ...)]
            slot[...] = 0.0  # summed from +0.0, so an entry that is +-0 is +0.0
            for beta in (b for b in polys if all(x <= y for x, y in zip(b, der))):
                p, f = polys[beta], psi[0][der[0] - beta[0]]
                # A constant times an axis factor stays an axis array on a grid.
                acc = p * f if isinstance(p, float) else np.multiply(p, f, out=term)
                for ax in range(1, dim):
                    acc = np.multiply(acc, psi[ax][der[ax] - beta[ax]], out=term)
                if (2, 1) in zip(der, beta):  # the binomial coefficient 2
                    acc *= 2.0
                slot += acc
    if order == 2 and dim == 2:
        out[2][:, 1, 0] = out[2][:, 0, 1]
    return out


def evaluate(spec: VectorFieldSpec, p) -> np.ndarray:
    """X at p, of shape lead + (dim,); p (a GridSpec too) and lead as in tables."""
    return tables(spec, p, 0)[0]


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


def max_norm(spec: VectorFieldSpec) -> float:
    """Sampled sup |X|: the componentwise max over 65 nodes per axis of support_box."""
    lo, hi = support_box(spec)
    pts = _nodes(np.linspace(a, b, 65) for a, b in zip(lo, hi))
    return float(np.max(np.abs(evaluate(spec, pts))))


def flow(
    spec: VectorFieldSpec, t: float, p, n_steps: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Flow map phi_t of X and its Jacobian J = Dphi_t at p.

    q integrates dq/dt = X(q) and J the variational equation
    dJ/dt = DX(q) J, J(0) = I, on the same RK4 stages, so J is the exact
    derivative of the discrete map p -> q.  Every point is advanced: X and
    DX are exact zeros at a point not strictly inside support_box (see
    tables), so such a point keeps q = p and J = I through every stage.

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
    # The RK4 stages run component-major, as _tables does: q[i], J[i, j].
    q = np.atleast_2d(pts).T
    jac = np.eye(len(q))[:, :, np.newaxis].repeat(q.shape[1], axis=2)

    def rates(qs, js):
        x, dx = _tables(spec, tuple(qs), 1)
        return x, _matmul(dx, js)

    dt = t / n_steps
    for _ in range(n_steps):
        k1, l1 = rates(q, jac)
        k2, l2 = rates(q + 0.5 * dt * k1, jac + 0.5 * dt * l1)
        k3, l3 = rates(q + 0.5 * dt * k2, jac + 0.5 * dt * l2)
        k4, l4 = rates(q + dt * k3, jac + dt * l3)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        jac = jac + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    q, jac = q.T, np.moveaxis(jac, -1, 0)
    return (q[0], jac[0]) if pts.ndim == 1 else (q, jac)


def save_field(u: ScalarField, path: str | Path) -> None:
    """Write a field as a `records` table with the grid as its sidecar.

    2D rows are "i,j,x,y,u" in row-major node order; 1D rows are "i,x,u".
    The node indices are written as integers.
    """
    header = ",".join(["i", "j"][: u.grid.dim] + ["x", "y"][: u.grid.dim] + ["u"])
    _write_grid_table(path, header, u.grid.axes(), u.values, to_json(u.grid))


def load_field(path: str | Path) -> ScalarField:
    """Read a field written by save_field; only the value column is parsed."""
    values, sidecar = _read_last_column(path)
    grid = from_json(GridSpec, sidecar)
    return ScalarField(grid=grid, values=values.reshape(grid.shape))


def spec_to_json(spec: VectorFieldSpec) -> dict:
    return to_json(spec)


def spec_from_json(payload: dict) -> VectorFieldSpec:
    comps = tuple(from_json(PolyBump, entry) for entry in payload["components"])
    return from_json(VectorFieldSpec, {**payload, "components": comps})


def save_vector_spec(spec: VectorFieldSpec, path: str | Path) -> None:
    write_json(path, spec_to_json(spec))


def load_vector_spec(path: str | Path) -> VectorFieldSpec:
    return spec_from_json(read_json(path))
