"""Inner variations of the phase energy and free-boundary surface forms.

For a compactly supported deformation field X with flow phi_t, the inner
variations are the t-derivatives of t -> I_eps(u(phi_t^{-1}(x))) at t = 0.
They are computed two independent ways: analytic formulas contracting
grad u with the exact derivatives of X, and finite differences of the
transported energy, the same integral moved onto u's nodes by the change
of variables x = phi_t(y).  At eps = 0 the potential term degenerates to the
indicator of the positive phase and gradients are taken one-sidedly
inside it, so the kink along the free boundary never enters a stencil.
The surface forms re-express the second variation of a classical
free-boundary solution as a bulk integral over the positive phase minus
a curvature-weighted integral along the extracted interface polyline.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .field import (
    GridSpec,
    ScalarField,
    VectorFieldSpec,
    _box,
    _contract,
    _derivative,
    _integral,
    _matmul,
    _multilinear,
    _nodes,
    _tables,
    flow,
    max_norm,
    support_box,
)
from .potentials import F_eps, ReactionTerm
from .records import read_table, write_table

__all__ = [
    "NotClassicalSolutionError",
    "VariationReport",
    "InterfaceCurve",
    "lie_derivative",
    "inner_variations",
    "inner_variation_fd",
    "classical_second_variation",
    "extract_interface",
    "surface_second_variation",
    "cjk_form",
    "variation_report",
    "save_curve",
    "load_curve",
]

# Offsets (in grid spacings) at which interface quantities are probed
# inside the positive phase before linear extrapolation back to the
# curve; both stay clear of the one-cell band of polluted stencils.
_PROBE_NEAR = 3.0
_PROBE_FAR = 5.0
# A vertex whose extrapolated curvature exceeds this many inverse grid
# spacings is below the resolvable radius and flagged singular.
_SINGULAR_CURVATURE = 10.0
# RK4 steps per dt in the FD oracle; the +-2dt maps continue the +-dt
# trajectories, so all four maps share one step size.  Two is the fewest
# that keeps the map's own error below the stencil's dt^4 term: with one
# step the measured order of the 5-point derivatives on smooth 1D fields
# (dt = 0.1, 0.05, 0.025) drops to 1.5, with two it is 3.86, and more steps
# raise it by less than 0.02.
_FD_STEPS = 2
# Nodes the one-sided stencils of _derivative read on each side of a node.
_REACH = 2
# Marching-squares segments of a cell by its case s00 + 2*s10 + 4*s11 + 8*s01
# (s marks nodes above the level), as pairs of cell edges 0-3 = S, E, N, W
# padded with -1.  The saddle rows 5 and 10 join the corners above the level
# through the cell centre; a saddle whose centre is not above takes the other.
_CASES = np.array([
    [-1, -1, -1, -1], [0, 3, -1, -1], [0, 1, -1, -1], [3, 1, -1, -1],
    [1, 2, -1, -1], [0, 1, 2, 3], [0, 2, -1, -1], [2, 3, -1, -1],
    [2, 3, -1, -1], [0, 2, -1, -1], [0, 3, 1, 2], [1, 2, -1, -1],
    [3, 1, -1, -1], [0, 1, -1, -1], [0, 3, -1, -1], [-1, -1, -1, -1],
])


class NotClassicalSolutionError(ValueError):
    """The field fails the |grad u| = 1 trace check on the interface."""


@dataclasses.dataclass(frozen=True)
class VariationReport:
    """Matched analytic and finite-difference variation values.

    Attributes:
        first_analytic: first inner variation by the contraction formula.
        second_analytic: second inner variation by the contraction formula.
        first_fd: first derivative of the transported energy.
        second_fd: second derivative of the transported energy.
        dt: step used for the finite differences.
        classical_second: quadratic form 2*int(|grad phi|^2 + f_eps'(u)phi^2)
            at phi = L_X u, or None when eps = 0.
        surface_second: bulk-minus-curve form of the second variation, or
            None when no interface curve was supplied.
    """

    first_analytic: float
    second_analytic: float
    first_fd: float
    second_fd: float
    dt: float
    classical_second: float | None = None
    surface_second: float | None = None

    def __post_init__(self) -> None:
        for name in ("first_analytic", "second_analytic", "first_fd", "second_fd"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("classical_second", "surface_second"):
            val = getattr(self, name)
            if val is not None and not np.isfinite(val):
                raise ValueError(f"{name} must be finite when present")


@dataclasses.dataclass(frozen=True, eq=False)
class InterfaceCurve:
    """Ordered polyline along a level set, with per-vertex geometry.

    Attributes:
        points: vertex coordinates, shape (n, 2), consecutive vertices
            joined by straight edges (plus a closing edge when closed).
        normals: unit normals -grad u/|grad u|, pointing out of the
            positive phase, shape (n, 2).
        curvature: div(grad u/|grad u|) extrapolated to each vertex.
        singular: vertices whose curvature exceeds the grid resolution
            cutoff; curve quadratures skip them.
        closed: whether the polyline is a loop.
    """

    points: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    singular: np.ndarray
    closed: bool

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        nus = np.asarray(self.normals, dtype=float).reshape(-1, 2)
        kap = np.asarray(self.curvature, dtype=float).reshape(-1)
        sng = np.asarray(self.singular, dtype=bool).reshape(-1)
        if not (len(pts) == len(nus) == len(kap) == len(sng)):
            raise ValueError("per-vertex arrays disagree in length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(kap))):
            raise ValueError("curve data must be finite")
        if len(nus) and np.max(np.abs(np.linalg.norm(nus, axis=1) - 1.0)) > 1e-9:
            raise ValueError("normals must be unit vectors")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nus)
        object.__setattr__(self, "curvature", kap)
        object.__setattr__(self, "singular", sng)

    def __len__(self) -> int:
        return len(self.points)


def _require_interior_support(u: ScalarField, spec: VectorFieldSpec) -> None:
    if spec.dim != u.grid.dim:
        raise ValueError(f"X has dim {spec.dim}, field has dim {u.grid.dim}")
    lo, hi = support_box(spec)
    glo, ghi = u.grid.origin, u.grid.hi
    if any(a <= b for a, b in zip(lo, glo)) or any(a >= b for a, b in zip(hi, ghi)):
        raise ValueError("support of X must lie strictly inside the grid domain")


def _support_block(grid: GridSpec, spec: VectorFieldSpec) -> tuple[slice, ...] | None:
    """Per-axis slices of the nodes strictly inside support_box(spec).

    Off this block X and all its partials are exactly zero, and so is every
    variation density.  None when no node lies inside.
    """
    lo, hi = support_box(spec)
    block = []
    for ax, a, b in zip(grid.axes(), lo, hi):
        start, stop = int(np.searchsorted(ax, a, "right")), int(np.searchsorted(ax, b, "left"))
        if start >= stop:
            return None
        block.append(slice(start, stop))
    return tuple(block)


def _grow(block: tuple[slice, ...], reach: int, shape: tuple[int, ...]) -> tuple[slice, ...]:
    """block grown by reach nodes per side, clipped at the grid edge."""
    return tuple(
        slice(max(s.start - reach, 0), min(s.stop + reach, n)) for s, n in zip(block, shape)
    )


def _within(block: tuple[slice, ...], outer: tuple[slice, ...]) -> tuple[slice, ...]:
    """block as a component index into an array holding the outer block."""
    return (slice(None),) + tuple(
        slice(s.start - o.start, s.stop - o.start) for s, o in zip(block, outer)
    )


def _block_tables(spec: VectorFieldSpec, grid: GridSpec, block, order: int) -> list[np.ndarray]:
    """tables(spec, grid, order) on the block's nodes only, component axes first."""
    return _tables(spec, np.ix_(*(ax[s] for ax, s in zip(grid.axes(), block))), order)


def _block_gradient(u: ScalarField, block, phase: bool) -> np.ndarray:
    """The gradient of u on block, shape (dim, *block).

    _derivative runs on the block grown by _REACH nodes per side, so each
    block node reads the neighbours it reads on the whole grid.  Its mask is
    {u > 0} when phase, else every node: then the stencil is centered off
    the grid edge and second-order one-sided on it, as gradient is.
    """
    ext = _grow(block, _REACH, u.grid.shape)
    v = u.values[ext]
    mask = v > 0.0 if phase else None
    g = np.stack([_derivative(v, u.grid.h, ax, mask) for ax in range(v.ndim)])
    return g[_within(block, ext)]


def lie_derivative(u: ScalarField, spec: VectorFieldSpec, eps: float) -> ScalarField:
    """Derivative of u along X: node-wise <grad u, X>.

    grad u is the gradient the inner variations read: on the phase {u > 0} at
    eps = 0, so no stencil crosses the free boundary, else gradient(u).

    Args:
        u: field to differentiate.
        spec: deformation field on the same dimension.
        eps: nonnegative scale; 0 selects the phase gradient.

    Returns:
        ScalarField on the grid of u, +0.0 off the support block of X.
    """
    if spec.dim != u.grid.dim:
        raise ValueError(f"X has dim {spec.dim}, field has dim {u.grid.dim}")
    vals = np.zeros(u.grid.shape)
    block = _support_block(u.grid, spec)
    if block is not None:
        xv = _block_tables(spec, u.grid, block, 0)[0]
        g = _block_gradient(u, block, phase=eps == 0.0)
        vals[block] = _contract(g, xv)
    return ScalarField(grid=u.grid, values=vals)


def inner_variations(
    u: ScalarField, spec: VectorFieldSpec, term: ReactionTerm, eps: float
) -> tuple[float, float]:
    """First and second t-derivatives at t=0 of the energy of u(phi_t^{-1}).

    Both integrands contract g = grad u and e = |g|^2 + F_eps(u) with the
    exact derivatives of X, and are summed on the nodes strictly inside
    support_box(spec), off which they vanish.  The first is
    e div X - 2 g.(DX g); the second is e div(X div X) plus
    2 div X (L_X inverse-metric)(du, du) plus (L_X^2 inverse-metric)(du, du).

    Args:
        u: field, any smoothness (eps = 0 admits kinked fields).
        spec: deformation field, supported strictly inside the domain.
        term: reaction term.
        eps: nonnegative scale; 0 selects the indicator potential.

    Returns:
        (first, second) inner variations.
    """
    _require_interior_support(u, spec)
    block = _support_block(u.grid, spec)
    if block is None:
        return 0.0, 0.0
    g = _block_gradient(u, block, phase=eps == 0.0)
    e = _contract(g, g) + F_eps(term, eps, u.values[block])
    xv, jac, hes = _block_tables(spec, u.grid, block, 2)
    dims = range(u.grid.dim)
    div = sum(jac[i, i] for i in dims)
    graddiv = [sum(hes[i, i, k] for i in dims) for k in dims]
    jg = [_contract(jac[i], g) for i in dims]  # J g
    jtg = [_contract(g, jac[:, j]) for j in dims]  # J^T g
    q1 = _contract(g, jg)  # g_i g_j d_j X^i
    hx = [[_contract(hes[i, j], xv) for j in dims] for i in dims]  # X^k d_jk X^i
    q2 = _contract(g, [_contract(hx[i], g) for i in dims])
    r3 = _contract(jg, jtg) + _contract(jtg, jtg)
    first = e * div - 2.0 * q1
    second = e * (_contract(xv, graddiv) + div**2) - 4.0 * div * q1 - 2.0 * q2 + 2.0 * r3
    return _integral(first, u.grid, block), _integral(second, u.grid, block)


def inner_variation_fd(
    u: ScalarField,
    spec: VectorFieldSpec,
    term: ReactionTerm,
    eps: float,
    dt: float | None = None,
) -> tuple[float, float]:
    """Finite-difference oracle for both inner variations.

    The change of variables x = phi_t(y) turns I_eps(u(phi_t^{-1})) into
    the transported energy

        g(t) = int (|J_t^{-T} grad u|^2 + F_eps(u)) det J_t dy,  J_t = Dphi_t,

    an integral over u's own nodes with nothing resampled.  J_t comes from
    flow at the nodes strictly inside support_box(spec); every other node
    keeps J_t = I and its density, so only that block is summed.  g is
    taken at t in {-2dt, ..., 2dt}, the +-2dt maps continuing the +-dt
    trajectories, and the 5-point central first and second derivatives at
    0 are returned, each accurate to O(dt^4).

    g shares the node gradient and the quadrature of inner_variations, so
    the oracle checks that its formulas are the t-derivatives of the same
    discrete integral.  It does not check the discretisation of a deformed
    field; the classical_second_variation identity and the solver
    acceptance tests cover that.

    Args:
        u: field to deform.
        spec: deformation field, supported strictly inside the domain.
        term: reaction term.
        eps: nonnegative scale.
        dt: differencing step; None picks 1e-2 * support width / max |X|.

    Returns:
        (first, second) derivative estimates; the step actually used is
        recoverable from the default rule or the caller's dt.

    Raises:
        ValueError: if dt is not finite and positive, or the flow map folds
            at +-dt or +-2dt (det J_t <= 0 or not finite at some node).
    """
    _require_interior_support(u, spec)
    if dt is None:
        dt = default_fd_step(spec)
    elif not 0.0 < dt < np.inf:
        raise ValueError(f"dt = {dt} is not a finite positive step")
    grid = u.grid
    block = _support_block(grid, spec)
    if block is None:
        return 0.0, 0.0
    g = _block_gradient(u, block, phase=eps == 0.0)
    pot = F_eps(term, eps, u.values[block])
    e0 = _contract(g, g) + pot
    nodes = _nodes(ax[s] for ax, s in zip(grid.axes(), block))

    def change(jac: np.ndarray) -> float:
        """g(t) - g(0) for the Jacobians J_t[i, j] of the block nodes.

        det J_t is the closed form and J_t^{-T} grad u comes from Cramer's
        rule, in plain products: no LAPACK kernel chosen by the CPU sets
        their bits.
        """
        jac = jac.reshape(jac.shape[:2] + e0.shape)
        if grid.dim == 1:
            det = jac[0, 0]
        else:
            (j00, j01), (j10, j11) = jac
            det = j00 * j11 - j01 * j10
        if not np.all(np.isfinite(det) & (det > 0.0)):
            raise ValueError(
                f"dt = {dt} folds the flow map (min det J = {np.min(det):.3g}); "
                "pick a smaller dt"
            )
        if grid.dim == 1:
            a = [g[0] / det]
        else:
            a = [(g[0] * j11 - j10 * g[1]) / det, (j00 * g[1] - j01 * g[0]) / det]
        return _integral((_contract(a, a) + pot) * det - e0, grid, block)

    vals = {0: 0.0}
    for sign in (-1, 1):
        # flow returns views of component-major arrays; moving the node
        # axis back last restores them without a copy.
        q, jac = flow(spec, sign * dt, nodes, _FD_STEPS)
        jac = np.moveaxis(jac, 0, -1)
        vals[sign] = change(jac)
        step = np.moveaxis(flow(spec, sign * dt, q, _FD_STEPS)[1], 0, -1)
        vals[2 * sign] = change(_matmul(step, jac))
    first = (vals[-2] - 8.0 * vals[-1] + 8.0 * vals[1] - vals[2]) / (12.0 * dt)
    second = (
        -vals[-2] + 16.0 * vals[-1] - 30.0 * vals[0] + 16.0 * vals[1] - vals[2]
    ) / (12.0 * (dt * dt))
    return first, second


def default_fd_step(spec: VectorFieldSpec) -> float:
    """Differencing step 1e-2 * (support width) / max |X|."""
    lo, hi = support_box(spec)
    width = min(b - a for a, b in zip(lo, hi))
    mx = max_norm(spec)
    return 1e-2 * width / mx if mx > 0.0 else 1e-2 * width


def classical_second_variation(
    u: ScalarField, phi: ScalarField, term: ReactionTerm, eps: float
) -> float:
    """Second variation of the energy in the function direction phi.

    Computes 2 * integral of |grad phi|^2 + f_eps'(u) phi^2 where
    f_eps'(t) = f'(t/eps)/eps^2.  At a critical point this equals the
    second inner variation along any X with phi = L_X u.  The density is
    formed, with the gradient and quadrature of the inner variations, on
    the box of phi's nonzero nodes grown by _REACH, off which it vanishes.

    Args:
        u: background field.
        phi: direction, zero on the two outermost node layers.
        term: reaction term.
        eps: positive scale.

    Returns:
        The quadratic form value.

    Raises:
        ValueError: on grid mismatch, eps <= 0, or phi touching the collar.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if phi.grid != u.grid:
        raise ValueError("phi must live on the grid of u")
    collar = np.ones(u.grid.shape, dtype=bool)
    collar[(slice(2, -2),) * u.grid.dim] = False
    if np.any(phi.values[collar] != 0.0):
        raise ValueError("phi must vanish on the boundary collar")
    nodes = np.nonzero(phi.values)
    if not len(nodes[0]):
        return 0.0
    region = _box(nodes, _REACH, u.grid.shape)
    g = _block_gradient(phi, region, phase=False)
    curv = term.fprime(u.values[region] / eps) / (eps * eps)
    dens = _contract(g, g) + curv * phi.values[region] ** 2
    return 2.0 * _integral(dens, u.grid, region)


def _clip_inside(grid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp points into the grid box; second output flags moved points."""
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.hi)
    clipped = np.clip(pts, lo, hi)
    moved = np.any(np.abs(clipped - pts) > 1e-12 * grid.h, axis=-1)
    return clipped, moved


def _offset_probe(
    grid: GridSpec, v: np.ndarray, box, pts: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear extrapolation of node values v, given on box, from two in-phase probes.

    Samples at p - 3h*nu and p - 5h*nu (inside the positive phase, clear
    of interface-polluted stencils) and extrapolates back to p.  Probes
    that leave the grid are clamped and flagged.  box must hold every node
    the probes read, as _probe_block(grid, pts) does.
    """
    axes = [ax[s] for ax, s in zip(grid.axes(), box)]
    near, fn = _clip_inside(grid, pts - _PROBE_NEAR * grid.h * nu)
    far, ff = _clip_inside(grid, pts - _PROBE_FAR * grid.h * nu)
    ratio = _PROBE_NEAR / (_PROBE_FAR - _PROBE_NEAR)
    v_near, v_far = _multilinear(v, axes, near), _multilinear(v, axes, far)
    return v_near + ratio * (v_near - v_far), fn | ff


def _probe_block(grid: GridSpec, pts: np.ndarray) -> tuple[slice, ...]:
    """Per-axis slices holding every node read by a sample within _PROBE_FAR h of pts:
    the box of the cells of pts, clipped into the grid as clamped probes are, padded
    by _PROBE_FAR + 2, as a sample reads nodes i and i + 1 of its cell i, and one
    more node absorbs the rounding of i."""
    cells = np.floor((pts - np.asarray(grid.origin)) / grid.h)
    cells = np.clip(cells, 0, np.asarray(grid.shape) - 2).astype(int)
    return _box(cells.T, int(_PROBE_FAR) + 2, grid.shape)


def extract_interface(u: ScalarField, level: float) -> InterfaceCurve:
    """Longest level-set polyline of u with per-vertex normal and curvature.

    Marching squares links the crossing points of {u = level} into
    chains; the longest chain (by arc length) is returned.  Cell (i, j)
    has case s00 + 2*s10 + 4*s11 + 8*s01, where s_ab marks node
    (i + a, j + b) above the level.  A saddle (case 5 or 10) joins its two
    corners above the level when the cell centre is above it too, and
    separates them otherwise.  Edges have integer ids: the edge from node
    (i, j) to (i + 1, j), the south edge of cell (i, j), is i*ny + j, and
    the edge to (i, j + 1), its west edge, is nh + i*(ny - 1) + j with
    nh = (nx - 1)*ny.  Normals come
    from -grad u/|grad u| probed inside the positive phase; curvature is
    div(grad u/|grad u|) probed at two offsets along the inward normal
    and extrapolated back to the vertex, so stencils never straddle the
    interface kink.

    Args:
        u: 2D field.
        level: finite contour value; a level outside the field range (or a
            constant field) yields an empty curve.

    Returns:
        InterfaceCurve; empty when the level set is empty.
    """
    if u.grid.dim != 2:
        raise ValueError("interface extraction requires a 2D field")
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    grid = u.grid
    v = u.values
    h = grid.h
    s = (v > level).astype(np.uint8)
    case = s[:-1, :-1] + 2 * s[1:, :-1] + 4 * s[1:, 1:] + 8 * s[:-1, 1:]
    i, j = np.nonzero((case > 0) & (case < 15))
    if len(i) == 0:
        return InterfaceCurve(
            points=np.empty((0, 2)),
            normals=np.empty((0, 2)),
            curvature=np.empty(0),
            singular=np.empty(0, dtype=bool),
            closed=False,
        )
    case = case[i, j]
    saddle = (case == 5) | (case == 10)
    si, sj = i[saddle], j[saddle]
    centre = 0.25 * (v[si, sj] + v[si + 1, sj] + v[si + 1, sj + 1] + v[si, sj + 1])
    case[saddle] ^= np.where(centre > level, np.uint8(0), np.uint8(15))
    nx, ny = grid.shape
    nh = (nx - 1) * ny
    south, west = i * ny + j, nh + i * (ny - 1) + j
    cell_edges = np.stack([south, west + ny - 1, south + 1, west], axis=1)
    local = _CASES[case]
    # Segment ends a0, b0, a1, b1, ... in cell order.
    ends = np.take_along_axis(cell_edges, np.maximum(local, 0), axis=1)[local >= 0]
    adj: dict[int, list[int]] = {}
    for a, b in ends.reshape(-1, 2).tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen: set[int] = set()
    chains = []
    for e in [e for e in adj if len(adj[e]) == 1] + list(adj):
        chain = []
        while e not in seen:
            seen.add(e)
            chain.append(e)
            e = next((f for f in adj[e] if f not in seen), e)
        if chain:
            chains.append(chain)

    # Each crossing lies at origin + h*(node + theta*step), step the unit
    # vector along its edge from node (ia, ja).
    path = np.concatenate(chains)
    horiz = path < nh
    ia, ja = np.where(horiz, np.divmod(path, ny), np.divmod(path - nh, ny - 1))
    va = v[ia, ja]
    theta = (level - va) / (v[ia + horiz, ja + ~horiz] - va)
    along = np.where(np.stack([horiz, ~horiz], axis=1), theta[:, None], 0.0)
    pts = np.asarray(grid.origin) + h * (np.stack([ia, ja], axis=1) + along)
    d = np.diff(pts, axis=0)
    ds = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    bounds = np.cumsum([0] + [len(c) for c in chains])
    arclen = [np.sum(ds[a:b - 1]) for a, b in zip(bounds[:-1], bounds[1:])]
    k = int(np.argmax(arclen))
    best = chains[k]
    points = pts[bounds[k]:bounds[k + 1]]
    closed = len(best) >= 3 and best[0] in adj[best[-1]]

    # The probes read the probe block only.  The gradient, its floor and the
    # curvature are formed and sampled on ext around it, where each block node
    # reads the neighbours it reads on the whole grid.
    ext = _grow(_probe_block(grid, points), _REACH, grid.shape)
    axes = [ax[s] for ax, s in zip(grid.axes(), ext)]
    g = _block_gradient(u, ext, phase=False)
    norm = np.sqrt(np.sum(g * g, axis=0))
    floor = 1e-14 * (float(np.max(norm)) + 1e-300)
    nhat = np.where(norm > floor, g / np.maximum(norm, floor), 0.0)
    kappa = _derivative(nhat[0], h, 0) + _derivative(nhat[1], h, 1)

    raw = _multilinear(g, axes, points).T
    seed = -raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), floor)
    probe, moved = _clip_inside(grid, points - _PROBE_NEAR * h * seed)
    refined = _multilinear(g, axes, probe).T
    rnorm = np.linalg.norm(refined, axis=1, keepdims=True)
    degenerate = rnorm[:, 0] <= floor
    normals = np.where(
        degenerate[:, None], [1.0, 0.0], -refined / np.maximum(rnorm, floor)
    )
    curv, clipped = _offset_probe(grid, kappa, ext, points, normals)
    singular = (
        moved | degenerate | clipped | (np.abs(curv) > _SINGULAR_CURVATURE / h)
    )
    return InterfaceCurve(
        points=points,
        normals=normals,
        curvature=curv,
        singular=singular,
        closed=closed,
    )


def _curve_quadrature(curve: InterfaceCurve, vertex_vals: np.ndarray) -> float:
    """Trapezoid rule of a per-vertex integrand along the polyline.

    Contributions of singular vertices are dropped, restricting the
    integral to the regular part of the interface.
    """
    pts = curve.points
    vals = np.where(curve.singular, 0.0, vertex_vals)
    if len(pts) < 2:
        return 0.0
    if curve.closed:
        pts = np.concatenate([pts, pts[:1]])
        vals = np.concatenate([vals, vals[:1]])
    # Lengths in plain products: a BLAS norm's last bit depends on its kernel.
    d = np.diff(pts, axis=0)
    ds = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    # Summed from 0.0 in order, not pairwise as np.sum adds, like a segment loop.
    return float(np.cumsum(np.concatenate([[0.0], 0.5 * (vals[:-1] + vals[1:]) * ds]))[-1])


def _cjk(u: ScalarField, phi: np.ndarray, box, curve: InterfaceCurve) -> float:
    """int_{u>0} |grad phi|^2 dx - int_curve H phi^2 ds, phi node values zero off box.

    Reads phi on {u > 0} only: by the phase gradient, and by curve probes
    inside the phase extrapolated to the interface, clipped probes giving 0.
    """
    grid = u.grid
    mask = u.values > 0.0
    # grad phi reaches _REACH nodes past box; its stencil reads as far again.
    region = _grow(box, _REACH, grid.shape)
    ext = _grow(region, _REACH, grid.shape)
    g = np.stack([_derivative(phi[ext], grid.h, ax, mask[ext]) for ax in range(grid.dim)])
    g = g[_within(region, ext)]
    bulk = _integral(np.where(mask[region], _contract(g, g), 0.0), grid, region)
    if not len(curve):
        return bulk
    v, clipped = _offset_probe(grid, phi, (slice(None),) * grid.dim, curve.points, curve.normals)
    return bulk - _curve_quadrature(curve, curve.curvature * np.where(clipped, 0.0, v) ** 2)


def surface_second_variation(
    u: ScalarField, spec: VectorFieldSpec, curve: InterfaceCurve
) -> float:
    """Second variation of a classical free-boundary solution, surface form.

    Returns 2 * [int_{u>0} |grad L_X u|^2 dx - int_curve H (L_X u)^2 ds].
    The bulk gradient is one-sided inside the positive phase; the curve
    integrand is probed inside the phase and extrapolated to the
    interface, excluding singular vertices.

    Args:
        u: classical solution field (harmonic in its positive phase with
            unit gradient along the interface).
        spec: deformation field, supported strictly inside the domain.
        curve: interface polyline extracted from u.

    Returns:
        The surface-form second variation.

    Raises:
        NotClassicalSolutionError: if |grad u| strays from 1 along the
            curve by more than 5e-2.
    """
    _require_interior_support(u, spec)
    grid = u.grid
    if len(curve):
        # The trace reads the phase gradient of u on the probe block only.
        box = _probe_block(grid, curve.points)
        pg = _block_gradient(u, box, phase=True)
        trace, clipped = _offset_probe(
            grid, np.sqrt(np.sum(pg * pg, axis=0)), box, curve.points, curve.normals
        )
        ok = curve.singular | clipped
        worst = float(np.max(np.where(ok, 0.0, np.abs(trace - 1.0))))
        if worst > 5e-2:
            raise NotClassicalSolutionError(
                f"|grad u| strays from 1 by {worst:.4f} on the interface"
            )
    block = _support_block(grid, spec)
    if block is None:
        return 0.0
    return 2.0 * _cjk(u, lie_derivative(u, spec, 0.0).values, block, curve)


def cjk_form(u: ScalarField, phi: ScalarField, curve: InterfaceCurve) -> float:
    """Stability form int_{u>0} |grad phi|^2 dx - int_curve H phi^2 ds.

    Args:
        u: solution field defining the positive phase.
        phi: test function on the grid of u, read on {u > 0} only.
        curve: interface polyline extracted from u.

    Returns:
        The form value; negative values witness instability.
    """
    if phi.grid != u.grid:
        raise ValueError("phi must live on the grid of u")
    return _cjk(u, phi.values, tuple(slice(0, n) for n in u.grid.shape), curve)


def variation_report(
    u: ScalarField,
    spec: VectorFieldSpec,
    term: ReactionTerm,
    eps: float,
    dt: float | None = None,
    curve: InterfaceCurve | None = None,
) -> VariationReport:
    """Bundle analytic, finite-difference, and quadratic-form variations.

    Args:
        u: field under deformation.
        spec: deformation field.
        term: reaction term.
        eps: nonnegative scale.
        dt: finite-difference step; None picks the default rule.
        curve: optional interface polyline; when given (eps = 0 fields),
            the surface form is evaluated as well.

    Returns:
        VariationReport; classical_second is filled for eps > 0 with
        phi = L_X u, surface_second when a curve is supplied.
    """
    if dt is None:
        dt = default_fd_step(spec)
    first_a, second_a = inner_variations(u, spec, term, eps)
    first_fd, second_fd = inner_variation_fd(u, spec, term, eps, dt)
    classical = None
    if eps > 0.0:
        classical = classical_second_variation(u, lie_derivative(u, spec, eps), term, eps)
    surface = None
    if curve is not None:
        surface = surface_second_variation(u, spec, curve)
    return VariationReport(
        first_analytic=first_a,
        second_analytic=second_a,
        first_fd=first_fd,
        second_fd=second_fd,
        dt=dt,
        classical_second=classical,
        surface_second=surface,
    )


def save_curve(curve: InterfaceCurve, path: str | Path) -> None:
    """Write an interface polyline as a `records` table with a topology sidecar.

    Rows are "x,y,nu_x,nu_y,H" in chain order.
    """
    rows = np.column_stack([curve.points, curve.normals, curve.curvature])
    sidecar = {
        "closed": curve.closed,
        "singular": [int(k) for k in np.nonzero(curve.singular)[0]],
    }
    write_table(path, "x,y,nu_x,nu_y,H", rows, sidecar)


def load_curve(path: str | Path) -> InterfaceCurve:
    """Read a curve written by save_curve."""
    data, meta = read_table(path)
    singular = np.zeros(len(data), dtype=bool)
    singular[[int(k) for k in meta["singular"]]] = True
    return InterfaceCurve(
        points=data[:, 0:2],
        normals=data[:, 2:4],
        curvature=data[:, 4],
        singular=singular,
        closed=bool(meta["closed"]),
    )
