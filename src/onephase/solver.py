"""Energy evaluation and constrained minimization of the phase functional.

The functional is I_eps(v) = integral of |grad v|^2 + F_eps(v); stationary
points solve the semilinear equation Delta u = f_eps(u).  Minimization runs
over nonnegative interior values with fixed Dirichlet boundary data.  The
smoother is nonlinear red-black SOR (Ortega & Rheinboldt, Iterative
Solution of Nonlinear Equations in Several Variables, 1970): each node
moves to the exact minimizer of the energy with its neighbours frozen,
over-relaxed by a factor chosen from the grid and projected to u >= 0.
The node energies are strictly convex exactly below a grid bound,
h < sqrt(dim)*T*eps for the reference family; minimize raises
GridBoundError, a ValueError, at or above it.  The 5-point equations are
the gradient of the discrete energy that `energy` measures and the trace
records.  Convergence is declared on the PDE residual, not the energy
decrement, because downstream variation tests need genuinely small
residuals.

Around the smoother runs a nonlinear full-approximation-scheme (FAS)
V-cycle (Brandt, Math. Comp. 31, 1977) over a hierarchy of levels built
once per call.  Each level halves the one below it, which needs an even
interval count on every axis, and is kept only while its spacing stays
below _COARSE_FRACTION of the grid bound.  A coarse level starts from the
injected fine iterate; its right-hand side g of Delta u - f_eps(u) = g is
its own defect there plus the full weighting of the fine residual.  Its
correction returns by multilinear interpolation, projected to u >= 0.  As
in Kornhuber's monotone multigrid (Numer. Math. 69, 1994), a cycle counts
only if the energy does not rise; otherwise the cycle reruns on the
finest level alone, as its own coarsest level, which is how every cycle
of a grid with no admissible coarse level runs.

After each cycle G, the fallback included, minimize takes a type-II
Anderson step (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; Washio &
Oosterlee, ETNA 6, 1997, on nonlinear multigrid): with f = G(x) - x and
dF, dG the differences of the last _ANDERSON_DEPTH f and G, the candidate
G(x_k) - dG gamma, gamma the least-squares fit of f_k by dF, projected to
u >= 0, is kept only if its energy is not above that of G(x_k).  It
removes the few slow modes a cycle leaves, such as the bending of the
layer on a grid with no admissible coarse level.
A solve stops for one of four reasons (SolveReport.stop_reason): the
residual reached the tolerance (tol), the cycle cap was hit (max_iter),
the residual did not improve by 2% in _STALL_CYCLES cycles (stalled), or
the residual is rounding alone (floor).

A half-sweep touches only the nodes of its colour.  They form 2^(dim-1)
strided blocks of the interior.  Each level holds a sweep plan, built once
per minimize call: per colour, each block's slices, its 2*dim neighbour
slices and its range in two buffers of the level, old and m.  A half-sweep
copies each block into its range of old, sums its neighbours into its
range of m, runs the node solve on the colour's part of m as one vector
and scatters the result back; it builds no slices and gathers into no
buffer of its own.  Every node goes through the same floating-point
operations in the same order whatever the layout, and nodes of one colour
never neighbour each other, so neither the layout nor the block order
changes a bit of the result.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable

import numpy as np

# integrate is not called here: perfbench's tracer test reads solver.integrate.
from .field import ScalarField, _neighbour_sum, _neighbours, integrate, interior_mask  # noqa: F401
from .potentials import F_eps, ReactionTerm, f_eps

__all__ = [
    "GridBoundError",
    "SolveConfig",
    "SolveReport",
    "energy",
    "residual",
    "minimize",
]

# Cycles without a 2% residual improvement before a solve stops as
# stalled: the guard against a solve that neither converges nor reaches
# the floor grinding on to the cycle cap.
_STALL_CYCLES = 60
# A coarse level is kept while its spacing is below this fraction of the
# grid bound sqrt(dim)*T*eps.  Toward the bound the coarse node energies
# lose their convexity margin, and the coarse problem pins the layer to
# its own nodes far more strongly than the fine one does, so its
# correction moves the layer where the fine grid does not want it.  With
# a coarsest level at 0.44 and 0.47 of the bound, eps = 0.1 halfplane
# solves on 257^2 and 241^2 take 33 and 81 cycles, 25 and 65 of them
# refused; at 0.4 of it they take 8, and the eps = 0.1 solves from 201^2
# to 401^2, whose coarsest levels lie at 0.22-0.35, take 7-9.
_COARSE_FRACTION = 0.4
# Plain (omega = 1) sweeps before and after each coarse correction.
_SMOOTHING_SWEEPS = 2
# Over-relaxed sweeps on the coarsest level of a cycle, the only level of
# a grid with no coarse one.  Below finer levels they are not an exact
# solve: the layer's translation is a soft mode whose coarse stiffness is
# far from its fine one, so the more of it they carry over, the more
# cycles are refused.  The 401^2, eps = 0.05 halfplane solve takes 13
# cycles at 24, 17 at 48 (6 refused) and 25 at 8.  On one level, 24 take
# the 101^2, eps = 0.05 solves and the 201^2, eps = 0.03 one (layer
# midway) to 13-18 and 32 cycles, where 8 take 37-60 and 123.
_COARSEST_SWEEPS = 24
# A residual within this multiple of the rounding quantum
# q = spacing(max |neighbour sum|) / h^2 is rounding alone: each stored
# value is off by up to half an ulp and the neighbour sum rounds too, which
# moves the 5-point defect by up to about 3.5 q in 2D.
_FLOOR_MULTIPLE = 4.0
# The descent test forgives a rise of this many ulps of the energy.  The
# energy sums nonnegative terms, so its rounding is a few ulps of the total,
# and near convergence a cycle lowers it by less than that: an exact
# comparison refused good cycles at random (20 of 31 on a 513-node column).
_DESCENT_ULPS = 16
# Cycles an Anderson step fits (0: plain cycles).  The one-level 101^2,
# eps = 0.05 solve, layer midway, takes 17 cycles at 3, 18 at 2 and 64
# plain; the 201^2, eps = 0.03 one takes 32 at 3, 38 at 2 and 35 at 4.
_ANDERSON_DEPTH = 3
# Ridge of the Anderson normal equations, relative to their diagonal.
_ANDERSON_RIDGE = 1e-12
# Rows of about this many nodes per call of a reaction kernel: whole-grid
# calls on the band of a 201^2 solve took more than three grid arrays.
_BLOCK_NODES = 8192


class GridBoundError(ValueError):
    """The grid spacing is at or above the bound of strictly convex node energies."""


@dataclasses.dataclass(frozen=True)
class SolveConfig:
    """Minimization settings.

    Attributes:
        eps: phase-transition scale, finite and positive.
        tol_residual: stop once max |Delta u - f_eps(u)| falls below this.
        max_iter: cap on iterations, each one multigrid cycle.
    """

    eps: float
    tol_residual: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < math.inf:
            bound = "finite" if self.eps > 0.0 else "positive"
            raise ValueError(f"eps must be {bound}, got {self.eps}")
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimize call.

    iterations counts cycles.  energy_trace holds the energy of the
    starting field, then the energy after each cycle, unfiltered:
    len(energy_trace) == iterations + 1 and its last entry is the energy
    of the returned field.  A rise from one entry to the next means the
    sweeps went uphill.  stop_reason is "tol" (converged), "max_iter" (the
    cycle cap), "stalled" (the residual did not improve by 2% in
    _STALL_CYCLES cycles) or "floor" (the residual is within
    _FLOOR_MULTIPLE rounding quanta, above a tolerance that float64 cannot
    reach).  extrapolated counts the cycles that end at their Anderson
    candidate, not at the cycle's own result.
    """

    iterations: int
    final_residual: float
    energy_trace: tuple[float, ...]
    converged: bool
    stop_reason: str = "max_iter"
    extrapolated: int = 0


def energy(u: ScalarField, term: ReactionTerm, eps: float) -> float:
    """Discrete I_eps(u), the energy whose gradient is the 5-point residual.

    Squared forward differences over h^2, by the midpoint rule along each
    difference and the trapezoid rule across it, plus the trapezoid rule
    of F_eps(u), each by np.trapezoid one axis at a time.  Its derivative
    in an interior value is exactly -2 h^dim (Delta_h u - f_eps(u)): the
    sweeps of minimize descend it.

    Args:
        u: field on its grid.
        term: reaction term.
        eps: nonnegative scale; eps = 0 uses the positivity indicator.

    Returns:
        The energy over the whole grid domain.
    """
    v, h, Fv = u.values, u.grid.h, np.empty_like(u.values)
    for b in _blocks(v):
        Fv[b] = F_eps(term, eps, v[b])
    parts = [Fv]
    for ax in range(v.ndim):
        d = np.diff(v, axis=ax)
        d *= d
        parts.append(np.sum(d, axis=ax) / h)
    total = 0.0
    for acc in parts:
        for _ in range(acc.ndim):
            acc = np.trapezoid(acc, dx=h, axis=-1)
        total += float(acc)
    return total


def residual(u: ScalarField, term: ReactionTerm, eps: float) -> float:
    """Max-norm of Delta u - f_eps(u) over interior nodes.

    Args:
        u: candidate solution.
        term: reaction term.
        eps: positive scale.

    Returns:
        Worst interior defect of the semilinear equation.

    Raises:
        ValueError: if eps <= 0.
    """
    return float(np.max(np.abs(_defect(u.values, u.grid.h, term, eps))))


def _defect(v: np.ndarray, h: float, term: ReactionTerm, eps: float) -> np.ndarray:
    """Delta_h v - f_eps(v) on the interior nodes of v, by blocks of rows."""
    core, d = v[(slice(1, -1),) * v.ndim], _neighbour_sum(v)
    for b in _blocks(d):
        d[b] -= 2.0 * v.ndim * core[b]
        d[b] /= h * h
        d[b] -= f_eps(term, eps, core[b])
    return d


def _blocks(a: np.ndarray) -> list[slice]:
    """Blocks of rows of a, of about _BLOCK_NODES nodes each."""
    step = max(1, _BLOCK_NODES // max(1, a[0].size))
    return [slice(i, i + step) for i in range(0, len(a), step)]


@dataclasses.dataclass(frozen=True)
class _Block:
    """One strided block of a red-black colour, as a sweep visits it.

    nodes selects the block in the grid array and neighbours its 2*dim
    neighbour slices (field._neighbours).  span is the block's flat range in
    its level's two sweep buffers; old and m are that range of them, in the
    block's shape.
    """

    nodes: tuple[slice, ...]
    neighbours: tuple[tuple[slice, ...], ...]
    span: slice
    old: np.ndarray
    m: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Colour:
    """The blocks of one colour and the flat views of the buffers they fill."""

    blocks: tuple[_Block, ...]
    old: np.ndarray
    m: np.ndarray


def _plan(shape: tuple[int, ...]) -> tuple[_Colour, _Colour]:
    """How a red-black sweep visits the interior nodes of a grid of this shape.

    Offset o in {0, 1}^dim selects the block slice(1 + o_k, n_k - 1, 2) on
    every axis; its nodes have interior index parity sum(o) mod 2, so each
    colour is the union of 2^(dim - 1) blocks.  Colour 0 holds the node
    next to the origin corner and is swept first.  The colours take turns
    with one old buffer and one m buffer, sized for colour 0, the larger.
    """
    size = (math.prod(n - 2 for n in shape) + 1) // 2
    old, m = np.empty(size), np.empty(size)
    colours = []
    for parity in (0, 1):
        blocks, stop = [], 0
        for off in itertools.product((0, 1), repeat=len(shape)):
            if sum(off) % 2 != parity:
                continue
            nodes = tuple(slice(1 + o, n - 1, 2) for o, n in zip(off, shape))
            bshape = tuple(len(range(1 + o, n - 1, 2)) for o, n in zip(off, shape))
            span = slice(stop, stop + math.prod(bshape))
            stop = span.stop
            views = old[span].reshape(bshape), m[span].reshape(bshape)
            blocks.append(_Block(nodes, _neighbours(nodes), span, *views))
        colours.append(_Colour(tuple(blocks), old[:stop], m[:stop]))
    return colours[0], colours[1]


def _sweep(
    values: np.ndarray,
    h: float,
    eps: float,
    omega: float,
    plan: tuple[_Colour, _Colour],
    root: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray | None = None,
) -> None:
    """One red-black sweep of the exact node minimizer, over-relaxed.

    With its neighbours frozen, a node value w minimizes its share of the
    energy where diag*w - N + f_eps(w) = -g, N the neighbour sum over h^2,
    diag = 2*dim/h^2 and g the right-hand side of Delta u - f_eps(u) = g
    (an array of the grid's shape, or None for 0).  In s = w/eps this is
    k*s + f(s) = m with k = diag*eps^2 and m = (N - g)*eps, which root (the
    term's shifted_inverse at that k) solves exactly.  The node then moves
    by omega times the way to that target and is projected to u >= 0.  The
    node energy is strictly convex, so the step descends it whenever its
    curvature varies by less than a factor 1/(omega - 1)^2 along the step:
    always if it is quadratic, and for the small steps of a converging
    sweep.  The inexact 3-step Newton target this replaced had no such
    guarantee, and close to the grid bound, where its divisor nears zero,
    it went uphill.
    """
    m_scale = eps / (h * h)
    for colour in plan:
        # Nodes of one colour never neighbour each other, so all their
        # neighbour sums can be taken before any of them moves: this is the
        # Gauss-Seidel half-sweep, with the node solve run on this colour only.
        for b in colour.blocks:
            b.old[...] = values[b.nodes]
            _neighbour_sum(values, b.neighbours, out=b.m)
        m = colour.m
        m *= m_scale
        if g is not None:
            for b in colour.blocks:
                np.subtract(b.m, eps * g[b.nodes], out=b.m)
        cand = root(m)
        cand *= eps
        cand -= colour.old
        cand *= omega
        cand += colour.old
        np.maximum(cand, 0.0, out=cand)
        for b in colour.blocks:
            values[b.nodes] = cand[b.span].reshape(b.old.shape)


def _auto_omega(h: float, shape: tuple[int, ...]) -> float:
    span = h * (min(shape) - 1)
    return 2.0 / (1.0 + np.sin(np.pi * h / span))


def _restrict(r: np.ndarray) -> np.ndarray:
    """Full weighting of a fine grid array that is 0 on its boundary.

    Along each axis a coarse node takes 1/4, 1/2, 1/4 of the fine nodes at
    and beside it; the coarse boundary is 0.
    """
    for ax in range(r.ndim):
        x = np.moveaxis(r, ax, 0)
        c = np.zeros((x.shape[0] // 2 + 1,) + x.shape[1:])
        c[1:-1] = 0.25 * x[1:-2:2] + 0.5 * x[2:-1:2] + 0.25 * x[3::2]
        r = np.moveaxis(c, 0, ax)
    return r


def _prolong(e: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a coarse grid array to the fine grid."""
    for ax in range(e.ndim):
        x = np.moveaxis(e, ax, 0)
        f = np.empty((2 * x.shape[0] - 1,) + x.shape[1:])
        f[::2] = x
        f[1::2] = 0.5 * (x[:-1] + x[1:])
        e = np.moveaxis(f, 0, ax)
    return e


@dataclasses.dataclass(frozen=True)
class _Level:
    """One grid of the hierarchy and how it is swept; omega is its SOR factor."""

    h: float
    plan: tuple[_Colour, _Colour]
    root: Callable[[np.ndarray], np.ndarray]
    omega: float


def _levels(grid, term: ReactionTerm, eps: float) -> list[_Level]:
    """The levels of a grid, finest first; see the module docstring.

    Raises:
        GridBoundError: the node energies of the grid itself are not
            strictly convex.
    """
    dim = grid.dim
    try:
        root = term.shifted_inverse(2.0 * dim * (eps * eps) / (grid.h * grid.h))
    except ValueError as exc:
        bound = ""
        if term.family == "reference":
            bound = f", sqrt(d)*T*eps = {np.sqrt(dim) * term.T * eps:g}"
        raise GridBoundError(
            f"grid spacing h = {grid.h:g} is at or above the bound of strictly"
            f" convex node energies{bound}: {exc}"
        ) from exc
    h, shape = grid.h, grid.shape
    omega = _auto_omega(h, shape)
    levels = [_Level(h, _plan(shape), root, omega)]
    while min(shape) >= 5 and all(n % 2 == 1 for n in shape):
        h, shape = 2.0 * h, tuple(n // 2 + 1 for n in shape)
        c = _COARSE_FRACTION * eps / h
        try:
            # Below the fraction of the bound exactly when the node energies
            # at spacing h / _COARSE_FRACTION are still strictly convex.
            term.shifted_inverse(2.0 * dim * (c * c))
        except ValueError:
            break
        root = term.shifted_inverse(2.0 * dim * (eps * eps) / (h * h))
        omega = _auto_omega(h, shape)
        levels.append(_Level(h, _plan(shape), root, omega))
    return levels


def _cycle(
    levels: list[_Level], u: np.ndarray, g: np.ndarray | None, term: ReactionTerm, eps: float
) -> None:
    """One FAS V-cycle for Delta u - f_eps(u) = g on levels[0], in place.

    The coarsest level, levels[0] when it is alone, runs _COARSEST_SWEEPS
    over-relaxed sweeps.  Every finer level smooths with plain sweeps, hands
    its injected iterate and its restricted residual down, adds the
    interpolated correction, projects to u >= 0 and smooths again.
    """
    level = levels[0]
    if len(levels) == 1:
        for _ in range(_COARSEST_SWEEPS):
            _sweep(u, level.h, eps, level.omega, level.plan, level.root, g)
        return
    for _ in range(_SMOOTHING_SWEEPS):
        _sweep(u, level.h, eps, 1.0, level.plan, level.root, g)
    core = (slice(1, -1),) * u.ndim
    r = np.zeros_like(u)
    r[core] = -_defect(u, level.h, term, eps)
    if g is not None:
        r += g
    coarse = u[(slice(None, None, 2),) * u.ndim].copy()
    g_coarse = _restrict(r)
    g_coarse[core] += _defect(coarse, levels[1].h, term, eps)
    start = coarse.copy()
    _cycle(levels[1:], coarse, g_coarse, term, eps)
    coarse -= start
    u += _prolong(coarse)
    np.maximum(u, 0.0, out=u)
    for _ in range(_SMOOTHING_SWEEPS):
        _sweep(u, level.h, eps, 1.0, level.plan, level.root, g)


def _stop_reason(
    res: float, iterations: int, stale: int, v: np.ndarray, h: float, cfg: SolveConfig
) -> str | None:
    """Why a solve stops at this residual, cycle count and stale count, or None.

    The floor is the defect of one rounding, q = spacing(max |neighbour
    sum|) / h^2.
    """
    if res <= cfg.tol_residual:
        return "tol"
    if iterations >= cfg.max_iter:
        return "max_iter"
    if res <= _FLOOR_MULTIPLE * float(np.spacing(np.max(np.abs(_neighbour_sum(v))))) / (h * h):
        return "floor"
    if stale >= _STALL_CYCLES:
        return "stalled"
    return None


def _dot(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """Sum of the products a * b, formed in double in scratch: no BLAS kernel sets its bits."""
    return float(np.sum(np.multiply(a, b, out=scratch, dtype=float)))


def _extrapolate(
    u: np.ndarray, f: np.ndarray, df: list, dg: list, gram: list, scratch: np.ndarray
) -> bool:
    """Move u = G(x) to the Anderson candidate u - dG gamma, in place.

    gamma minimizes |f - dF gamma| over the columns df of dF, by the normal
    equations with a ridge, solved in Python floats.  gram[i][j] holds
    dF_i . dF_j, as _dot forms it; dF_i . f is formed here.  Returns False,
    leaving u, when every difference is 0.
    """
    # Row i holds dF_i . dF_j for each j, then dF_i . f.  With the ridge the
    # system is positive definite: Gauss-Jordan elimination needs no pivots.
    a = [row + [_dot(p, f, scratch)] for row, p in zip(gram, df)]
    ridge = _ANDERSON_RIDGE * max(row[i] for i, row in enumerate(a))
    if not ridge > 0.0:
        return False
    for i, row in enumerate(a):
        row[i] += ridge
    for i, pivot in enumerate(a):
        for row in a:
            if row is not pivot:
                q = row[i] / pivot[i]
                row[:] = [x - q * y for x, y in zip(row, pivot)]
    for i, (row, d) in enumerate(zip(a, dg)):
        u -= np.multiply(d, row[-1] / row[i], out=scratch, dtype=float)
    return True


def minimize(
    boundary: ScalarField, init: ScalarField, term: ReactionTerm, cfg: SolveConfig
) -> tuple[ScalarField, SolveReport]:
    """Minimize I_eps over nonnegative fields with fixed boundary data.

    Args:
        boundary: field whose boundary nodes carry the Dirichlet data
            (interior values are ignored); data must be nonnegative.
        init: starting guess on the same grid, agreeing with boundary on
            the boundary nodes.
        term: reaction term.
        cfg: scale, residual tolerance and cycle cap.

    Returns:
        (solution field, report).  Non-convergence is reported, not raised.

    Raises:
        ValueError: mismatched grids, negative boundary data, an init that
            disagrees with the boundary trace, or (GridBoundError) a grid
            spacing at or above the bound below which every node energy is
            strictly convex (h < sqrt(dim)*T*eps for the reference family).
    """
    if boundary.grid != init.grid:
        raise ValueError("boundary and init live on different grids")
    grid = init.grid
    edge = ~interior_mask(grid)
    if np.min(boundary.values[edge]) < 0.0:
        raise ValueError("boundary data must be nonnegative")
    if np.max(np.abs(init.values[edge] - boundary.values[edge])) > 1e-12:
        raise ValueError("init does not match the boundary trace")
    levels = _levels(grid, term, cfg.eps)

    u = np.maximum(0.0, init.values.copy())
    u[edge] = data = boundary.values[edge]
    field = ScalarField(grid=grid, values=u)
    # The Anderson history, newest last, and the latest f are single
    # precision: they only steer the candidate, which is formed in double
    # and tested.  g is the latest G and x the start of the running cycle.
    # gram[i][j] = dF_i . dF_j; rows and columns rotate with df.
    depth = _ANDERSON_DEPTH
    df, dg = ([np.empty(u.shape, np.float32) for _ in range(depth)] for _ in "fg")
    gram = [[0.0] * depth for _ in range(depth)]
    f, x, g = np.empty(u.shape, np.float32), np.empty_like(u), np.empty_like(u)
    scratch = np.empty_like(u)
    trace = [energy(field, term, cfg.eps)]
    res = best = residual(field, term, cfg.eps)
    iterations = stale = kept = 0
    while (stop := _stop_reason(res, iterations, stale, u, grid.h, cfg)) is None:
        x[...] = u
        _cycle(levels, u, None, term, cfg.eps)
        e = energy(field, term, cfg.eps)
        # A one-level cycle has no coarse correction to refuse.
        if len(levels) > 1 and e > trace[-1] + _DESCENT_ULPS * np.spacing(trace[-1]):
            u[...] = x
            _cycle(levels[:1], u, None, term, cfg.eps)
            e = energy(field, term, cfg.eps)
        np.subtract(u, x, out=x)
        n = min(iterations, depth)
        if n:
            df.append(np.subtract(x, f, out=df.pop(0)))
            dg.append(np.subtract(u, g, out=dg.pop(0)))
            gram = [row[1:] + [0.0] for row in gram[1:]] + [[0.0] * depth]
            for j in range(depth - n, depth):
                gram[j][-1] = gram[-1][j] = _dot(df[j], df[-1], scratch)
        np.copyto(f, x, casting="same_kind")
        g[...] = u
        if n and _extrapolate(u, x, df[-n:], dg[-n:], [r[-n:] for r in gram[-n:]], scratch):
            np.maximum(u, 0.0, out=u)
            u[edge] = data
            e_new = energy(field, term, cfg.eps)
            if e_new <= e:
                e, kept = e_new, kept + 1
            else:
                u[...] = g
        trace.append(e)
        iterations += 1
        res = residual(field, term, cfg.eps)
        if res < 0.98 * best:
            best = res
            stale = 0
        else:
            stale += 1

    report = SolveReport(
        iterations=iterations,
        final_residual=res,
        energy_trace=tuple(trace),
        converged=stop == "tol",
        stop_reason=stop,
        extrapolated=kept,
    )
    return field, report
