"""Energy evaluation and constrained minimization of the phase functional.

The functional is I_eps(v) = integral of |grad v|^2 + F_eps(v); stationary
points solve the semilinear equation Delta u = f_eps(u).  Minimization runs
over nonnegative interior values with fixed Dirichlet boundary data by
red-black Gauss-Seidel-Newton sweeps: each node solves its 5-point equation
with frozen neighbours, is projected to u >= 0, and is over-relaxed by a
factor chosen from the grid.  The 5-point equations are the gradient of
the discrete energy that `energy` measures and the trace records.
Convergence is declared on the PDE residual, not the energy decrement,
because downstream variation tests need genuinely small residuals.  For
the reference family the node Newton divisor
2*dim/h^2 + f'(u/eps)/eps^2 changes sign once h >= sqrt(dim)*T*eps; runs
on such grids end unconverged, which is reported, not raised.

A half-sweep touches only the nodes of its colour.  They form 2^(dim-1)
strided blocks of the interior, which are gathered into one vector for the
node Newton and scattered back.  Every node goes through the same
floating-point operations in the same order whatever the layout, and nodes
of one colour never neighbour each other, so neither the gathering nor the
block order changes a bit of the result.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .field import (
    ScalarField,
    _neighbour_sum,
    integrate,
    interior_mask,
    laplacian,
)
from .potentials import F_eps, ReactionTerm, f_eps

__all__ = [
    "SolveConfig",
    "SolveReport",
    "energy",
    "residual",
    "minimize",
]

# One reported iteration bundles this many red-black sweeps; energy and
# residual are measured per bundle.
_SWEEPS_PER_ITERATION = 8
# Bundles without a 2% residual improvement before a relaxation phase is
# declared floored and the next one starts.
_STALL_BUNDLES = 60


@dataclasses.dataclass(frozen=True)
class SolveConfig:
    """Minimization settings.

    Attributes:
        eps: phase-transition scale, positive.
        tol_residual: stop once max |Delta u - f_eps(u)| falls below this.
        max_iter: cap on iterations, each a bundle of red-black sweeps.
    """

    eps: float
    tol_residual: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimize call.

    energy_trace holds the energy of the starting field, then the energy
    after each iteration, unfiltered: len(energy_trace) == iterations + 1
    and its last entry is the energy of the returned field.  A rise from
    one entry to the next means the sweeps went uphill.
    """

    iterations: int
    final_residual: float
    energy_trace: tuple[float, ...]
    converged: bool


def energy(u: ScalarField, term: ReactionTerm, eps: float) -> float:
    """Discrete I_eps(u), the energy whose gradient is the 5-point residual.

    Squared forward differences over h^2, by the midpoint rule along each
    difference and the trapezoid rule across it, plus the trapezoid rule
    of F_eps(u).  Its derivative in an interior value is exactly
    -2 h^dim (Delta_h u - f_eps(u)): the sweeps of minimize descend it.

    Args:
        u: field on its grid.
        term: reaction term.
        eps: nonnegative scale; eps = 0 uses the positivity indicator.

    Returns:
        The energy over the whole grid domain.
    """
    v, h = u.values, u.grid.h
    total = integrate(ScalarField(grid=u.grid, values=F_eps(term, eps, v)))
    for ax in range(v.ndim):
        acc = np.sum(np.diff(v, axis=ax) ** 2, axis=ax) / h
        for _ in range(v.ndim - 1):
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
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    lap = laplacian(u).values
    defect = lap - f_eps(term, eps, u.values)
    return float(np.max(np.abs(defect[interior_mask(u.grid)])))


def _colour_blocks(shape: tuple[int, ...]) -> tuple[list[tuple[slice, ...]], ...]:
    """Interior nodes of each red-black colour as strided blocks.

    Offset o in {0, 1}^dim selects the block slice(1 + o_k, n_k - 1, 2) on
    every axis; its nodes have interior index parity sum(o) mod 2, so each
    colour is the union of 2^(dim - 1) blocks.  Colour 0 holds the node
    next to the origin corner and is swept first.
    """
    colours: tuple[list[tuple[slice, ...]], ...] = ([], [])
    for off in itertools.product((0, 1), repeat=len(shape)):
        colours[sum(off) % 2].append(
            tuple(slice(1 + o, n - 1, 2) for o, n in zip(off, shape))
        )
    return colours


def _sweep(
    values: np.ndarray,
    h: float,
    term: ReactionTerm,
    eps: float,
    omega: float,
    colours: tuple[list[tuple[slice, ...]], ...],
) -> None:
    diag = 2.0 * values.ndim / h**2
    for blocks in colours:
        # Nodes of one colour never neighbour each other, so all their
        # neighbour sums can be taken before any of them moves: this is the
        # Gauss-Seidel half-sweep, with the Newton run on this colour only.
        old = np.concatenate([values[b].ravel() for b in blocks])
        neigh = np.concatenate([_neighbour_sum(values, b).ravel() for b in blocks]) / h**2
        # Converge each node equation with frozen neighbors, then relax
        # toward the exact node minimizer; relaxing an inexact target can
        # push the energy uphill, the exact one cannot.
        w = old
        for _ in range(3):
            s = w / eps
            r = neigh - diag * w - term.f(s) / eps
            w = w + r / (diag + term.fprime(s) / eps**2)
        target = np.maximum(0.0, w)
        cand = np.maximum(0.0, old + omega * (target - old))
        start = 0
        for b in blocks:
            dst = values[b]
            dst[...] = cand[start : start + dst.size].reshape(dst.shape)
            start += dst.size


def _auto_omega(grid) -> float:
    span = grid.h * (min(grid.shape) - 1)
    return 2.0 / (1.0 + np.sin(np.pi * grid.h / span))


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
        cfg: scale, residual tolerance and iteration cap.

    Returns:
        (solution field, report).  Non-convergence is reported, not raised.

    Raises:
        ValueError: mismatched grids, negative boundary data, or an init
            that disagrees with the boundary trace.
    """
    if boundary.grid != init.grid:
        raise ValueError("boundary and init live on different grids")
    grid = init.grid
    edge = ~interior_mask(grid)
    if np.min(boundary.values[edge]) < 0.0:
        raise ValueError("boundary data must be nonnegative")
    if np.max(np.abs(init.values[edge] - boundary.values[edge])) > 1e-12:
        raise ValueError("init does not match the boundary trace")

    u = np.maximum(0.0, init.values.copy())
    u[edge] = boundary.values[edge]
    field = ScalarField(grid=grid, values=u)
    trace = [energy(field, term, cfg.eps)]
    res = residual(field, term, cfg.eps)
    iterations = 0

    omega = _auto_omega(grid)
    colours = _colour_blocks(grid.shape)
    # Over-relaxed sweeps amplify arithmetic noise by ~1/(2 - omega)
    # and can floor the residual near 1e-8 at fine h; plain sweeps damp
    # that high-frequency floor.  Healthy over-relaxation contracts the
    # residual by >= 2% within a handful of bundles on any grid solvable
    # under the iteration cap, while the floor only wobbles, so a long
    # stretch without a new low marks the floor and triggers the switch.
    for relax in (omega, 1.0):
        best = res
        stale = 0
        while res > cfg.tol_residual and iterations < cfg.max_iter:
            for _ in range(_SWEEPS_PER_ITERATION):
                _sweep(u, grid.h, term, cfg.eps, relax, colours)
            field = ScalarField(grid=grid, values=u)
            trace.append(energy(field, term, cfg.eps))
            iterations += 1
            res = residual(field, term, cfg.eps)
            if res < 0.98 * best:
                best = res
                stale = 0
            else:
                stale += 1
                if stale >= _STALL_BUNDLES:
                    break
        if res <= cfg.tol_residual:
            break

    converged = res <= cfg.tol_residual
    report = SolveReport(
        iterations=iterations,
        final_residual=res,
        energy_trace=tuple(trace),
        converged=converged,
    )
    return field, report

