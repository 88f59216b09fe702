"""Free-boundary diagnostics for transition-layer fields.

The checks quantify, on sampled fields, the structural properties that
distinguish genuine one-phase transitions from degenerate ones: linear
growth away from the low set (nondegeneracy), volume fraction of the low
set near the transition band (density), gradient bounds, decay of the
reaction energy toward an indicator, and set convergence in Hausdorff
distance.

Scans discretize balls as node sets {q : |q - p| <= r} and report areas
as node counts times h^d.  Centers are restricted so every scanned ball
lies inside the grid domain; callers pick the pass/fail threshold, the
scan only measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import GridSpec, ScalarField, _box, _span, gradient, integrate, sample
from .potentials import F_eps, ReactionTerm
from .records import from_json, to_json

__all__ = [
    "CheckReport",
    "level_region",
    "nondegeneracy_scan",
    "density_scan",
    "zero_phase_density",
    "lipschitz_constant",
    "exit_radius",
    "poincare_ratio",
    "l1_gap",
    "hausdorff_distance",
    "check_to_json",
    "check_from_json",
]

# Relative height below which a node of a limit field counts as zero.
_ZERO_REL_TOL = 1e-12
_CHUNK_PAIRS = 1 << 20  # point pairs per chunk of the Hausdorff brute force


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a parameter scan against a caller threshold.

    Fields:
        check: scan name.
        params: scanned parameter values, one per entry of values.
        values: measured constant per parameter; empty when nothing was
            eligible to scan.
        worst: min of values; None exactly when values is empty.
        threshold: caller's pass bar, finite.
        passed: whether worst >= threshold; False on empty scans.
    """

    check: str
    params: tuple[float, ...]
    values: tuple[float, ...]
    worst: float | None = field(init=False)
    threshold: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("scan values must be finite")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        worst = min(self.values, default=None)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "passed", worst is not None and worst >= self.threshold)


def level_region(
    u: ScalarField, term: ReactionTerm, eps: float, kind: str, theta: float
) -> np.ndarray:
    """Cut the low band Z or the transition band F out of a field.

    Args:
        u: sampled field.
        term: reaction term fixing the support endpoint T.
        eps: scale; bands live at heights theta * eps.
        kind: "Z" for {u <= theta * eps}, "F" for
            {theta * eps <= u <= T * eps}.
        theta: band parameter, 0 < theta <= T.

    Returns:
        (n, dim) integer multi-indices of the selected nodes, in scan order.

    Raises:
        ValueError: on a bad kind, theta out of range, or eps <= 0.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < theta <= term.T:
        raise ValueError(f"theta must lie in (0, {term.T}], got {theta}")
    if kind == "Z":
        mask = u.values <= theta * eps
    elif kind == "F":
        mask = (u.values >= theta * eps) & (u.values <= term.T * eps)
    else:
        raise ValueError(f"kind must be 'Z' or 'F', got {kind!r}")
    return np.argwhere(mask)


def _disc(r: float, h: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the closed disc {q : |q - p| <= r} on a grid of spacing h.

    Returns:
        (offsets, widths): each row's offset along axis 0 and its integer
        halfwidth along the last axis, up to a 1e-9 slack.  In 1D the disc
        is one row, at offset 0 with halfwidth floor(r / h).
    """
    m = int(r / h + 1e-9)
    di = np.arange(-m, m + 1) if dim > 1 else np.zeros(1, dtype=int)
    return di, np.floor(np.sqrt(np.maximum(r * r - (di * h) ** 2, 0.0)) / h + 1e-9).astype(int)


def _ball_reduce(values: np.ndarray, r: float, h: float, op, fill) -> np.ndarray:
    """Reduce values with op over the closed disc of radius r around each node.

    A running op along the last axis widens by one node per side at each
    step, and each row of _disc takes it, moved to the row's axis-0 offset,
    once it reaches the row's halfwidth: O(r/h) in-place passes over the
    array for the whole disc, the order of the row loop itself.  Nodes
    outside the array are left out of every disc.  The van Herk / Gil-Werman
    block max (van Herk, Pattern Recognit. Lett. 13, 1992; Gil & Werman,
    IEEE TPAMI 15, 1993) is O(1) per window but needs one run per halfwidth,
    which measured 3-4x slower on 201^2 and 401^2 grids at r = 0.25 and 0.5.

    Args:
        values: 1D or 2D array.
        r: disc radius.
        h: grid spacing.
        op: np.maximum, np.add or np.logical_or.  Each result is exact (a
            max, an or, or a sum of integer-valued floats), so it does not
            depend on the order of the passes.
        fill: identity of op, the value of a node before its disc is added.
    """
    offs, widths = _disc(r, h, values.ndim)
    row = values.copy()
    out = np.full_like(values, fill)
    for w in range(int(widths.max()) + 1):
        for k in ((w, -w) if w else ()):
            dst, src = _span(k, values.shape[-1])
            op(row[..., dst], values[..., src], out=row[..., dst])
        for di in offs[widths == w]:
            dst, src = _span(int(di), values.shape[0])
            op(out[dst], row[src], out=out[dst])
    return out


def _ball_fraction(mask: np.ndarray, r: float, h: float) -> np.ndarray:
    """Share of the closed ball of radius r around each node that mask fills."""
    size = int(np.sum(2 * _disc(r, h, mask.ndim)[1] + 1))
    return _ball_reduce(mask.astype(float), r, h, np.add, 0.0) / size


def _margin_mask(grid: GridSpec, r: float) -> np.ndarray:
    """True where the closed ball of radius r stays inside the domain."""
    k = math.ceil(r / grid.h - 1e-9)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(slice(k, n - k) for n in grid.shape)] = True
    return mask


def _disc_box(mask: np.ndarray, r: float, h: float) -> tuple[slice, ...]:
    """The bounding box of mask grown on each side by the halfwidth of the
    disc of radius r: it holds every disc node of every node of mask."""
    offs, widths = _disc(r, h, mask.ndim)
    w = max(int(np.max(np.abs(offs))), int(np.max(widths)))
    return _box(np.nonzero(mask), w, mask.shape)


def _scan(
    check: str, grid: GridSpec, radii, scale: float, centers: np.ndarray, measure, threshold
) -> CheckReport:
    """Per radius r, the min of measure(scale * r, box) over the centers
    whose ball of radius scale * r fits in the domain; empty without centers.

    measure(r, box) is a ball statistic of radius r on the nodes of box
    alone.  box is the _disc_box of the fitting centers, so each disc it
    reduces at a center lies inside it, and the statistic is the one on
    the whole grid.

    Raises:
        ValueError: when a radius leaves no center with its ball inside.
    """
    if not centers.any():
        return CheckReport(check, radii, (), threshold)
    values = []
    for r in radii:
        fit = centers & _margin_mask(grid, scale * r)
        if not fit.any():
            raise ValueError(f"radius {r} leaves no {check} center in the domain")
        box = _disc_box(fit, scale * r, grid.h)
        values.append(float(np.min(measure(scale * r, box)[fit[box]])))
    return CheckReport(check, radii, values, threshold)


def nondegeneracy_scan(
    u: ScalarField,
    eps: float,
    theta: float,
    radii,
    threshold: float = 0.0,
) -> CheckReport:
    """Measure the linear-growth constant sup_{B_r(p)} u / r.

    For each radius the scan minimizes the ratio over centers p with
    u(p) >= theta * eps whose ball fits in the domain.

    Args:
        u: sampled field.
        eps: scale of the threshold height.
        theta: finite positive height parameter; centers need u >= theta * eps.
        radii: finite positive ball radii to scan.
        threshold: pass bar on the minimum constant.

    Returns:
        CheckReport with one constant per radius; empty when no node
        clears the height threshold.

    Raises:
        ValueError: on nonpositive inputs, or when a radius leaves no
            eligible center with its ball inside the domain.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValueError(f"radii must be finite and positive, got {radii}")
    return _scan(
        "nondegeneracy", u.grid, radii, 1.0, u.values >= theta * eps,
        lambda r, box: _ball_reduce(u.values[box], r, u.grid.h, np.maximum, -np.inf) / r,
        threshold,
    )


def density_scan(
    u: ScalarField,
    term: ReactionTerm,
    eps: float,
    L: float,
    radii,
    threshold: float = 0.0,
) -> CheckReport:
    """Measure the low-set volume fraction near the transition band.

    For each radius r the scan minimizes
    |{u <= (tau/4) eps} ∩ B_{r/2}(x)| / |B_{r/2}| over centers x in the
    band {tau eps <= u <= T eps}, tau the term's linearity window end.

    Args:
        u: sampled field.
        term: reaction term fixing T and tau.
        eps: scale.
        L: lower bound enforced on r / eps.
        radii: ball diameters to scan; each must be finite and >= L * eps.
        threshold: pass bar on the minimum fraction.

    Returns:
        CheckReport with one fraction per radius; empty when the band
        {tau eps <= u <= T eps} has no nodes.

    Raises:
        ValueError: on parameter violations or when a radius leaves no
            center with its ball inside the domain.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    radii = [float(r) for r in radii]
    if not radii or not all(L * eps - 1e-12 <= r < math.inf for r in radii):
        raise ValueError(f"radii must be finite and at least L * eps = {L * eps}, got {radii}")
    tau = term.tau
    band = (u.values >= tau * eps) & (u.values <= term.T * eps)
    low = u.values <= (tau / 4.0) * eps
    return _scan(
        "density", u.grid, radii, 0.5, band,
        lambda r, box: _ball_fraction(low[box], r, u.grid.h), threshold,
    )


def _zero_mask(values: np.ndarray) -> np.ndarray:
    top = float(np.max(values, initial=0.0))
    return values <= _ZERO_REL_TOL * max(top, 0.0)


def _limit_boundary(values: np.ndarray) -> np.ndarray:
    """Nodes adjacent (including themselves) to both phases."""
    zero = _zero_mask(values)
    pos = ~zero
    # At r = h the disc is the cross: a node and its axis neighbours.
    near_pos = _ball_reduce(pos, 1.0, 1.0, np.logical_or, False)
    near_zero = _ball_reduce(zero, 1.0, 1.0, np.logical_or, False)
    return (zero & near_pos) | (pos & near_zero)


def zero_phase_density(u: ScalarField, radii, threshold: float = 0.0) -> CheckReport:
    """Measure the zero-set volume fraction around the phase boundary.

    Centers are the nodes adjacent to both the zero set {u <= tol} and
    its complement; per radius the scan minimizes
    |{u = 0} ∩ B_r(x)| / |B_r| over those centers.

    Args:
        u: limit field (zero set read with a relative tolerance).
        radii: finite positive ball radii.
        threshold: pass bar on the minimum fraction.

    Returns:
        CheckReport; empty when either phase is missing.

    Raises:
        ValueError: on bad radii or when a radius leaves no center with
            its ball inside the domain.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValueError(f"radii must be finite and positive, got {radii}")
    zero = _zero_mask(u.values)
    return _scan(
        "zero-phase-density", u.grid, radii, 1.0, _limit_boundary(u.values),
        lambda r, box: _ball_fraction(zero[box], r, u.grid.h), threshold,
    )


def lipschitz_constant(u: ScalarField) -> float:
    """Largest gradient magnitude over the domain."""
    g = gradient(u)
    return float(np.max(np.sqrt(np.sum(g * g, axis=0))))


def exit_radius(u: ScalarField, term: ReactionTerm, eps: float, theta: float, p) -> float:
    """Distance from p to the set {u >= tau * eps}, tau the term's window end.

    This is the smallest r with sup over B_r(p) of u at least tau * eps.
    Balls are only scanned while they fit inside the domain; if the set is
    not reached by then the result is inf.

    Args:
        u: sampled field.
        term: reaction term fixing T and tau.
        eps: scale.
        theta: height of p in profile units; needs 0 < theta < tau and
            u(p) >= theta * eps.
        p: scan center.

    Returns:
        Exit radius in physical units, or inf when not reached.

    Raises:
        ValueError: on parameter violations.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tau = term.tau
    if not 0.0 < theta < tau:
        raise ValueError(f"theta must lie in (0, {tau}), got {theta}")
    pt = np.atleast_1d(np.asarray(p, dtype=float))
    height = float(sample(u, pt.reshape(1, -1))[0])
    if height < theta * eps - 1e-12:
        raise ValueError(f"u(p) = {height} is below theta * eps = {theta * eps}")
    hit = u.values >= tau * eps
    if not hit.any():
        return math.inf
    nodes = np.stack([ax[i] for ax, i in zip(u.grid.axes(), np.nonzero(hit))], axis=-1)
    dmin = float(np.min(np.linalg.norm(nodes - pt, axis=1)))
    lo = np.asarray(u.grid.origin, dtype=float)
    hi = np.asarray(u.grid.hi, dtype=float)
    wall = float(min(np.min(pt - lo), np.min(hi - pt)))
    return dmin if dmin <= wall + 1e-12 else math.inf


def poincare_ratio(g: ScalarField, zero_fraction: float = 0.0) -> float:
    """L1 norm of g over R times the L1 norm of its gradient, on the domain.

    Args:
        g: sampled field vanishing on part of the domain.
        zero_fraction: fraction in [0, 1] of nodes required to be zero
            (relative tolerance); violating it is an error.

    Returns:
        ||g||_L1 / (R ||grad g||_L1), both norms by integrate (second order
        in h), R the half-diameter of the domain box; 0.0 when the gradient
        norm vanishes.

    Raises:
        ValueError: on a zero_fraction outside [0, 1] or a broken promise.
    """
    if not 0.0 <= zero_fraction <= 1.0:
        raise ValueError(f"zero_fraction must lie in [0, 1], got {zero_fraction}")
    vals = np.abs(g.values)
    zeros = np.count_nonzero(_zero_mask(vals))
    if zeros < zero_fraction * vals.size - 1e-9:
        raise ValueError(
            f"g vanishes on {zeros / vals.size:.3f} of the domain, "
            f"below the promised {zero_fraction}"
        )
    grad = gradient(g)
    num = integrate(ScalarField(grid=g.grid, values=vals))
    den = integrate(ScalarField(grid=g.grid, values=np.sqrt(np.sum(grad * grad, axis=0))))
    span = np.subtract(g.grid.hi, g.grid.origin, dtype=float)
    radius = 0.5 * float(np.sqrt(np.sum(span * span)))
    if den * radius == 0.0:
        return 0.0
    return num / (radius * den)


def l1_gap(
    u_eps: ScalarField, u_limit: ScalarField, term: ReactionTerm, eps: float
) -> float:
    """Integral of |F_eps(u_eps) - indicator(u_limit > 0)| over the grid.

    Args:
        u_eps: field at scale eps.
        u_limit: candidate limit field on the same grid.
        term: reaction term.
        eps: positive scale.

    Returns:
        The L1 gap between the reaction energy density and the indicator.

    Raises:
        ValueError: on grid mismatch or nonpositive eps.
    """
    if u_eps.grid != u_limit.grid:
        raise ValueError("fields must share one grid")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    dens = np.abs(F_eps(term, eps, u_eps.values) - (u_limit.values > 0.0))
    return integrate(ScalarField(grid=u_eps.grid, values=dens))


def _farthest_nearest(p: np.ndarray, q: np.ndarray) -> float:
    """Largest squared distance from a point of p to its nearest point of q.

    A brute force over chunks of p's rows, so the temporary holds about
    _CHUNK_PAIRS pairs.  On integer coordinates every squared distance is
    an exact integer.
    """
    rows = max(1, _CHUNK_PAIRS // len(q))
    return max(
        float(np.max(np.min(np.sum((p[i : i + rows, None] - q) ** 2, axis=-1), axis=1)))
        for i in range(0, len(p), rows)
    )


def hausdorff_distance(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """Symmetric Hausdorff distance between node index sets, in units of h.

    A brute force: it costs O(n·m) for n and m nodes, in chunks of bounded
    memory.  At the CLI defaults of `check --what hausdorff` that is 1206
    band nodes against 402 boundary nodes (564 with `--limit radial`).
    Squared distances between integer indices are exact and sqrt is
    correctly rounded, so the result equals a k-d tree's nearest-neighbor
    maximum.

    Args:
        a: (n, dim) or (n,) integer node indices.
        b: second index set, same dimension.
        h: grid spacing converting index distances to physical ones.

    Returns:
        max over both directed nearest-neighbor maxima, times h.

    Raises:
        ValueError: when either set is empty, the sets differ in dimension,
            or h is nonpositive.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if pa.ndim == 1:
        pa = pa.reshape(-1, 1)
    if pb.ndim == 1:
        pb = pb.reshape(-1, 1)
    if pa.size == 0 or pb.size == 0:
        raise ValueError("both node sets must be nonempty")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"node sets differ in dimension: {pa.shape[1]} and {pb.shape[1]}")
    return h * math.sqrt(max(_farthest_nearest(pa, pb), _farthest_nearest(pb, pa)))


def check_to_json(report: CheckReport) -> dict:
    """Serialize a CheckReport; the passed field is stored as "pass"."""
    payload = to_json(report)
    payload["pass"] = payload.pop("passed")
    return payload


def check_from_json(payload: dict) -> CheckReport:
    """Rebuild a CheckReport from its JSON dict.

    Raises:
        ValueError: on unknown keys, or a stored worst or pass that the
            stored values and threshold do not give.
    """
    fields = dict(payload)
    stored = (fields.pop("worst"), fields.pop("pass"))
    report = from_json(CheckReport, fields)
    if stored != (report.worst, report.passed):
        raise ValueError("stored worst and pass disagree with the scanned values")
    return report
