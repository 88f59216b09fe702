"""One-dimensional profile ODEs: the monotone transition and the wedge family.

Both profiles solve V'' = f_eps(V).  The monotone profile (eps = 1) has
V(0) = T, V'(0) = 1 and decays exponentially to 0 on the left while growing
affinely on the right.  The wedge profile V_eps^s starts flat at the height
eps * Finv(1 - s^2) fixed by the first integral

    (V')^2 = F(V/eps) - F(V(0)/eps)

and approaches the asymptotic slopes +-s.  The first integral doubles as an
a-posteriori oracle for the fixed-step integrator.  `profile_field` and
`wedge_field` lay the profiles along the last coordinate of a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import GridSpec, ScalarField, _column_field
from .potentials import ReactionTerm
from .records import from_json, read_table, write_table

__all__ = [
    "IntegrationFailure",
    "Profile1D",
    "solve_monotone",
    "solve_wedge",
    "first_integral_residual",
    "rescale",
    "profile_field",
    "wedge_field",
    "save_profile",
    "load_profile",
]

_UNDERFLOW_FLOOR = 1e-14


class IntegrationFailure(RuntimeError):
    """The profile left the admissible range; the step size is too large."""


@dataclass(frozen=True)
class Profile1D:
    """Sampled 1D profile with derivative trace.

    Fields:
        eps: scale of the profile (1 for the raw monotone solution).
        kind: "monotone" or "wedge".
        s: asymptotic slope for wedge profiles, None otherwise.
        t: sorted sample grid containing 0.
        V: profile values, nonnegative.
        Vp: derivative values.
        h: grid spacing.
        T: support endpoint of the generating reaction term.
    """

    eps: float
    kind: str
    s: float | None
    t: np.ndarray
    V: np.ndarray
    Vp: np.ndarray
    h: float
    T: float


def _rk4_scan(
    rhs,
    v0: float,
    w0: float,
    step: float,
    n_steps: int,
    neg_tol: float,
    top: float,
    eps: float,
):
    """Integrate V'' = rhs(V) with RK4; stops once V underflows below 1e-14.

    rhs must return a Python float for a Python float argument: the loop
    then runs on plain floats.  The reference term's f takes its Python
    float path at every stage, which gives the bits of its array path.

    rhs(v) must be exactly 0.0 wherever v / eps >= top, as f_eps is at and
    above T*eps.  Once v / eps >= top with w >= 0 and step > 0, every later
    stage lies there too, so each step adds the same c = step/6 * (w + 2w +
    2w + w) to v and 0.0 to w, with w + 0.0 for w as the stages form it,
    and v, above the underflow floor, never falls below it.  The rest of V
    is then one in-place cumulative sum of c, which adds in the loop's
    order and so gives its bits.
    """
    V = np.zeros(n_steps + 1)
    W = np.zeros(n_steps + 1)
    V[0], W[0] = v0, w0
    v, w = v0, w0
    for k in range(n_steps):
        if step > 0.0 and w >= 0.0 and v / eps >= top and v >= _UNDERFLOW_FLOOR:
            w += 0.0
            V[k + 1 :] = step / 6.0 * (w + 2.0 * w + 2.0 * w + w)
            np.cumsum(V[k:], out=V[k:])
            W[k + 1 :] = w
            break
        k1v = w
        k1w = rhs(v)
        k2v = w + 0.5 * step * k1w
        k2w = rhs(v + 0.5 * step * k1v)
        k3v = w + 0.5 * step * k2w
        k3w = rhs(v + 0.5 * step * k2v)
        k4v = w + step * k3w
        k4w = rhs(v + step * k3v)
        v = v + step / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        w = w + step / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if v < _UNDERFLOW_FLOOR:
            if v < -neg_tol:
                raise IntegrationFailure(
                    f"profile reached V = {v:.3e} < 0; reduce the step size"
                )
            # Exponential tail exhausted: the remaining samples are zero.
            break
        V[k + 1], W[k + 1] = v, w
    return V, W


def solve_monotone(
    term: ReactionTerm, t_min: float, t_max: float, h: float
) -> Profile1D:
    """Integrate the monotone profile V'' = f(V), V(0) = T, V'(0) = 1.

    Fourth-order fixed-step integration forward and backward from 0; the grid
    is k*h for k covering [t_min, t_max].  V(t) = T + t holds exactly (to
    integrator roundoff) for t >= 0 since f vanishes above T.

    Args:
        term: reaction term (used at eps = 1).
        t_min: left end of the span, negative.
        t_max: right end of the span, positive.
        h: step size, at most 1e-2 * T.

    Returns:
        Profile1D with eps = 1 and kind "monotone".

    Raises:
        ValueError: on a malformed span or an oversized step.
        IntegrationFailure: if V turns negative beyond tolerance.
    """
    if not (t_min < 0.0 < t_max):
        raise ValueError(f"need t_min < 0 < t_max, got [{t_min}, {t_max}]")
    if not 0.0 < h <= 1e-2 * term.T:
        raise ValueError(f"step h must satisfy 0 < h <= 1e-2*T, got {h}")
    n_neg = int(np.ceil(-t_min / h - 1e-9))
    n_pos = int(np.ceil(t_max / h - 1e-9))
    # Backward integration approaches a saddle along its stable manifold, so
    # truncation error re-excites the growing mode and V can cross zero at
    # roughly the accumulated-error scale (~1e-7 at h = 1e-2).  Excursions
    # below that scale are zero-filled; only larger ones signal a bad term.
    neg_tol = 1e-5 * term.T

    V_fwd, W_fwd = _rk4_scan(term.f, term.T, 1.0, h, n_pos, neg_tol, term.T, 1.0)
    V_bwd, W_bwd = _rk4_scan(term.f, term.T, 1.0, -h, n_neg, neg_tol, term.T, 1.0)

    t = np.arange(-n_neg, n_pos + 1) * h
    V = np.concatenate([V_bwd[::-1], V_fwd[1:]])
    Vp = np.concatenate([W_bwd[::-1], W_fwd[1:]])
    return Profile1D(
        eps=1.0, kind="monotone", s=None, t=t, V=V, Vp=Vp, h=h, T=term.T
    )


def solve_wedge(
    term: ReactionTerm,
    eps: float,
    s: float,
    t_max: float,
    h: float,
) -> Profile1D:
    """Integrate the even wedge profile V'' = f_eps(V) with slope s at infinity.

    The initial height comes from the first integral, V(0) = eps *
    Finv(1 - s^2), V'(0) = 0; the profile is integrated forward and
    mirrored onto [-t_max, 0].

    Args:
        term: reaction term.
        eps: profile scale, positive.
        s: asymptotic slope, strictly inside (0, 1).
        t_max: half-span of the sample grid, positive.
        h: step size, positive.

    Returns:
        Profile1D with kind "wedge"; V(-t) = V(t) by construction.

    Raises:
        ValueError: if s is outside (0, 1) or parameters are malformed.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"wedge slope must lie in (0, 1), got {s}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (t_max > 0 and h > 0):
        raise ValueError("t_max and h must be positive")

    def rhs(v: float) -> float:
        return term.f(v / eps) / eps

    n_pos = int(np.ceil(t_max / h - 1e-9))
    neg_tol = 1e-9 * term.T * eps

    v0 = eps * term.Finv(1.0 - s * s)
    V_fwd, W_fwd = _rk4_scan(rhs, v0, 0.0, h, n_pos, neg_tol, term.T, eps)
    t = np.arange(-n_pos, n_pos + 1) * h
    V = np.concatenate([V_fwd[::-1], V_fwd[1:]])
    Vp = np.concatenate([-W_fwd[::-1], W_fwd[1:]])
    return Profile1D(eps=eps, kind="wedge", s=s, t=t, V=V, Vp=Vp, h=h, T=term.T)


def first_integral_residual(p: Profile1D, term: ReactionTerm) -> float:
    """Worst violation of (V')^2 - V'(0)^2 = F(V/eps) - F(V(0)/eps) on the grid."""
    i0 = int(np.argmin(np.abs(p.t)))
    lhs = p.Vp**2 - p.Vp[i0] ** 2
    rhs = np.asarray(term.F(p.V / p.eps)) - term.F(p.V[i0] / p.eps)
    return float(np.max(np.abs(lhs - rhs)))


def _profile_at(p: Profile1D, tq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and V' of p at the arguments tq.

    Arguments that fall outside the stored span use affine continuation
    from the nearest end (exact wherever the reaction vanishes) clamped
    at 0.
    """
    V = np.interp(tq, p.t, p.V)
    Vp = np.interp(tq, p.t, p.Vp)
    left = tq < p.t[0]
    right = tq > p.t[-1]
    V[left] = p.V[0] + p.Vp[0] * (tq[left] - p.t[0])
    Vp[left] = p.Vp[0]
    V[right] = p.V[-1] + p.Vp[-1] * (tq[right] - p.t[-1])
    Vp[right] = p.Vp[-1]
    clamped = V < 0.0
    V[clamped] = 0.0
    Vp[clamped] = 0.0
    return V, Vp


def rescale(p: Profile1D, eps_new: float) -> Profile1D:
    """Rescale a profile to a new eps: t -> (eps_new/eps) * V(t * eps/eps_new).

    The result is resampled on the original grid span, continued past the
    stored span as _profile_at does.
    """
    if not eps_new > 0:
        raise ValueError(f"eps_new must be positive, got {eps_new}")
    lam = eps_new / p.eps
    V, Vp = _profile_at(p, p.t / lam)
    return Profile1D(
        eps=eps_new,
        kind=p.kind,
        s=p.s,
        t=p.t.copy(),
        V=lam * V,
        Vp=Vp,
        h=p.h,
        T=p.T,
    )


# One monotone profile per term value: make_reference builds new closures on
# every call, so a term object would miss the cache on each run of `sweep`.
_MONOTONE: dict[tuple, Profile1D] = {}


def profile_field(term: ReactionTerm, grid: GridSpec, eps: float) -> ScalarField:
    """eps * V(y / eps) on grid, y its last coordinate, V the monotone profile.

    V spans [-30T, 30T] at step 1e-3 * T, is built once per (family, T,
    samples) of the term, and continues past its span as _profile_at does.
    """
    key = (term.family, term.T, term.samples)
    if key not in _MONOTONE:
        _MONOTONE[key] = solve_monotone(term, -30.0 * term.T, 30.0 * term.T, 1e-3 * term.T)
    return _column_field(grid, eps * _profile_at(_MONOTONE[key], grid.axes()[-1] / eps)[0])


def wedge_field(term: ReactionTerm, grid: GridSpec, eps: float, s: float) -> ScalarField:
    """V_eps^s(y) on grid, y its last coordinate, linear between the samples
    of a profile one spacing past the grid at step min(1e-4, h / 4)."""
    y = grid.axes()[-1]
    span = float(np.max(np.abs([y.min(), y.max()])))
    p = solve_wedge(term, eps, s, span + grid.h, min(1e-4, grid.h / 4.0))
    return _column_field(grid, np.interp(y, p.t, p.V))


def save_profile(p: Profile1D, path: str | Path) -> None:
    """Write the profile as a `records` table "t,V,Vp" with its metadata sidecar."""
    sidecar = {"eps": p.eps, "kind": p.kind, "s": p.s, "h": p.h, "T": p.T}
    write_table(path, "t,V,Vp", np.column_stack([p.t, p.V, p.Vp]), sidecar)


def load_profile(path: str | Path) -> Profile1D:
    """Read a profile written by save_profile."""
    rows, meta = read_table(path)
    return from_json(Profile1D, {**meta, "t": rows[:, 0], "V": rows[:, 1], "Vp": rows[:, 2]})
