"""Reaction terms f and their potentials F for the singular perturbation problem.

A reaction term is a nonnegative function f supported on [0, T] whose
antiderivative F(v) = int_0^v 2 f(s) ds satisfies F(T) = 1, together with a
linearity window [0, tau] on which c0 * s <= f(s) <= s / c0.  The epsilon
rescalings f_eps(t) = f(t/eps)/eps and F_eps(t) = F(t/eps) drive the solver;
F_eps degenerates to the indicator of {t > 0} as eps -> 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

__all__ = [
    "ReactionTerm",
    "make_reference",
    "make_tabulated",
    "f_eps",
    "F_eps",
    "validate",
    "term_to_json",
    "term_from_json",
]

_BISECT_TOL = 1e-12
_VALIDATE_SAMPLES = 10_000  # sampling points of each condition in validate

# The T that make_reference takes: a round range inside the one where T^4
# and a = 6/T^4 are finite positive floats (about 1.4e-77 to 1.2e77).
_T_RANGE = (1e-76, 1e76)


@dataclass(frozen=True)
class ReactionTerm:
    """A reaction nonlinearity with its antiderivative and inverse.

    Fields:
        T: support endpoint of f (f vanishes outside [0, T]).
        tau: right end of the linearity window, 0 < tau <= T.
        c0: window constant in (0, 1], c0*s <= f(s) <= s/c0 on [0, tau].
        f: the nonlinearity, vectorized over numpy arrays; 0 off (0, T).
        F: antiderivative of 2f, clamped to 0 below 0 and to F(T) above T.
            f, F, fprime and the root run a family's kernels only on the
            band (0, T) of an array (see _assemble).
        fprime: derivative of f (one-sided at kinks for tabulated terms).
        Finv: inverse of F on [0, 1] -> [0, T], resolved by bisection.
        shifted_inverse: shifted_inverse(k) returns root(m), the
            minimizer s >= 0 of k*s^2/2 - m*s + F(s)/2 for m >= 0: the root
            of k*s + f(s) = m, or the s of the jump of f that m falls in,
            elementwise and exact to rounding.  It raises ValueError unless
            k*s + f(s) increases strictly, that is unless that energy is
            strictly convex.
        family: "reference" or "tabulated", used for serialization.
        samples: tabulated (s, f(s)) rows, None for the reference family.
    """

    T: float
    tau: float
    c0: float
    f: Callable[[Any], Any]
    F: Callable[[Any], Any]
    fprime: Callable[[Any], Any]
    Finv: Callable[[float], float]
    shifted_inverse: Callable[[float], Callable[[Any], np.ndarray]]
    family: str = "reference"
    samples: tuple[tuple[float, float], ...] | None = None


def _scalarize(x: np.ndarray) -> Any:
    return float(x) if x.ndim == 0 else x


def _bisect_inverse(F: Callable[[float], float], T: float) -> Callable[[float], float]:
    def Finv(y: float) -> float:
        y = float(y)
        if not -1e-12 <= y <= 1.0 + 1e-12:
            raise ValueError(f"Finv argument must lie in [0, 1], got {y}")
        y = min(max(y, 0.0), 1.0)
        lo, hi = 0.0, T
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # lo and hi are adjacent floats (spacing(T) > _BISECT_TOL).
                break
            if F(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return Finv


def _assemble(T: float, F_top: float, f_band, F_band, fprime_band, band_root, **fields: Any):
    """Build a ReactionTerm (with **fields) from a family's kernels on (0, T).

    Off the band every kernel is a constant or linear, and this is the one
    owner of that rule: f and f' are 0 off (0, T), nan included; F is 0 at
    or below 0 and F_top at or above T, and a nan goes through F_band; the
    node root is m/k for m >= k*T, and every root is projected to s >= 0.
    A kernel runs only on the nodes of an array in its band, elementwise,
    so each node gets the bits of the whole-array expression.  Most nodes
    of a solve lie off the band.  f_band takes a Python float to a Python
    float, as the RK4 profile calls f once per stage.  band_root(k) raises
    ValueError unless k*s + f(s) increases strictly, and else returns the
    root of k*s + f(s) = m for m < k*T or nan.
    """

    def on_band(kernel: Callable[[np.ndarray], np.ndarray], s: Any) -> Any:
        s_arr = np.asarray(s, dtype=float)
        out = np.zeros(s_arr.shape)
        band = (s_arr > 0.0) & (s_arr < T)
        out[band] = kernel(s_arr[band])
        return _scalarize(out)

    def f(s: Any) -> Any:
        if type(s) is float:
            return f_band(s) if 0.0 < s < T else 0.0
        return on_band(f_band, s)

    def F(v: Any) -> Any:
        v_arr = np.asarray(v, dtype=float)
        top = v_arr >= T
        out = np.where(top, F_top, 0.0)
        # Not (v > 0) & (v < T): F(nan) is nan.
        band = ~(top | (v_arr <= 0.0))
        out[band] = F_band(v_arr[band])
        return _scalarize(out)

    def shifted_inverse(k: float) -> Callable[[Any], np.ndarray]:
        root_on_band = band_root(k)
        top = k * T

        def root(m: Any) -> np.ndarray:
            m = np.asarray(m, dtype=float)
            out = np.empty(m.shape)
            np.divide(m, k, out=out)
            # Not m < top: a nan m takes the band root.
            band = ~(m >= top)
            out[band] = root_on_band(m[band])
            return np.maximum(out, 0.0, out=out)

        return root

    fprime = functools.partial(on_band, fprime_band)
    Finv = _bisect_inverse(F, T)
    return ReactionTerm(
        T, f=f, F=F, fprime=fprime, Finv=Finv, shifted_inverse=shifted_inverse, **fields
    )


def make_reference(T: float) -> ReactionTerm:
    """Build the reference family f(s) = (6/T^4) s (T - s)^2 on [0, T].

    Its antiderivative is F(v) = (12/T^4)(T^2 v^2/2 - 2T v^3/3 + v^4/4),
    which reduces to 6v^2 - 8v^3 + 3v^4 at T = 1 and satisfies F(T) = 1.
    The window is tau = T/2 with c0 = min(3/(2T^2), T^2/6), the largest
    constant compatible with f(s)/s = (6/T^4)(T - s)^2 on [0, tau]; at
    T = 1 this gives c0 = 1/6.

    f and F are products and quotients, with no `**`: + - * / round
    correctly on every path, so a Python float, a 0-d array and an array
    element get the same bits whichever SIMD kernels numpy picks.

    Args:
        T: support endpoint, must be positive.

    Returns:
        The assembled ReactionTerm.

    Raises:
        ValueError: if T is not in [1e-76, 1e76], so that 6/T^4 would not
            be a finite positive float (or not a number at all).
    """
    lo, hi = _T_RANGE
    if not lo <= T <= hi:
        raise ValueError(
            f"T must lie in [{lo:g}, {hi:g}], where 6/T^4 is finite and positive; got {T}"
        )
    T = float(T)
    a = 6.0 / T**4

    def f(s: Any) -> Any:
        d = T - s
        return a * s * (d * d)

    def F(v: np.ndarray) -> np.ndarray:
        v2 = v * v
        return 2.0 * a * (T * T * v2 / 2.0 - 2.0 * T * (v2 * v) / 3.0 + v2 * v2 / 4.0)

    def fprime(s: np.ndarray) -> np.ndarray:
        return a * (T - s) * (T - 3.0 * s)

    def band_root(k: float) -> Callable[[np.ndarray], np.ndarray]:
        # On [0, T], k*s + f(s) = m is the cubic a*s*(T - s)^2 + k*s = m;
        # s = x + 2T/3 depresses it to x^3 + p*x + q = 0 with
        # q = (2T/3)*(T^2/9 + k/a) - m/a.  min f' = -2/T^2, so the left side
        # increases strictly exactly when p > 0, and then the one real root
        # is x = -2*r*sinh(asinh(q/(2*r^3))/3) with r = sqrt(p/3) (Holmes,
        # Math. Gazette 86, 2002).
        p = k / a - T**2 / 3.0
        if not p > 0.0:
            raise ValueError(
                f"k*s + f(s) is not strictly increasing: k = {k:g} is not above"
                f" 2/T^2 = {2.0 / T**2:g}"
            )
        r = math.sqrt(p / 3.0)
        z0 = (2.0 * T / 3.0) * (T**2 / 9.0 + k / a) / (2.0 * r**3)
        zm = -1.0 / (2.0 * a * r**3)

        def root(m: np.ndarray) -> np.ndarray:
            s0 = np.multiply(m, zm)
            s0 += z0
            np.arcsinh(s0, out=s0)
            s0 /= 3.0
            np.sinh(s0, out=s0)
            s0 *= -2.0 * r
            s0 += 2.0 * T / 3.0
            # One Newton step on the cubic P, as (s*P'(s) - P(s))/P'(s) =
            # (m + 2a*s^2*(s - T))/P'(s): it restores the relative accuracy
            # that the shift by 2T/3 costs where s << 1, and it sends
            # m = 0 to s <= 0.  P' >= k - 2/T^2 > 0.
            step = np.subtract(s0, T)
            step *= s0
            step *= s0
            step *= 2.0 * a
            step += m
            d = np.multiply(s0, 3.0 * a)
            d -= 4.0 * a * T
            d *= s0
            d += a * T**2 + k
            step /= d
            return step

        return root

    c0 = min(3.0 / (2.0 * T**2), T**2 / 6.0)
    return _assemble(T, 1.0, f, F, fprime, band_root, tau=T / 2.0, c0=c0, family="reference")


def make_tabulated(
    samples: Any,
    tau: float | None = None,
    c0: float | None = None,
) -> ReactionTerm:
    """Build a reaction term from (s, f(s)) rows by linear interpolation.

    F is the exact (piecewise quadratic) antiderivative of 2f, clamped outside
    the sample span; no normalization is enforced (validate reports it).

    Args:
        samples: iterable of (s, f(s)) pairs covering [0, T], s increasing.
        tau: linearity window end in (0, T]; defaults to T/2.
        c0: window constant in (0, 1]; defaults to the worst measured
            ratio on (0, tau].

    Returns:
        The assembled ReactionTerm with family "tabulated".
    """
    rows = np.asarray(list(samples), dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
        raise ValueError("samples must be an (n, 2) table with n >= 2")
    s_grid = rows[:, 0]
    f_grid = rows[:, 1]
    if not np.all(np.diff(s_grid) > 0):  # a nan abscissa fails too
        raise ValueError("sample abscissae must be strictly increasing")
    T = float(s_grid[-1])
    if not T > 0:
        raise ValueError("last sample abscissa must be positive")
    if not np.all(np.isfinite(rows)):
        raise ValueError("samples must be finite")
    for name, value in (("tau", tau), ("c0", c0)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    for name, value, top in (("tau", tau, T), ("c0", c0, 1.0)):
        if value is not None and value > top:
            raise ValueError(f"{name} must be at most {top}, got {value}")

    cumulative = np.concatenate(
        [[0.0], np.cumsum(np.diff(s_grid) * (f_grid[:-1] + f_grid[1:]))]
    )
    slopes = np.diff(f_grid) / np.diff(s_grid)

    def interval(s: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(s_grid, s, side="right") - 1, 0, len(slopes) - 1)

    def f(s: Any) -> Any:
        val = np.interp(s, s_grid, f_grid, left=0.0)
        # np.interp takes a Python float to a numpy scalar.
        return float(val) if type(s) is float else val

    def F(v: np.ndarray) -> np.ndarray:
        idx = interval(v)
        d = np.maximum(v - s_grid[idx], 0.0)
        return cumulative[idx] + d * (2.0 * f_grid[idx] + slopes[idx] * d)

    # The knots of f on [0, T]: f is 0 at s = 0 and below the first row,
    # so a row value there is a jump, two knots at one s.
    xk = np.concatenate([[0.0, max(s_grid[0], 0.0)], s_grid[s_grid > 0.0]])
    fk = np.concatenate(
        [[0.0, np.interp(0.0, s_grid, f_grid, left=0.0)], f_grid[s_grid > 0.0]]
    )

    def band_root(k: float) -> Callable[[np.ndarray], np.ndarray]:
        # k*s + f(s) is linear between the knots, so one knot search and one
        # interpolation give the exact root; on a jump the root stays at its s.
        knots = k * xk + fk
        keep = np.concatenate([[True], (np.diff(xk) != 0.0) | (np.diff(knots) != 0.0)])
        xs, knots = xk[keep], knots[keep]
        if f_grid[-1] != 0.0 or not np.all(np.diff(knots) > 0.0):
            raise ValueError(
                f"k*s + f(s) is not strictly increasing at k = {k:g}: its knot"
                f" values must rise and f(T) = {f_grid[-1]:g} must be 0"
            )
        rate = np.diff(xs) / np.diff(knots)

        def root(m: np.ndarray) -> np.ndarray:
            i = np.clip(np.searchsorted(knots, m, side="right") - 1, 0, len(rate) - 1)
            return xs[i] + (m - knots[i]) * rate[i]

        return root

    tau = T / 2.0 if tau is None else float(tau)
    term = _assemble(
        T, float(cumulative[-1]), f, F, lambda s: slopes[interval(s)], band_root,
        tau=tau, c0=c0, family="tabulated", samples=tuple((float(s), float(v)) for s, v in rows),
    )
    if c0 is None:
        window = s_grid[(s_grid > 0.0) & (s_grid <= tau)]
        ratios = np.asarray(term.f(window)) / window if window.size else np.asarray([1.0])
        lo = float(np.min(ratios))
        hi = float(np.max(ratios))
        c0 = min(max(lo, 1e-12), 1.0 / max(hi, 1e-12), 1.0)
    return replace(term, c0=float(c0))


def f_eps(term: ReactionTerm, eps: float, t: Any) -> Any:
    """Rescaled reaction f_eps(t) = f(t/eps) / eps; vanishes off (0, T*eps).

    Raises:
        ValueError: if eps is not finite and positive.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be {'finite' if eps > 0 else 'positive'}, got {eps}")
    return term.f(np.asarray(t, dtype=float) / eps) / eps


def F_eps(term: ReactionTerm, eps: float, t: Any) -> Any:
    """Rescaled potential F_eps(t) = F(t/eps), indicator of {t > 0} at eps = 0.

    For eps > 0 the value is clamped to 0 for t <= 0 and saturates at 1 for
    t >= T*eps.  eps must be finite and nonnegative.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be {'finite' if eps > 0 else 'nonnegative'}, got {eps}")
    t_arr = np.asarray(t, dtype=float)
    if eps == 0:
        return _scalarize((t_arr > 0.0).astype(float))
    return term.F(t_arr / eps)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd number of samples y at nodes x.

    scipy.integrate.simpson's odd-N rule, operation for operation: each pair
    of intervals is weighted by its own spacings h0 and h1, so a uniform x
    gives scipy's bits.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
    pairs = y0 * (2.0 - 1.0 / ratio) + y1 * (hsum * (hsum / (h0 * h1))) + y2 * (2.0 - ratio)
    return float(np.sum(hsum / 6.0 * pairs))


def validate(term: ReactionTerm) -> dict[str, Any]:
    """Check the structural conditions on a reaction term by sampling.

    Four conditions are measured: nonnegativity of f, support in [0, T],
    the normalization int_0^T 2 f = 1 (composite Simpson quadrature on
    _VALIDATE_SAMPLES + 1 points), and the window bound c0*s <= f(s) <= s/c0
    on (0, tau].  Failures are reported, never raised.

    Args:
        term: the reaction term under test.

    Returns:
        {"passed": bool, "conditions": {name: {"passed", "worst", ...}}}.
    """
    T, tau, c0, n = term.T, term.tau, term.c0, _VALIDATE_SAMPLES
    slack = 1e-9

    s_in = np.linspace(0.0, T, n)
    f_in = np.asarray(term.f(s_in), dtype=float)
    nonneg_worst = float(np.min(f_in))
    nonneg = {"passed": bool(nonneg_worst >= -slack), "worst": nonneg_worst}

    s_out = np.concatenate(
        [np.linspace(-T, 0.0, n // 4), np.linspace(T, 2.0 * T, n // 4)]
    )
    support_worst = float(np.max(np.abs(np.asarray(term.f(s_out), dtype=float))))
    support = {"passed": bool(support_worst <= slack), "worst": support_worst}

    s_quad = np.linspace(0.0, T, n + 1)  # Simpson takes an odd count
    mass = _simpson(2.0 * np.asarray(term.f(s_quad), dtype=float), s_quad)
    norm_worst = abs(mass - 1.0)
    normalization = {"passed": bool(norm_worst <= 1e-8), "worst": norm_worst, "integral": mass}

    s_win = np.linspace(tau / n, tau, n)
    ratios = np.asarray(term.f(s_win), dtype=float) / s_win
    lower_worst = float(np.min(ratios / c0))
    upper_worst = float(np.max(ratios * c0))
    window = {
        "passed": bool(lower_worst >= 1.0 - slack and upper_worst <= 1.0 + slack),
        "worst_lower": lower_worst,
        "worst_upper": upper_worst,
    }

    conditions = {
        "nonnegativity": nonneg,
        "support": support,
        "normalization": normalization,
        "window": window,
    }
    return {
        "passed": bool(all(c["passed"] for c in conditions.values())),
        "conditions": conditions,
    }


def term_to_json(term: ReactionTerm) -> dict[str, Any]:
    """Serialize a term to a JSON-compatible dict."""
    if term.family == "reference":
        return {"family": "reference", "T": term.T, "tau": term.tau, "c0": term.c0}
    return {
        "family": "tabulated",
        "samples": [list(row) for row in (term.samples or ())],
        "tau": term.tau,
        "c0": term.c0,
    }


def term_from_json(data: dict[str, Any]) -> ReactionTerm:
    """Rebuild a term from its JSON dict form.

    Raises:
        ValueError: on unknown family or malformed payload.
    """
    family = data.get("family")
    if family == "reference":
        return make_reference(float(data["T"]))
    if family == "tabulated":
        return make_tabulated(
            data["samples"],
            tau=data.get("tau"),
            c0=data.get("c0"),
        )
    raise ValueError(f"unknown reaction term family: {family!r}")
