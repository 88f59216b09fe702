from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from onephase import ode1d
from onephase.field import make_grid
from onephase.ode1d import (
    IntegrationFailure,
    _rk4_scan,
    first_integral_residual,
    load_profile,
    profile_field,
    rescale,
    save_profile,
    solve_monotone,
    solve_wedge,
)
from onephase.potentials import make_reference, make_tabulated


def _term():
    return make_reference(1.0)


def test_monotone_is_affine_on_the_right():
    p = solve_monotone(_term(), t_min=-1.0, t_max=1.0, h=1e-3)
    i = int(np.argmin(np.abs(p.t - 0.7)))
    assert p.V[i] == pytest.approx(1.7, abs=1e-12)
    assert p.Vp[i] == pytest.approx(1.0, abs=1e-12)


def test_monotone_first_integral_residual():
    term = _term()
    p = solve_monotone(term, t_min=-3.0, t_max=1.0, h=1e-3)
    assert first_integral_residual(p, term) < 1e-8
    assert np.all(p.V >= 0.0)
    assert np.all(np.diff(p.V) > -1e-15)


def test_monotone_residual_halves_sixteenfold_with_h():
    term = _term()
    res = []
    for h in (1e-2, 5e-3, 2.5e-3):
        p = solve_monotone(term, t_min=-3.0, t_max=1.0, h=h)
        res.append(first_integral_residual(p, term))
    for coarse, fine in zip(res, res[1:]):
        assert 8.0 < coarse / fine < 32.0


def test_monotone_exponential_tail_bound():
    term = _term()
    p = solve_monotone(term, t_min=-6.0, t_max=0.5, h=2e-3)
    v1 = np.interp(-1.0, p.t, p.V)
    tail = p.t <= -1.0
    bound = v1 * np.exp(np.sqrt(term.c0) * (p.t[tail] + 1.0))
    assert np.all(p.V[tail] <= bound * (1.0 + 1e-9))


def _exact_time(V, T):
    # Reference family: V' = sqrt(F(V)) integrates in closed form,
    # t(V) = T (G(V/T) - G(1)).
    r6 = np.sqrt(6.0)

    def G(v):
        root = np.sqrt(3.0 * v * v - 8.0 * v + 6.0)
        return -np.log((12.0 - 8.0 * v + 2.0 * r6 * root) / v) / r6

    return T * (G(V / T) - G(1.0))


@pytest.mark.parametrize("T", [1.0, 2.0])
def test_monotone_matches_closed_form_near_the_layer(T):
    # Only t >= -2T: deeper in the tail the backward RK4 drifts off the
    # stable manifold of the saddle at 0 (6.6e-4 in t at t = -6, T = 1).
    p = solve_monotone(make_reference(T), t_min=-30.0, t_max=30.0, h=1e-3)
    window = (p.t >= -2.0 * T) & (p.t <= 0.0)
    assert np.max(np.abs(_exact_time(p.V[window], T) - p.t[window])) <= 1e-10


def test_default_monotone_profile_bits_are_pinned():
    # The CLI promises byte-identical profile CSVs, so any reordering of the
    # RK4 sums or of f must show here.  The tail samples carry the most
    # accumulated roundoff; below t = -7.312 the tail is zero-filled.
    p = solve_monotone(_term(), t_min=-30.0, t_max=30.0, h=1e-3)
    assert p.t.shape == (60_001,)
    pinned = {
        -12.0: ("0x0.0p+0", "0x0.0p+0"),
        -7.312: ("0x1.a8e60a38dcc42p-34", "0x1.d7fde2e868452p-23"),
        -7.0: ("0x1.4495812e611cap-24", "0x1.348c5a34071b0p-22"),
        -5.0: ("0x1.b21f6ddc55216p-17", "0x1.09d952b8dd0d0p-15"),
        -1.0: ("0x1.9d0fe081c45fbp-3", "0x1.b6885d7de669bp-2"),
        -0.001: ("0x1.ff7ced91698c0p-1", "0x1.ffffffeed5408p-1"),
        0.5: ("0x1.7ffffffffff08p+0", "0x1.0000000000000p+0"),
        10.0: ("0x1.5fffffffffe8ep+3", "0x1.0000000000000p+0"),
    }
    for t, (v_hex, vp_hex) in pinned.items():
        i = int(np.argmin(np.abs(p.t - t)))
        assert (float(p.V[i]).hex(), float(p.Vp[i]).hex()) == (v_hex, vp_hex), t
    assert int(np.count_nonzero(p.V == 0.0)) == 22_688


def test_monotone_rejects_bad_span_and_step():
    term = _term()
    with pytest.raises(ValueError):
        solve_monotone(term, t_min=0.5, t_max=1.0, h=1e-3)
    with pytest.raises(ValueError):
        solve_monotone(term, t_min=-1.0, t_max=1.0, h=0.5)


def test_integration_failure_on_inadmissible_reaction():
    # A negative reaction drives V below zero; the guard must trip.
    bogus = make_tabulated([[0.0, -10.0], [1.0, -10.0]])
    with pytest.raises(IntegrationFailure):
        solve_monotone(bogus, t_min=-1.0, t_max=0.1, h=1e-2)


def test_wedge_initial_height_from_first_integral():
    term = _term()
    p = solve_wedge(term, eps=1.0, s=np.sqrt(0.3125), t_max=2.0, h=1e-3)
    i0 = int(np.argmin(np.abs(p.t)))
    assert p.V[i0] == pytest.approx(0.5, abs=1e-10)
    assert p.Vp[i0] == 0.0


def test_wedge_symmetry_and_nonnegativity():
    p = solve_wedge(_term(), eps=0.5, s=0.6, t_max=3.0, h=1e-3)
    assert np.allclose(p.V, p.V[::-1], atol=1e-12)
    assert np.allclose(p.Vp, -p.Vp[::-1], atol=1e-12)
    assert np.all(p.V >= 0.0)


def test_wedge_asymptotic_slopes():
    term = _term()
    for s in (0.25, 0.5, 0.75):
        p = solve_wedge(term, eps=1.0, s=s, t_max=12.0, h=2e-3)
        assert abs(p.Vp[-1] - s) < 1e-4
        assert abs(p.Vp[0] + s) < 1e-4
        assert first_integral_residual(p, term) < 1e-7


def test_wedge_slope_monotone_in_s():
    term = _term()
    slopes = []
    for s in np.arange(0.1, 0.95, 0.1):
        p = solve_wedge(term, eps=1.0, s=float(s), t_max=12.0, h=5e-3)
        slopes.append(p.Vp[-1])
    assert np.all(np.diff(slopes) > 0.0)


def test_wedge_shooting_route_agrees():
    # Shoot on the initial height: the terminal slope is monotone
    # decreasing in V(0), so plain bisection is safe.
    term = _term()
    s, t_max, h = 0.5, 8.0, 2e-3
    p_fi = solve_wedge(term, eps=1.0, s=s, t_max=t_max, h=h)
    n_pos = int(np.ceil(t_max / h - 1e-9))
    lo, hi = 0.0, term.T
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, W = _rk4_scan(term.f, mid, 0.0, h, n_pos, 1e-9 * term.T, term.T, 1.0)
        if W[-1] > s:
            lo = mid
        else:
            hi = mid
    i0 = int(np.argmin(np.abs(p_fi.t)))
    assert 0.5 * (lo + hi) == pytest.approx(p_fi.V[i0], abs=1e-8)


def test_wedge_rejects_degenerate_slopes():
    term = _term()
    for s in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            solve_wedge(term, eps=1.0, s=s, t_max=1.0, h=1e-3)


@pytest.mark.parametrize(
    "eps, t_max, h, message",
    [
        (0.0, 1.0, 1e-3, "eps must be positive, got 0.0"),
        (math.nan, 1.0, 1e-3, "eps must be positive, got nan"),
        (1.0, 0.0, 1e-3, "t_max and h must be positive"),
        (1.0, math.nan, 1e-3, "t_max and h must be positive"),
        (1.0, 1.0, -1e-3, "t_max and h must be positive"),
    ],
)
def test_wedge_refuses_malformed_scales(eps, t_max, h, message):
    with pytest.raises(ValueError, match=message):
        solve_wedge(_term(), eps=eps, s=0.5, t_max=t_max, h=h)


def test_degenerate_wedge_family_stays_below_twice_eps():
    term = _term()
    for eps in (0.1, 0.05):
        p = solve_wedge(term, eps=eps, s=eps, t_max=1.0, h=eps / 50.0)
        assert float(np.max(p.V)) <= 2.0 * eps


def test_rescale_identity():
    p = solve_wedge(_term(), eps=0.5, s=0.4, t_max=2.0, h=1e-3)
    q = rescale(p, 0.5)
    assert np.array_equal(q.V, p.V)
    assert np.array_equal(q.Vp, p.Vp)
    assert np.array_equal(q.t, p.t)


def test_rescaled_wedge_blows_down_to_slope_cone():
    term = _term()
    s = 0.5
    base = solve_wedge(term, eps=1.0, s=s, t_max=25.0, h=5e-3)
    errs = {}
    for eps in (0.2, 0.1, 0.05):
        q = rescale(base, eps)
        window = np.abs(q.t) <= 1.0
        errs[eps] = float(np.max(np.abs(q.V[window] - s * np.abs(q.t[window]))))
    # The worst distance sits at t = 0 and equals eps * Finv(1 - s^2).
    v0 = term.Finv(1.0 - s * s)
    for eps, err in errs.items():
        assert err == pytest.approx(eps * v0, rel=1e-3)
    assert errs[0.2] > errs[0.1] > errs[0.05]


def test_rescaled_monotone_converges_to_positive_part():
    term = _term()
    base = solve_monotone(term, t_min=-30.0, t_max=2.0, h=1e-2)
    prev = np.inf
    for eps in (0.2, 0.1, 0.05):
        q = rescale(base, eps)
        window = np.abs(q.t) <= 1.0
        err = float(np.max(np.abs(q.V[window] - np.maximum(q.t[window], 0.0))))
        assert err <= 1.05 * eps * term.T
        assert err < prev
        prev = err


def test_profile_field_builds_one_profile_per_term_value(monkeypatch):
    # Each reference term has its own closures, as sweep's runs make them;
    # equal terms share one build, and a tabulated term of the same T does not.
    built = []

    def counted(term, *span):
        built.append(term.family)
        return solve_monotone(term, *span)

    monkeypatch.setattr(ode1d, "_MONOTONE", {})
    monkeypatch.setattr(ode1d, "solve_monotone", counted)
    grid = make_grid(-1.0, 1.0, 41)
    one, other = make_reference(1.0), make_reference(1.0)
    first = profile_field(one, grid, 0.1)
    profile_field(other, grid, 0.2)
    assert built == ["reference"]
    s = np.linspace(0.0, 1.0, 41)
    table = make_tabulated(np.column_stack([s, 6.0 * s * (1.0 - s) ** 2]))
    assert table.T == 1.0
    tabulated = profile_field(table, grid, 0.1)
    assert built == ["reference", "tabulated"]
    assert not np.array_equal(tabulated.values, first.values)


def test_profile_field_continues_past_the_cached_span():
    # y / eps = 50 lies past the cached profile's end at 30 T.  f vanishes
    # above T, so V(t) = T + t there: the top node is eps * (1 + 50).
    u = profile_field(_term(), make_grid(-1.0, 1.0, 201), 0.02)
    assert u.values[0] == 0.0
    assert u.values[-1] == pytest.approx(0.02 * 51.0, abs=1e-12)


def test_residual_detects_perturbed_profile():
    term = _term()
    p = solve_monotone(term, t_min=-3.0, t_max=1.0, h=1e-3)
    noisy = dataclasses.replace(p, V=p.V + 1e-3)
    assert first_integral_residual(noisy, term) > 1e-4


def test_residual_of_flat_zero_profile_is_zero():
    term = _term()
    t = np.linspace(-1.0, 1.0, 201)
    flat = solve_monotone(term, t_min=-1.0, t_max=1.0, h=1e-2)
    flat = dataclasses.replace(flat, V=np.zeros_like(flat.V), Vp=np.zeros_like(flat.Vp))
    assert first_integral_residual(flat, term) == 0.0
    assert t.shape  # silences unused warning in case of refactor


def test_profile_csv_round_trip(tmp_path):
    p = solve_wedge(_term(), eps=0.25, s=0.3, t_max=1.0, h=1e-3)
    path = tmp_path / "wedge.csv"
    save_profile(p, path)
    q = load_profile(path)
    assert np.array_equal(q.t, p.t)
    assert np.array_equal(q.V, p.V)
    assert np.array_equal(q.Vp, p.Vp)
    assert (q.eps, q.kind, q.s, q.h, q.T) == (p.eps, p.kind, p.s, p.h, p.T)
    header = path.read_text().splitlines()[0]
    assert header == "t,V,Vp"


def _plain_rk4(rhs, v0, w0, step, n_steps):
    """The RK4 stepping loop of _rk4_scan, without its affine fill."""
    V, W = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    V[0], W[0] = v0, w0
    v, w = v0, w0
    for k in range(n_steps):
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
        if v < 1e-14:
            break
        V[k + 1], W[k + 1] = v, w
    return V, W


def _same_bits(a: tuple, b: tuple) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("T", [0.37, 1.0, 2.0, 100.0, 1e5])
def test_monotone_affine_fill_is_the_stepping_loop(T):
    # Above the band f is exactly 0, so from the first step on the forward
    # monotone scan is one cumulative sum; the backward scan keeps stepping.
    # A start above the band with a slope that is no round number must
    # give the loop's bits too.
    term = make_reference(T)
    h = 1e-2 * T if T >= 100.0 else 1e-3
    for start in ((term.T, 1.0, h), (term.T, 1.0, -h), (1.3 * T, 0.61, 1.3 * h)):
        got = _rk4_scan(term.f, *start, 5000, 1e-5 * T, term.T, 1.0)
        assert _same_bits(got, _plain_rk4(term.f, *start, 5000))


@pytest.mark.parametrize("T", [1.0, 2.0])
@pytest.mark.parametrize("eps", [1.0, 0.1])
@pytest.mark.parametrize("s2", [0.25, 0.3125])
def test_wedge_affine_fill_is_the_stepping_loop(T, eps, s2):
    # The wedge steps across the band, then v / eps >= T switches to the sum.
    term = make_reference(T)

    def rhs(v: float) -> float:
        return term.f(v / eps) / eps

    v0, h = eps * term.Finv(1.0 - s2), 1e-3 * eps
    got = _rk4_scan(rhs, v0, 0.0, h, 10_000, 1e-9 * T * eps, term.T, eps)
    want = _plain_rk4(rhs, v0, 0.0, h, 10_000)
    assert _same_bits(got, want)
    assert got[0][-1] > eps * T and got[1][-1] == pytest.approx(s2**0.5, rel=1e-6)
    # The profile's right half; its Vp at t = 0 is the mirror's -0.0.
    p = solve_wedge(term, eps, s2**0.5, t_max=10.0 * eps, h=h)
    assert _same_bits((p.V[10_000:], p.Vp[10_001:]), (want[0], want[1][1:]))
