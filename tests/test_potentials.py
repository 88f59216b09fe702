from __future__ import annotations

import math

import numpy as np
import pytest

from onephase.potentials import (
    F_eps,
    _bisect_inverse,
    _simpson,
    f_eps,
    make_reference,
    make_tabulated,
    term_from_json,
    term_to_json,
    validate,
)


def test_reference_closed_form_values_at_unit_support():
    term = make_reference(1.0)
    assert term.f(0.5) == pytest.approx(0.75, abs=1e-15)
    assert term.F(0.5) == pytest.approx(0.6875, abs=1e-15)
    assert term.F(1.0) == pytest.approx(1.0, abs=1e-15)
    assert term.f(0.0) == 0.0
    assert term.f(1.0) == 0.0


def test_reference_antiderivative_matches_quadrature_of_2f():
    # Independent oracle: integrate 2f numerically and compare with F.
    term = make_reference(1.0)
    for v in (0.2, 0.5, 0.8, 1.0):
        s = np.linspace(0.0, v, 20_001)
        quad = np.trapezoid(2.0 * term.f(s), s)
        assert term.F(v) == pytest.approx(quad, abs=1e-8)


def test_reference_window_constants():
    term = make_reference(1.0)
    assert term.tau == pytest.approx(0.5)
    assert term.c0 == pytest.approx(1.0 / 6.0)
    # General T: the window constant follows f(s)/s = (6/T^4)(T-s)^2.
    for T in (0.5, 2.0):
        t = make_reference(T)
        assert t.c0 == pytest.approx(min(3.0 / (2.0 * T**2), T**2 / 6.0))
        assert 0.0 < t.c0 <= 1.0


def test_make_reference_rejects_nonpositive_support():
    with pytest.raises(ValueError):
        make_reference(0.0)
    with pytest.raises(ValueError):
        make_reference(-1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_reference(1.0).Finv(1.5), r"Finv argument must lie in \[0, 1\], got 1.5"),
        (lambda: make_reference(1.0).Finv(-0.1), r"Finv argument must lie in \[0, 1\], got -0.1"),
        (lambda: make_tabulated([[0.0, 1.0]]), r"samples must be an \(n, 2\) table with n >= 2"),
        (lambda: make_tabulated([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), r"samples must be an \(n, 2\) table"),
        (lambda: make_tabulated([[0.0, 0.0], [0.0, 1.0]]), "sample abscissae must be strictly increasing"),
        # A nan abscissa compared False against 0 and passed as increasing.
        (lambda: make_tabulated([[0.0, 0.0], [math.nan, 1.0], [1.0, 0.0]]),
         "sample abscissae must be strictly increasing"),
        (lambda: make_tabulated([[-2.0, 0.0], [-1.0, 0.0]]), "last sample abscissa must be positive"),
        # A nan ordinate built a term with c0 = nan, an infinite abscissa one with T = inf.
        (lambda: make_tabulated([[0.0, 0.0], [0.5, math.nan], [1.0, 0.0]]), "samples must be finite"),
        (lambda: make_tabulated([[0.0, 0.0], [0.5, 1.0], [math.inf, 0.0]]), "samples must be finite"),
        # A nan tau built a term with tau = nan, and c0 was not checked.
        (lambda: make_tabulated([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], tau=math.nan), "tau must be finite and positive, got nan"),
        (lambda: make_tabulated([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], tau=0.0), "tau must be finite and positive, got 0.0"),
        (lambda: make_tabulated([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], tau=5.0, c0=-3), "c0 must be finite and positive, got -3"),
        (lambda: make_tabulated([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], c0=math.inf), "c0 must be finite and positive, got inf"),
        (lambda: F_eps(make_reference(1.0), -0.1, 0.5), "eps must be nonnegative, got -0.1"),
        # A nan eps compared False against 0 and gave nan potentials.
        (lambda: F_eps(make_reference(1.0), math.nan, 0.5), "eps must be nonnegative, got nan"),
    ],
)
def test_potentials_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_make_reference_rejects_t_where_6_over_t4_is_not_finite():
    # 1e-300**4 underflows to 0, so 6/T**4 would divide by zero; at 1e-78
    # it is inf, and 1e78**4 overflows.  The error names the range of T.
    for T in (1e-300, 1e-78, 1e78, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"\[1e-76, 1e\+76\]"):
            make_reference(T)
    for T in (1e-76, 1e76):
        term = make_reference(T)
        assert 0.0 < term.f(0.5 * T) < np.inf and term.F(0.5 * T) == pytest.approx(0.6875)


def test_f_eps_values_and_support():
    term = make_reference(1.0)
    assert f_eps(term, 0.1, 0.05) == pytest.approx(7.5, abs=1e-12)
    assert f_eps(term, 0.1, 0.2) == 0.0
    assert f_eps(term, 0.3, -1.0) == 0.0
    with pytest.raises(ValueError):
        f_eps(term, 0.0, 0.1)
    with pytest.raises(ValueError):
        f_eps(term, -0.5, 0.1)


def test_F_eps_values_indicator_and_saturation():
    term = make_reference(1.0)
    assert F_eps(term, 0.1, 0.05) == pytest.approx(0.6875, abs=1e-15)
    assert F_eps(term, 0.0, 0.3) == 1.0
    assert F_eps(term, 0.0, 0.0) == 0.0
    assert F_eps(term, 0.0, -0.2) == 0.0
    assert F_eps(term, 0.1, 0.1) == 1.0
    assert F_eps(term, 0.1, -0.3) == 0.0


def test_F_eps_scaling_identity_is_exact():
    term = make_reference(1.0)
    t = np.linspace(-0.5, 1.5, 401)
    for eps in (0.05, 0.2, 1.7):
        lhs = np.asarray(F_eps(term, eps, t))
        rhs = np.asarray(F_eps(term, 1.0, t / eps))
        assert np.array_equal(lhs, rhs)


def test_F_eps_derivative_matches_2_f_eps():
    term = make_reference(1.0)
    eps = 0.3
    h = 1e-6
    t = np.linspace(0.02, 0.28, 53)  # interior of (0, T*eps)
    diff = (np.asarray(F_eps(term, eps, t + h)) - np.asarray(F_eps(term, eps, t - h))) / (2 * h)
    target = 2.0 * np.asarray(f_eps(term, eps, t))
    assert np.max(np.abs(diff - target) / np.abs(target)) < 1e-6


def test_Finv_round_trip_and_small_values():
    term = make_reference(1.0)
    for v in (0.05, 0.3, 0.5, 0.77, 0.999):
        assert term.Finv(term.F(v)) == pytest.approx(v, abs=1e-10)
    v_small = term.Finv(0.0199)  # 1 - s^2 at s = 0.99
    assert 0.0 < v_small < 0.1


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
def test_reference_scalar_branch_is_the_array_path_bit_for_bit(T):
    # The oracles are the 0-d array path and a length-1 array, so an RK4
    # profile does not depend on which path f takes.  f uses + - * / alone,
    # which round the same on a Python float, a numpy scalar and an array
    # element.
    term = make_reference(T)
    rng = np.random.default_rng(6)
    points = rng.uniform(-0.5 * T, 1.5 * T, 100_000).tolist()
    points += (T * (1.0 + rng.uniform(-1e-6, 1e-6, 2_000))).tolist()
    points += (T * rng.uniform(-1e-6, 1e-6, 2_000)).tolist()
    points += [
        0.0,
        -0.0,
        T,
        float(np.nextafter(T, 0.0)),
        float(np.nextafter(T, 2.0 * T)),
        5e-324,
        float("nan"),
        float("inf"),
        float("-inf"),
    ]
    for x in points:
        got = term.f(x)
        assert type(got) is float
        assert got.hex() == float(term.f(np.asarray(x))).hex(), x
        assert got.hex() == float(term.f(np.asarray([x]))[0]).hex(), x


def _full_reference_kernels(T: float):
    """The reference f, F and shifted_inverse evaluated on every node, as
    they were before the band-only kernels: the oracle of those kernels."""
    a = 6.0 / T**4

    def f(s):
        s_arr = np.asarray(s, dtype=float)
        inside = (s_arr > 0.0) & (s_arr < T)
        d = T - s_arr
        val = a * s_arr * (d * d)
        return np.where(inside, val, 0.0)

    def F(v):
        v_arr = np.asarray(v, dtype=float)
        vc = np.clip(v_arr, 0.0, T)
        v2 = vc * vc
        val = 2.0 * a * (T * T * v2 / 2.0 - 2.0 * T * (v2 * vc) / 3.0 + v2 * v2 / 4.0)
        return np.where(v_arr >= T, 1.0, np.where(v_arr <= 0.0, 0.0, val))

    def shifted_inverse(k):
        p = k / a - T**2 / 3.0
        r = math.sqrt(p / 3.0)
        z0 = (2.0 * T / 3.0) * (T**2 / 9.0 + k / a) / (2.0 * r**3)
        zm = -1.0 / (2.0 * a * r**3)
        top = k * T

        def root(m):
            m = np.asarray(m, dtype=float)
            s0, d, linear = np.empty(m.shape), np.empty(m.shape), np.empty(m.shape, dtype=bool)
            out = np.empty_like(m)
            np.multiply(m, zm, out=s0)
            s0 += z0
            np.arcsinh(s0, out=s0)
            s0 /= 3.0
            np.sinh(s0, out=s0)
            s0 *= -2.0 * r
            s0 += 2.0 * T / 3.0
            np.subtract(s0, T, out=out)
            out *= s0
            out *= s0
            out *= 2.0 * a
            out += m
            np.multiply(s0, 3.0 * a, out=d)
            d -= 4.0 * a * T
            d *= s0
            d += a * T**2 + k
            out /= d
            np.greater_equal(m, top, out=linear)
            np.divide(m, k, out=d)
            np.copyto(out, d, where=linear)
            return np.maximum(out, 0.0, out=out)

        return root

    return f, F, shifted_inverse


def _full_tabulated_kernels(samples):
    """The tabulated f, F, f' and shifted_inverse evaluated on every node, as
    they were before the shared band rule: the oracle of those kernels."""
    rows = np.asarray(samples, dtype=float)
    s_grid, f_grid = rows[:, 0], rows[:, 1]
    T = float(s_grid[-1])
    cumulative = np.concatenate([[0.0], np.cumsum(np.diff(s_grid) * (f_grid[:-1] + f_grid[1:]))])
    F_top = float(cumulative[-1])
    slopes = np.diff(f_grid) / np.diff(s_grid)

    def f(s):
        s_arr = np.asarray(s, dtype=float)
        val = np.interp(s_arr, s_grid, f_grid, left=0.0, right=0.0)
        return np.where((s_arr > 0.0) & (s_arr < T), val, 0.0)

    def F(v):
        v_arr = np.asarray(v, dtype=float)
        idx = np.clip(np.searchsorted(s_grid, v_arr, side="right") - 1, 0, len(slopes) - 1)
        d = np.maximum(v_arr - s_grid[idx], 0.0)
        val = cumulative[idx] + d * (2.0 * f_grid[idx] + slopes[idx] * d)
        return np.where(v_arr >= T, F_top, np.where(v_arr <= 0.0, 0.0, val))

    def fprime(s):
        s_arr = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(s_grid, s_arr, side="right") - 1, 0, len(slopes) - 1)
        return np.where((s_arr > 0.0) & (s_arr < T), slopes[idx], 0.0)

    xk = np.concatenate([[0.0, max(s_grid[0], 0.0)], s_grid[s_grid > 0.0]])
    fk = np.concatenate([[0.0, np.interp(0.0, s_grid, f_grid, left=0.0)], f_grid[s_grid > 0.0]])

    def shifted_inverse(k):
        knots = k * xk + fk
        keep = np.concatenate([[True], (np.diff(xk) != 0.0) | (np.diff(knots) != 0.0)])
        xs, knots = xk[keep], knots[keep]
        rate = np.diff(xs) / np.diff(knots)

        def root(m):
            m = np.asarray(m, dtype=float)
            i = np.clip(np.searchsorted(knots, m, side="right") - 1, 0, len(rate) - 1)
            s = np.where(m >= knots[-1], m / k, xs[i] + (m - knots[i]) * rate[i])
            return np.maximum(s, 0.0, out=s)

        return root

    return f, F, fprime, shifted_inverse


def _kernel_inputs(rng, n: int, scale: float):
    """n values over [-0.5, 1.5] * scale, every third one an edge value,
    as a contiguous array and as a strided view of the same values."""
    edges = [
        0.0,
        -0.0,
        scale,
        float(np.nextafter(scale, np.inf)),
        float(np.nextafter(scale, -np.inf)),
        5e-324,
        float("nan"),
        float("inf"),
        float("-inf"),
    ]
    x = rng.uniform(-0.5 * scale, 1.5 * scale, n)
    for i in range(0, n, 3):
        x[i] = edges[(i // 3 + n) % len(edges)]
    wide = np.zeros(2 * n)
    wide[::2] = x
    return x, wide[::2]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


@pytest.mark.parametrize("T", [0.37, 1.0, 2.0])
def test_band_only_reference_kernels_are_the_full_kernels_bit_for_bit(T):
    # f, F and the node root evaluate their polynomial or cubic only on the
    # nodes that need it; every other node gets the value the full-array
    # expression gives it, nan and signed zeros included.
    term = make_reference(T)
    f, F, shifted_inverse = _full_reference_kernels(T)
    rng = np.random.default_rng(int(T * 100))
    ks = [2.0 / T**2 * (1.0 + 1e-9), 2.0 / T**2 * 1.5, 25.0, 2500.0]
    roots = [(term.shifted_inverse(k), shifted_inverse(k), k * T) for k in ks]
    cases = 0
    with np.errstate(all="ignore"):  # inf and nan inputs
        for n in [*range(1, 41), 999, 4900]:
            for got_f, want_f, scale in [
                (term.f, f, T),
                (term.F, F, T),
                *((got, want, top) for got, want, top in roots),
            ]:
                for x in _kernel_inputs(rng, n, scale):
                    assert _same_bits(got_f(x), want_f(x)), (n, scale)
                    cases += 1
                if n == 4900:
                    x = _kernel_inputs(rng, n, scale)[0].reshape(70, 70)
                    for v in (x, x.T, x[::2, 1::3]):
                        assert _same_bits(got_f(v), want_f(v)), scale
                        cases += 1
        # 0-d inputs keep the 0-d path: numpy scalar `**`, not `square`.
        for x in _kernel_inputs(rng, 60, T)[0]:
            assert float(term.f(np.asarray(x))).hex() == float(f(x)).hex()
            assert float(term.F(np.asarray(x))).hex() == float(F(x)).hex()
        for got, want, top in roots:
            for x in _kernel_inputs(rng, 60, top)[0]:
                assert _same_bits(got(np.asarray(x)), want(np.asarray(x)))
    assert np.isnan(term.F(np.array([np.nan])))[0] and np.isnan(term.F(float("nan")))
    assert term.f(np.array([np.nan]))[0] == 0.0
    assert cases == 42 * 6 * 2 + 6 * 3


_FIRST_ROW_INSIDE = np.linspace(0.1, 1.0, 37)
_FROM_ZERO = np.linspace(0.0, 2.0, 41)


@pytest.mark.parametrize(
    "samples, ks",
    [
        # f jumps from 0 to its first row at s = 0.1, as in the solver's
        # test_tabulated_node_solve_below_the_first_row.
        (np.column_stack([_FIRST_ROW_INSIDE, 6.0 * _FIRST_ROW_INSIDE * (1.0 - _FIRST_ROW_INSIDE) ** 2]),
         [2.0 * (1.0 + 1e-9), 10.0, 250.0]),
        (np.column_stack([_FROM_ZERO, 0.375 * _FROM_ZERO * (2.0 - _FROM_ZERO) ** 2]), [0.5 * (1.0 + 1e-9), 2.0, 25.0]),
    ],
    ids=["first-row-inside", "from-zero"],
)
def test_tabulated_kernels_are_the_full_kernels_bit_for_bit(samples, ks):
    # The table's f, F, f' and node root give every node the value the
    # whole-array expression gives it, nan and signed zeros included, and f
    # takes a Python float to a Python float.
    term = make_tabulated(samples)
    T = term.T
    f, F, fprime, shifted_inverse = _full_tabulated_kernels(samples)
    rng = np.random.default_rng(len(samples))
    roots = [(term.shifted_inverse(k), shifted_inverse(k), k * T) for k in ks]
    kernels = [(term.f, f, T), (term.F, F, T), (term.fprime, fprime, T), *roots]
    cases = 0
    with np.errstate(all="ignore"):  # inf and nan inputs
        for n in [*range(1, 41), 999, 4900]:
            for got_f, want_f, scale in kernels:
                for x in _kernel_inputs(rng, n, scale):
                    assert _same_bits(got_f(x), want_f(x)), (n, scale)
                    cases += 1
                if n == 4900:
                    x = _kernel_inputs(rng, n, scale)[0].reshape(70, 70)
                    for v in (x, x.T, x[::2, 1::3]):
                        assert _same_bits(got_f(v), want_f(v)), scale
                        cases += 1
        for got_f, want_f, scale in kernels:
            for x in _kernel_inputs(rng, 60, scale)[0]:
                assert _same_bits(got_f(np.asarray(x)), want_f(np.asarray(x))), x
        for x in _kernel_inputs(rng, 60, T)[0].tolist() + [float(s) for s in samples[:, 0]]:
            got = term.f(x)
            assert type(got) is float
            assert got.hex() == float(f(x)).hex(), x
    assert np.isnan(term.F(np.array([np.nan])))[0] and np.isnan(term.F(float("nan")))
    assert term.f(np.array([np.nan]))[0] == 0.0 and term.fprime(float("nan")) == 0.0
    assert cases == 42 * 6 * 2 + 6 * 3


def test_Finv_returns_when_bisection_reaches_adjacent_floats():
    # At T = 1e5 adjacent floats near T are further apart than the absolute
    # bisection tolerance; the loop must stop there instead of spinning.
    big = make_reference(1e5)
    calls = 0

    def counted_F(v):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise RuntimeError("Finv bisection does not terminate")
        return big.F(v)

    v = _bisect_inverse(counted_F, big.T)(0.5)
    assert v / 1e5 == pytest.approx(make_reference(1.0).Finv(0.5), rel=1e-12)
    assert big.Finv(0.5) == v


def test_validate_reference_passes_for_all_supports():
    for T in (0.5, 1.0, 2.0):
        report = validate(make_reference(T), n_samples=10_000)
        assert report["passed"], report
        assert report["conditions"]["normalization"]["worst"] < 1e-8


@pytest.mark.parametrize("n", [3, 51, 2001, 10001])
@pytest.mark.parametrize("T", [0.37, 1.0, 2.0, 1e-3, 50.0])
def test_simpson_equals_scipy_bit_for_bit(T, n):
    # scipy is the oracle only: validate integrates with numpy alone.
    from scipy.integrate import simpson

    ref = make_reference(T)
    s = np.linspace(0.0, T, 61)
    tab = make_tabulated(np.column_stack([s, np.asarray(ref.f(s))]))
    x = np.linspace(0.0, T, n)
    for term in (ref, tab):
        y = 2.0 * np.asarray(term.f(x), dtype=float)
        assert _simpson(y, x) == float(simpson(y, x=x))


def test_simpson_weights_each_pair_by_its_own_spacings():
    from scipy.integrate import simpson

    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.1, 1.0, 41))
    # Exact on each pair of intervals for a quadratic, whatever the spacings.
    y = 3.0 * x**2 - x + 2.0
    exact = (x[-1] ** 3 - x[0] ** 3) - (x[-1] ** 2 - x[0] ** 2) / 2.0 + 2.0 * (x[-1] - x[0])
    assert _simpson(y, x) == pytest.approx(exact, rel=1e-13)
    assert _simpson(y, x) == float(simpson(y, x=x))


def test_validate_rejects_small_sample_count():
    with pytest.raises(ValueError):
        validate(make_reference(1.0), n_samples=50)


def test_validate_flags_broken_normalization():
    base = make_reference(1.0)
    s = np.linspace(0.0, 1.0, 2001)
    scaled = make_tabulated(np.column_stack([s, 1.1 * np.asarray(base.f(s))]))
    report = validate(scaled, n_samples=2001)
    assert not report["conditions"]["normalization"]["passed"]
    assert report["conditions"]["normalization"]["integral"] == pytest.approx(1.1, rel=1e-6)


def test_validate_flags_window_up_to_support_endpoint():
    base = make_reference(1.0)
    s = np.linspace(0.0, 1.0, 2001)
    bad = make_tabulated(
        np.column_stack([s, np.asarray(base.f(s))]), tau=1.0, c0=base.c0
    )
    report = validate(bad, n_samples=2001)
    assert not report["conditions"]["window"]["passed"]


def test_json_round_trip_reference_and_tabulated():
    term = make_reference(2.0)
    data = term_to_json(term)
    assert data == {"family": "reference", "T": 2.0, "tau": 1.0, "c0": term.c0}
    back = term_from_json(data)
    probe = np.linspace(-0.5, 2.5, 101)
    assert np.allclose(np.asarray(back.f(probe)), np.asarray(term.f(probe)))

    s = np.linspace(0.0, 1.0, 501)
    tab = make_tabulated(np.column_stack([s, np.asarray(term.f(2.0 * s) * 2.0)]))
    back_tab = term_from_json(term_to_json(tab))
    assert back_tab.T == tab.T
    assert np.allclose(np.asarray(back_tab.f(s)), np.asarray(tab.f(s)))
    with pytest.raises(ValueError):
        term_from_json({"family": "mystery"})


def test_tabulated_tracks_reference_family():
    ref = make_reference(1.0)
    s = np.linspace(0.0, 1.0, 4001)
    tab = make_tabulated(np.column_stack([s, np.asarray(ref.f(s))]))
    probe = np.linspace(0.0, 1.0, 357)
    assert np.allclose(np.asarray(tab.f(probe)), np.asarray(ref.f(probe)), atol=2e-7)
    assert np.allclose(np.asarray(tab.F(probe)), np.asarray(ref.F(probe)), atol=2e-7)
    report = validate(tab, n_samples=4001)
    assert report["conditions"]["nonnegativity"]["passed"]
    assert report["conditions"]["support"]["passed"]


def test_tabulated_fprime_is_the_slope_of_the_knot_interval():
    tab = make_tabulated([[0.0, 0.0], [0.2, 0.6], [0.5, 0.9], [0.8, 0.3], [1.0, 0.0]])
    slopes = [3.0, 1.0, -2.0, -1.5]
    s = np.array([0.05, 0.2, 0.3, 0.49, 0.5, 0.7, 0.8, 0.95])
    want = [slopes[k] for k in (0, 1, 1, 1, 2, 2, 3, 3)]
    assert np.asarray(tab.fprime(s)) == pytest.approx(want, rel=1e-12)
    # Elsewhere, the ends of (0, T) included, f is 0 and so is its slope.
    outside = np.array([-1.0, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 3.0])
    assert np.all(np.asarray(tab.fprime(outside)) == 0.0)
    assert tab.fprime(0.3) == pytest.approx(1.0, rel=1e-12)


def test_tabulated_F_is_the_exact_antiderivative_of_its_f():
    tab = make_tabulated([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    # f(s) = s, so F(v) = v^2 between the samples, not the chord of it.
    assert tab.F(0.25) == pytest.approx(0.0625, abs=1e-15)
    assert tab.F(0.75) == pytest.approx(0.5625, abs=1e-15)
    assert tab.F(0.5) == pytest.approx(0.25, abs=1e-15)
    s = np.linspace(0.0, 1.5, 61)
    tab = make_tabulated(np.column_stack([s, np.asarray(make_reference(1.5).f(s))]))
    v = np.linspace(0.013, 1.49, 97)
    dv = 1e-6
    slope = (np.asarray(tab.F(v + dv)) - np.asarray(tab.F(v - dv))) / (2.0 * dv)
    assert np.max(np.abs(slope - 2.0 * np.asarray(tab.f(v)))) < 1e-8
