import functools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nufd import (
    FirstDiffKind,
    Mesh,
    build_uniform,
    first_diff_error_bound,
    make_oscillator_solution,
    make_polynomial,
    make_sinusoid,
    sample,
)
from nufd.functions import MAX_DERIVATIVE_ORDER, _oscillator_motion
from nufd.parsing import SpecError, parse_function_spec

from helpers import EPS, float_bits, oscillator_expression


class TestSinusoid:
    def test_first_derivative_of_the_study_function(self):
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        t = np.linspace(0, 1, 57)
        np.testing.assert_allclose(
            f.evaluate(1, t), -4 * math.pi * np.cos(4 * math.pi * t), atol=1e-12
        )

    def test_second_derivative_of_the_study_function(self):
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        t = np.linspace(0, 1, 57)
        np.testing.assert_allclose(
            f.evaluate(2, t), (4 * math.pi) ** 2 * np.sin(4 * math.pi * t), atol=1e-10
        )

    def test_unit_value_at_quarter_period(self):
        f = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        assert f.evaluate(0, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_order_out_of_range(self):
        f = make_sinusoid(1.0, 1.0)
        with pytest.raises(ValueError):
            f.evaluate(6, 0.0)
        with pytest.raises(ValueError):
            f.evaluate(-1, 0.0)

    def test_overflowing_fifth_derivative_is_rejected_by_name(self):
        # 1e100**5 overflows a float, so f^(5) and its supremum cannot be formed
        with pytest.raises(ValueError, match=r"sinusoid\(amplitude=1,frequency=1e\+100.*order 5"):
            make_sinusoid(1.0, 1e100)
        with pytest.raises(ValueError, match="sinusoid"):
            make_sinusoid(1e300, 1e2)
        with pytest.raises(ValueError, match="sinusoid"):
            make_sinusoid(math.inf, 1.0)
        f = make_sinusoid(1.0, 1e61)
        assert math.isfinite(f.sup_abs(5, 0.0, 0.1))

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_a_phase_that_is_not_finite_is_rejected_by_name(self, phase):
        with pytest.raises(ValueError, match=r"^sinusoid\(amplitude=1,frequency=1,phase=.*\): the phase"):
            make_sinusoid(1.0, 1.0, phase)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_an_infinite_python_float_gives_the_array_paths_nan(self, t):
        f = make_sinusoid(2.0, 3.0, 0.5)
        with np.errstate(invalid="ignore"):
            for order in range(MAX_DERIVATIVE_ORDER + 1):
                value, array = f.evaluate(order, t), f.evaluate(order, np.array([t]))
                assert math.isnan(value) and math.isnan(array[0])


class TestPolynomial:
    def test_t_squared_second_derivative(self):
        f = make_polynomial([0, 0, 1])
        np.testing.assert_array_equal(f.evaluate(2, np.array([-3.0, 0.0, 7.0])), 2.0)

    def test_linear_first_derivative(self):
        f = make_polynomial([0, 2])
        np.testing.assert_array_equal(f.evaluate(1, np.array([-1.0, 5.0])), 2.0)

    def test_cubic_high_orders(self):
        f = make_polynomial([0, 0, 0, 1])
        np.testing.assert_array_equal(f.evaluate(3, np.array([0.3, 2.0])), 6.0)
        np.testing.assert_array_equal(f.evaluate(4, np.array([0.3, 2.0])), 0.0)

    def test_degree_above_five_rejected(self):
        with pytest.raises(ValueError):
            make_polynomial([1, 1, 1, 1, 1, 1, 1])

    def test_no_coefficients_give_the_zero_polynomial(self):
        f = make_polynomial([])
        assert f.label == "poly(0)"
        for order in range(MAX_DERIVATIVE_ORDER + 1):
            assert f.evaluate(order, 0.7) == 0.0
            assert f.sup_abs(order, -1.0, 2.0) == 0.0

    @pytest.mark.parametrize("coefs", [[0.0, math.inf], [-math.inf], [1.0, 2.0, math.nan]])
    def test_a_coefficient_that_is_not_finite_is_rejected_by_name(self, coefs):
        with pytest.raises(ValueError, match=r"^poly\(.*\): the coefficients are not all finite"):
            make_polynomial(coefs)

    @pytest.mark.parametrize("coefs", [[0, 0, 0, 0, 0, 1e307], [0, 0, 1e308, 1]])
    def test_derivative_tables_that_overflow_leave_the_suprema_named(self, coefs):
        # 20 * 1e307 and 2 * 1e308 overflow; the evaluator still reaches every finite value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = make_polynomial(coefs)
            assert f.evaluate(0, 0.5) == np.polynomial.polynomial.polyval(0.5, coefs)
        named = r"^poly\(.*\): a coefficient of its derivatives up to order 5 is not finite"
        for order in range(MAX_DERIVATIVE_ORDER + 1):
            with pytest.raises(ValueError, match=named):
                f.sup_abs(order, 0.0, 1.0)
        with pytest.raises(ValueError, match=named):
            first_diff_error_bound(FirstDiffKind.FORWARD, f, build_uniform(0, 1, 11), 3)

    @pytest.mark.parametrize("coefs,values", [
        # at t = 0.5; 20 * 1e307 overflows from the second derivative on
        ([0, 0, 0, 0, 0, 1e307], {0: 3.125e305, 1: 3.125e306}),
        # 2 * 1e308 overflows in the first and second derivatives and drops out of the third
        ([0, 0, 1e308, 1], {0: 2.5e307, 3: 6.0, 4: 0.0, 5: 0.0}),
    ])
    def test_an_order_whose_table_overflowed_is_refused_by_name(self, coefs, values):
        mesh = build_uniform(0, 1, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = make_polynomial(coefs)
            for order in range(MAX_DERIVATIVE_ORDER + 1):
                if order in values:
                    assert f.evaluate(order, 0.5) == values[order]
                    continue
                named = rf"^poly\(.*\): a coefficient of its order-{order} derivative is not finite"
                with pytest.raises(ValueError, match=named):
                    f.evaluate(order, 0.5)
                with pytest.raises(ValueError, match=named):
                    sample(f, order, mesh)


class TestOscillatorSolution:
    def test_initial_data(self):
        phi = make_oscillator_solution(4 * math.pi**2)
        assert phi.evaluate(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi.evaluate(1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_satisfies_the_oscillator_equation(self):
        rng = np.random.default_rng(5)
        for kappa in (0.5, 4 * math.pi**2, 77.0):
            phi = make_oscillator_solution(kappa)
            t = rng.uniform(0, 3, 40)
            np.testing.assert_allclose(
                phi.evaluate(2, t), -kappa * phi.evaluate(0, t), rtol=1e-12, atol=1e-12
            )

    def test_value_at_half_period(self):
        phi = make_oscillator_solution(4 * math.pi**2)
        assert phi.evaluate(0, 0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            make_oscillator_solution(0.0)
        with pytest.raises(ValueError):
            make_oscillator_solution(-1.0)

    def test_overflowing_fifth_derivative_is_rejected_by_name(self):
        # sqrt(1e130)**5 = 1e325 overflows
        with pytest.raises(ValueError, match=r"oscillator\(kappa=1e\+130\).*order 5"):
            make_oscillator_solution(1e130)
        assert math.isfinite(make_oscillator_solution(1e120).sup_abs(5, 0.0, 0.1))


class TestSample:
    def test_constant_one(self):
        g = sample(make_polynomial([1]), 0, build_uniform(0, 1, 9))
        np.testing.assert_array_equal(g.values, 1.0)
        assert g.first_index == 0 and len(g) == 9

    def test_t_squared_on_small_mesh(self):
        g = sample(make_polynomial([0, 0, 1]), 0, Mesh(np.array([0.0, 0.1, 0.3])))
        np.testing.assert_allclose(g.values, [0.0, 0.01, 0.09], atol=1e-15)

    def test_matches_direct_evaluation(self):
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        m = build_uniform(0, 1, 12)
        g = sample(f, 0, m)
        np.testing.assert_array_equal(g.values, -np.sin(4 * math.pi * m.points))

    def test_samples_that_are_not_finite_name_the_function_the_order_and_the_point(self):
        # 1e10 * 1e300 overflows, so sin is nan from the first point on.
        f = make_sinusoid(amplitude=1.0, frequency=1e10)
        with pytest.raises(ValueError) as caught, np.errstate(over="ignore", invalid="ignore"):
            sample(f, 0, build_uniform(1e300, 2e300, 5))
        message = str(caught.value)
        assert message.startswith(f"{f.label}: its order-0 samples must all be finite")
        assert "t = 1e+300 " in message

    @pytest.mark.filterwarnings("error")
    def test_samples_that_are_not_finite_warn_nothing_before_the_error(self):
        f = make_sinusoid(amplitude=1.0, frequency=1e10)
        with pytest.raises(ValueError, match="must all be finite"):
            sample(f, 0, build_uniform(1e300, 2e300, 5))


class TestDerivativeTableConsistency:
    # the table is internally consistent: a tight central difference of
    # order n reproduces order n+1 up to the documented scaled error
    @pytest.mark.parametrize(
        "f",
        [
            make_sinusoid(amplitude=-1.0, frequency=4 * math.pi),
            make_sinusoid(amplitude=0.7, frequency=2.0, phase=0.3),
            make_polynomial([0.3, -1.2, 0.8, 2.0]),
            make_oscillator_solution(4 * math.pi**2),
        ],
        ids=lambda f: f.label,
    )
    def test_central_difference_cross_check(self, f):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.05, 0.95, 64)
        eps = 1e-6
        for order in range(5):
            approx = (f.evaluate(order, t + eps) - f.evaluate(order, t - eps)) / (2 * eps)
            exact = f.evaluate(order + 1, t)
            scale = np.max(np.abs(exact))
            if scale == 0.0:
                np.testing.assert_allclose(approx, 0.0, atol=1e-9)
            else:
                assert np.max(np.abs(approx - exact)) / scale <= 1e-6


class TestFactories:
    """The functions that specs name, built through ``parse_function_spec``."""

    def test_sinusoid_factory_defaults(self):
        assert parse_function_spec("sinusoid").label == "sinusoid(amplitude=1,frequency=1,phase=0)"
        f = parse_function_spec("sinusoid:amplitude=-1,frequency=4pi")
        assert f.evaluate(0, 0.125) == pytest.approx(-math.sin(math.pi / 2), abs=1e-12)

    def test_poly_factory_sparse_powers(self):
        f = parse_function_spec("poly:c2=1")
        assert f.label == "poly(0,0,1)"
        assert f.evaluate(0, 3.0) == pytest.approx(9.0)

    def test_oscillator_factory_requires_kappa(self):
        with pytest.raises(SpecError):
            parse_function_spec("oscillator")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SpecError):
            parse_function_spec("sinusoid:wavelength=2")
        with pytest.raises(SpecError):
            parse_function_spec("poly:q3=1")


def _mp_root(fn, a, b):
    """Root of ``fn`` inside (a, b), where fn(a) and fn(b) differ in sign."""
    # the solver's stopping test is absolute, so it sees fn at unit scale
    scale = max(abs(fn(a)), abs(fn(b)))
    return mp.findroot(lambda t: fn(t) / scale, (a, b), solver="anderson", verify=False)


def _mp_sup_abs(g, gp, lo, hi, cells, critical=()):
    """max |g| over [lo, hi] at 40 digits, independent of the library.

    Candidates are a grid of ``cells`` equal cells, every sign change of
    ``gp`` between grid points refined to a root, and the ``critical``
    points that lie inside.  Without ``critical`` the caller picks
    ``cells`` so that no cell holds two zeros of ``gp``.
    """
    with mp.workdps(40):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        grid = [lo + (hi - lo) * i / cells for i in range(cells + 1)]
        slopes = [gp(t) for t in grid]
        candidates = grid + [t for t in critical if lo <= t <= hi]
        for i in range(cells):
            if slopes[i] * slopes[i + 1] < 0:
                candidates.append(_mp_root(gp, grid[i], grid[i + 1]))
        return float(max(abs(g(t)) for t in candidates))


def _mp_derivative(table):
    return [i * c for i, c in enumerate(table)][1:] or [mp.mpf(0)]


def _mp_sign_change_roots(table, lo, hi):
    """Every root in [lo, hi] where the polynomial ``table`` changes sign.

    The roots of its derivative cut [lo, hi] into monotone pieces, each
    holding at most one root, so recursion over the degree finds them all.
    """
    slope = _mp_derivative(table)
    if not any(slope):
        return []
    knots = [lo, *_mp_sign_change_roots(slope, lo, hi), hi]

    def p(t):
        return mp.polyval(table[::-1], t)

    return [_mp_root(p, a, b) for a, b in zip(knots, knots[1:]) if p(a) * p(b) < 0]


def _sinusoid_oracle(amplitude, frequency, phase, order, lo, hi):
    a, w, phi = mp.mpf(amplitude), mp.mpf(frequency), mp.mpf(phase)

    def derivative(n):
        return lambda t: a * w**n * mp.sin(w * t + phi + n * mp.pi / 2)

    # zeros of a sinusoid's derivative are pi/|w| apart
    cells = 4 + 2 * math.ceil(abs(frequency) * (hi - lo) / math.pi)
    return _mp_sup_abs(derivative(order), derivative(order + 1), lo, hi, cells)


def _oscillator_oracle(kappa, order, lo, hi):
    # make_oscillator_solution's motion, value 1 and slope -1 at t = 0, with the
    # library's own float omega and c_sin, so both sides bound one function
    omega = float(np.sqrt(kappa))
    w, c_sin = mp.mpf(omega), mp.mpf(-1.0 / omega)

    def derivative(n):
        def g(t):
            x = w * t + n * mp.pi / 2
            return w**n * (c_sin * mp.sin(x) + mp.cos(x))

        return g

    cells = 4 + 2 * math.ceil(omega * (hi - lo) / math.pi)
    return _mp_sup_abs(derivative(order), derivative(order + 1), lo, hi, cells)


def _polynomial_oracle(coefs, order, lo, hi):
    with mp.workdps(40):
        table = [mp.mpf(c) for c in coefs]
        for _ in range(order):
            table = _mp_derivative(table)
        slope = _mp_derivative(table)
        critical = _mp_sign_change_roots(slope, mp.mpf(lo), mp.mpf(hi))
    return _mp_sup_abs(
        lambda t: mp.polyval(table[::-1], t), lambda t: mp.polyval(slope[::-1], t),
        lo, hi, 16, critical,
    )


_ORDERS = st.integers(0, MAX_DERIVATIVE_ORDER)
_STARTS = st.floats(-3.0, 3.0)
_WIDTHS = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))
_UNDERFLOW = 4 * math.ulp(0.0)


class TestSupAbs:
    """``sup_abs`` against a 40-digit grid-and-critical-point oracle.

    The tolerance is the rounding of the closed form in doubles: a few
    ulps of the argument of sin, or of a Horner sum, times the peak, plus
    a few subnormals for results that underflow.
    """

    @given(
        st.floats(-5.0, 5.0), st.floats(-60.0, 60.0), st.floats(-10.0, 10.0),
        _ORDERS, _STARTS, _WIDTHS,
    )
    @example(1.0, -7.0, 0.3, 2, 0.1, 0.05)  # negative frequency, no crest inside
    @example(-2.0, -7.0, 0.3, 3, 0.1, 1.0)  # negative frequency, crests inside
    @example(1.0, 1000 * math.pi, 0.0, 2, 0.0, 0.01)  # zero at every multiple of 0.001
    @settings(max_examples=150, deadline=None)
    def test_sinusoid(self, amplitude, frequency, phase, order, lo, width):
        hi = lo + width
        got = make_sinusoid(amplitude, frequency, phase).sup_abs(order, lo, hi)
        want = _sinusoid_oracle(amplitude, frequency, phase, order, lo, hi)
        peak = abs(amplitude) * abs(frequency) ** order
        reach = abs(frequency) * max(abs(lo), abs(hi)) + abs(phase) + order
        assert got == pytest.approx(want, rel=0, abs=64 * EPS * peak * (1 + reach) + _UNDERFLOW)

    @given(st.floats(0.01, 400.0), _ORDERS, _STARTS, _WIDTHS)
    @settings(max_examples=150, deadline=None)
    def test_oscillator(self, kappa, order, lo, width):
        hi = lo + width
        got = make_oscillator_solution(kappa).sup_abs(order, lo, hi)
        want = _oscillator_oracle(kappa, order, lo, hi)
        omega = math.sqrt(kappa)
        peak = math.hypot(1.0, -1.0 / omega) * omega**order
        reach = omega * max(abs(lo), abs(hi)) + order + 4
        # the amplitude R is itself rounded, by up to a subnormal when tiny
        floor = _UNDERFLOW * (1 + omega**order)
        assert got == pytest.approx(want, rel=0, abs=64 * EPS * peak * (1 + reach) + floor)

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=1, max_size=6),
        _ORDERS, _STARTS, _WIDTHS,
    )
    @example([1.0, -3.0, 0.0, 1.0], 0, -1.5, 3.0)  # extrema at -1 and 1 inside
    @example([0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 1, -0.5, 1.0)  # p'' = 20 t**3, a triple root
    @example([0.0, 0.0, 1.0, 5e-324], 0, 0.0, 1.0)  # p' has a root near -1e323
    @example([0.0, 0.0, 0.0, 0.0, 5e-324], 0, 2.5, 0.0)  # Horner gives 1.5e-322, the oracle 1.93e-322
    @settings(max_examples=150, deadline=None)
    def test_polynomial(self, coefs, order, lo, width):
        hi = lo + width
        got = make_polynomial(coefs).sup_abs(order, lo, hi)
        want = _polynomial_oracle(coefs, order, lo, hi)
        reach = max(abs(lo), abs(hi), 1.0)
        scale = sum(math.perm(i, order) * abs(c) * reach ** (i - order)
                    for i, c in enumerate(coefs) if i >= order)
        # in the subnormal range each Horner step rounds by up to ulp(0)/2, and
        # every later step multiplies that error by |t| <= reach
        floor = math.ulp(0.0) * sum(reach**i for i in range(len(coefs) - 1))
        assert got == pytest.approx(want, rel=0, abs=64 * EPS * scale + floor)

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
        st.floats(-3.0, 3.0), _WIDTHS,
    )
    @settings(max_examples=60, deadline=None)
    def test_orders_above_the_degree_are_exactly_zero(self, coefs, lo, width):
        f = make_polynomial(coefs)
        for order in range(len(coefs), MAX_DERIVATIVE_ORDER + 1):
            assert f.sup_abs(order, lo, lo + width) == 0.0

    def test_crest_inside_gives_the_peak_and_none_the_larger_end(self):
        f = make_sinusoid(2.0, -3.0, 0.0)
        # f'' = 18 sin(3 t): a crest at t = pi/6 lies in [0.1, 0.6], none in [0.7, 0.9]
        assert f.sup_abs(2, 0.1, 0.6) == 18.0
        assert f.sup_abs(2, 0.7, 0.9) == pytest.approx(18 * math.sin(3 * 0.7), rel=1e-15)

    def test_rejects_bad_order_and_reversed_interval(self):
        f = make_sinusoid(1.0, 1.0)
        with pytest.raises(ValueError):
            f.sup_abs(6, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.sup_abs(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.sup_abs(0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "f",
        [make_sinusoid(1.0, 2.0), make_polynomial([0.0, 0.0, 1.0]), make_oscillator_solution(4.0)],
        ids=["sinusoid", "polynomial", "oscillator"],
    )
    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.inf, math.inf),
         (-math.inf, -math.inf), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_rejects_an_endpoint_that_is_not_finite(self, f, lo, hi):
        # a bound needs a finite interval: no closed form may run, overflow or give nan
        with pytest.raises(ValueError, match=re.escape(f"got lo={lo!r}, hi={hi!r}")):
            f.sup_abs(0, lo, hi)


# moderate arguments, then any float at all: huge, tiny and infinite ones too
_SCALAR_TS = st.one_of(st.floats(-100.0, 100.0), st.floats(allow_nan=False))


def _reference_sinusoid_supremum(amplitude, frequency, phase, order, lo, hi):
    """The sinusoid's supremum as first written, with min, max and per-call powers."""
    peak = abs(amplitude) * abs(frequency) ** order
    ends = (frequency * lo + phase + order * math.pi / 2, frequency * hi + phase + order * math.pi / 2)
    first, last = min(ends), max(ends)
    if math.ceil((first - math.pi / 2) / math.pi) <= math.floor((last - math.pi / 2) / math.pi):
        return peak
    return peak * max(abs(math.sin(first)), abs(math.sin(last)))


class TestScalarPath:
    """``evaluate`` at a Python float t gives, for every factory and order, bit
    for bit the value at the one-element array [t]; the sinusoid gets there
    through ``math.sin``."""

    @staticmethod
    def assert_scalar_equals_array(evaluate, t):
        with np.errstate(all="ignore"):
            for order in range(MAX_DERIVATIVE_ORDER + 1):
                assert float_bits(evaluate(order, t)) == float_bits(evaluate(order, np.array([t]))[0])

    @given(st.floats(-5.0, 5.0), st.floats(-60.0, 60.0), st.floats(-10.0, 10.0), _SCALAR_TS)
    @settings(max_examples=200, deadline=None)
    def test_sinusoid(self, amplitude, frequency, phase, t):
        f = make_sinusoid(amplitude, frequency, phase)
        self.assert_scalar_equals_array(f.evaluate, t)
        with np.errstate(all="ignore"):
            for order in range(MAX_DERIVATIVE_ORDER + 1):
                value = f.evaluate(order, t)
                # only an infinite argument of sin leaves the math path, giving nan
                if math.isfinite(value):
                    assert type(value) is float

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6), _SCALAR_TS)
    @settings(max_examples=200, deadline=None)
    def test_polynomial(self, coefs, t):
        self.assert_scalar_equals_array(make_polynomial(coefs).evaluate, t)

    @given(
        st.floats(0.01, 400.0), st.floats(-3.0, 3.0), st.floats(-10.0, 10.0),
        st.floats(-2.0, 2.0), _SCALAR_TS,
    )
    @settings(max_examples=200, deadline=None)
    def test_oscillator(self, kappa, value, slope, t0, t):
        self.assert_scalar_equals_array(functools.partial(_oscillator_motion, kappa, value, slope, t0), t)

    @given(
        st.floats(-5.0, 5.0), st.floats(-60.0, 60.0), st.floats(-10.0, 10.0),
        _ORDERS, _STARTS, _WIDTHS,
    )
    @example(1.0, 0.0, 0.3, 2, 0.1, 0.5)  # zero frequency: both ends equal
    @example(1.0, -7.0, 0.3, 2, 0.1, 0.05)  # negative frequency: the ends swap
    @settings(max_examples=200, deadline=None)
    def test_sinusoid_supremum_keeps_its_min_max_form(self, amplitude, frequency, phase, order, lo, width):
        got = make_sinusoid(amplitude, frequency, phase).sup_abs(order, lo, lo + width)
        want = _reference_sinusoid_supremum(amplitude, frequency, phase, order, lo, lo + width)
        assert float_bits(got) == float_bits(want)



def _sinusoid_expression(amplitude, frequency, phase, order, t):
    """The sinusoid's array path as one expression, as first written."""
    return amplitude * frequency**order * np.sin(frequency * np.asarray(t, dtype=np.float64) + phase + order * np.pi / 2)


_ARRAY_TS = st.lists(_SCALAR_TS, min_size=1, max_size=12)


class TestArrayPath:
    """The array paths evaluate in place on one copy of t; each value is bit for
    bit the expression's, of the expression's type, and t is left as it was."""

    @staticmethod
    def assert_same_bits(evaluate, expression, ts):
        array = np.array(ts)
        inputs = [array, ts, np.array(ts[0]), np.float64(ts[0]), array.reshape(-1, 1)]
        with np.errstate(all="ignore"):
            for t in inputs:
                before = np.array(t, copy=True)
                for order in range(MAX_DERIVATIVE_ORDER + 1):
                    got, want = evaluate(order, t), expression(order, t)
                    assert type(got) is type(want)
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).dtype == np.float64
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.array_equal(np.asarray(t), before, equal_nan=True)
            assert type(evaluate(0, np.array(ts[0]))) is np.float64

    @given(st.floats(-5.0, 5.0), st.floats(-60.0, 60.0), st.floats(-10.0, 10.0), _ARRAY_TS)
    @example(2.0, 3.0, 0.0, [0.0, -0.0, 1e300, -math.inf])
    @settings(max_examples=200, deadline=None)
    def test_sinusoid(self, amplitude, frequency, phase, ts):
        f = make_sinusoid(amplitude, frequency, phase)
        self.assert_same_bits(f.evaluate, lambda order, t: _sinusoid_expression(amplitude, frequency, phase, order, t), ts)

    @given(
        st.floats(0.01, 400.0), st.floats(-3.0, 3.0), st.floats(-10.0, 10.0),
        st.floats(-2.0, 2.0), _ARRAY_TS,
    )
    @example(4 * math.pi**2, 1.0, -1.0, 0.0, [0.0, -0.0, 0.25, 1e300, math.inf])
    @settings(max_examples=200, deadline=None)
    def test_oscillator(self, kappa, value, slope, t0, ts):
        motion = functools.partial(_oscillator_motion, kappa, value, slope, t0)
        self.assert_same_bits(motion, lambda order, t: oscillator_expression(kappa, value, slope, t0, order, t), ts)

    def test_oscillator_motion_needs_no_derivative_bound(self):
        # sqrt(1e130)**5 overflows, so the AnalyticFunction is refused; the motion is finite
        with pytest.raises(ValueError, match="order 5"):
            make_oscillator_solution(1e130)
        t = np.array([0.0, 1e-66, 2e-66])
        got = _oscillator_motion(1e130, 1.0, -1.0, 0.0, 0, t)
        assert got.tobytes() == oscillator_expression(1e130, 1.0, -1.0, 0.0, 0, t).tobytes()

    def test_oscillator_at_a_python_float(self):
        f = make_oscillator_solution(9.0)
        for order in range(MAX_DERIVATIVE_ORDER + 1):
            got, want = f.evaluate(order, 0.3), oscillator_expression(9.0, 1.0, -1.0, 0.0, order, 0.3)
            assert type(got) is type(want) is np.float64
            assert float_bits(got) == float_bits(want)
