import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nufd import (
    FirstDiffKind,
    GridFunction,
    SecondDiffSpec,
    build_uniform,
    classify,
    make_sinusoid,
    sample,
    scaled_local_difference,
    second_difference,
)
from nufd.metrics import _max_abs

from helpers import EPS, float_bits, random_mesh


def _pair(mesh, f_vals, g_vals, first=0):
    return (
        GridFunction(mesh, first, np.asarray(f_vals, dtype=float)),
        GridFunction(mesh, first, np.asarray(g_vals, dtype=float)),
    )


class TestScaledLocalDifference:
    def test_identical_functions(self):
        m = build_uniform(0, 1, 5)
        f, g = _pair(m, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        series = scaled_local_difference(f, g)
        np.testing.assert_array_equal(series.sld, 0.0)
        assert series.sgei == 0.0

    def test_equality_and_hash_are_by_identity(self):
        m = build_uniform(0, 1, 5)
        a = scaled_local_difference(*_pair(m, [1, 2, 3, 4, 5], [1, 2, 2, 4, 5]))
        b = scaled_local_difference(*_pair(m, [1, 2, 3, 4, 5], [1, 2, 2, 4, 5]))
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_direct_arithmetic(self):
        m = build_uniform(0, 1, 2)
        f, g = _pair(m, [2, 1], [1, 2])
        series = scaled_local_difference(f, g)
        assert series.scale == 2.0
        np.testing.assert_array_equal(series.sld, [0.5, -0.5])
        assert series.sgei == 0.5

    def test_sign_convention(self):
        # sld_k > 0 exactly where the reference exceeds the approximation
        rng = np.random.default_rng(9)
        m = random_mesh(rng, 19)
        f = rng.normal(size=20)
        g = rng.normal(size=20)
        series = scaled_local_difference(*_pair(m, f, g))
        np.testing.assert_array_equal(series.sld > 0, f > g)

    def test_sgei_is_exact_max_of_sld(self):
        rng = np.random.default_rng(10)
        m = random_mesh(rng, 30)
        series = scaled_local_difference(
            *_pair(m, rng.normal(size=31), rng.normal(size=31))
        )
        assert series.sgei == np.max(np.abs(series.sld))

    def test_overlap_window(self):
        m = build_uniform(0, 1, 8)
        f = GridFunction(m, 0, np.arange(1.0, 9.0))
        g = GridFunction(m, 3, np.array([10.0, 11.0, 12.0]))
        series = scaled_local_difference(f, g)
        assert series.first_index == 3
        assert len(series) == 3
        assert series.scale == 6.0  # max |f| over indices 3..5

    def test_argmax_location(self):
        m = build_uniform(0, 1, 5)
        f, g = _pair(m, [1, 1, 1, 1, 1], [1, 1, 0.2, 1, 1])
        series = scaled_local_difference(f, g)
        assert series.argmax_index == 2
        assert series.argmax_t == m.points[2]

    def test_second_difference_comparison_value(self):
        # frozen regression for the forward-forward study on the 23-point mesh
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        m = build_uniform(0, 1, 23)
        spec = SecondDiffSpec(FirstDiffKind.FORWARD, FirstDiffKind.FORWARD)
        series = scaled_local_difference(
            sample(f, 2, m), second_difference(spec, sample(f, 0, m))
        )
        assert series.sgei == pytest.approx(0.5616042342796209, rel=1e-12)

    def test_rejects_different_meshes(self):
        f = GridFunction(build_uniform(0, 1, 4), 0, np.ones(4))
        g = GridFunction(build_uniform(0, 2, 4), 0, np.ones(4))
        with pytest.raises(ValueError):
            scaled_local_difference(f, g)

    def test_rejects_disjoint_windows(self):
        m = build_uniform(0, 1, 8)
        f = GridFunction(m, 0, np.ones(3))
        g = GridFunction(m, 5, np.ones(3))
        with pytest.raises(ValueError):
            scaled_local_difference(f, g)

    def test_rejects_zero_reference(self):
        m = build_uniform(0, 1, 4)
        f, g = _pair(m, [0, 0, 0, 0], [1, 1, 1, 1])
        with pytest.raises(ValueError):
            scaled_local_difference(f, g)


_VALUES = st.floats(allow_nan=False, allow_infinity=False)


class TestMaxAbsBits:
    """scale and sgei are taken without forming |x|, and are bit for bit
    np.max(np.abs(x)), +0.0 where every entry is a zero of either sign."""

    @given(st.lists(st.tuples(_VALUES, _VALUES), min_size=2, max_size=20))
    @example([(1.0, 1.0), (-0.0, 0.0)])  # sld [+0.0, -0.0]
    @example([(-0.0, 0.0), (1.0, 1.0)])  # sld [-0.0, +0.0]
    @example([(-3.0, -1.0), (-2.0, 5e-324)])  # all negative
    @settings(max_examples=300, deadline=None)
    def test_scale_and_sgei(self, pairs):
        f, g = (np.array(column) for column in zip(*pairs))
        if not np.any(f):
            return
        with np.errstate(all="ignore"):
            series = scaled_local_difference(*_pair(build_uniform(0, 1, len(pairs)), f, g))
            sld = (f - g) / np.max(np.abs(f))
        assert float_bits(series.scale) == float_bits(np.max(np.abs(f)))
        assert series.sld.tobytes() == sld.tobytes()
        assert float_bits(series.sgei) == float_bits(np.max(np.abs(sld)))
        assert type(series.scale) is float and type(series.sgei) is float

    def test_sld_of_signed_zeros_has_a_positive_zero_sgei(self):
        f, g = _pair(build_uniform(0, 1, 4), [1.0, -0.0, 2.0, -0.0], [1.0, 0.0, 2.0, 0.0])
        series = scaled_local_difference(f, g)
        assert series.sld.tobytes() == np.array([0.0, -0.0, 0.0, -0.0]).tobytes()
        assert float_bits(series.sgei) == float_bits(0.0)

    @pytest.mark.parametrize("zeros", [[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.0] * 9 + [-0.0]])
    def test_zeros_of_either_sign_give_a_positive_zero(self, zeros):
        assert float_bits(_max_abs(np.array(zeros))) == float_bits(0.0)


class TestScaleEquivariance:
    @pytest.mark.parametrize("factor", [3.0, -7.0, 1e8, 1e-8])
    def test_common_factor_cancels(self, factor):
        # a common factor cancels out of sld up to its sign; sgei is
        # invariant either way
        rng = np.random.default_rng(11)
        m = random_mesh(rng, 24)
        f = rng.normal(size=25)
        g = rng.normal(size=25)
        base = scaled_local_difference(*_pair(m, f, g))
        scaled = scaled_local_difference(*_pair(m, factor * f, factor * g))
        tol = 2 * EPS * np.maximum(np.abs(base.sld), base.sgei)
        assert np.all(np.abs(scaled.sld - math.copysign(1.0, factor) * base.sld) <= tol)
        assert abs(scaled.sgei - base.sgei) <= 2 * EPS * base.sgei


class TestAntisymmetry:
    def test_swapping_negates_when_maxima_coincide(self):
        m = build_uniform(0, 1, 6)
        f = np.array([3.0, -1.0, 0.5, 2.0, -3.0, 1.0])
        g = np.array([-3.0, 1.0, 2.0, 0.5, 3.0, -1.0])  # same max magnitude
        forward = scaled_local_difference(*_pair(m, f, g))
        backward = scaled_local_difference(*_pair(m, g, f))
        np.testing.assert_array_equal(forward.sld, -backward.sld)


class TestWindowMonotonicity:
    def test_unscaled_max_deviation_is_monotone(self):
        # sgei * scale = max |f - g|, which can only drop as the window shrinks
        rng = np.random.default_rng(12)
        m = random_mesh(rng, 29)
        f = GridFunction(m, 0, rng.normal(size=30))
        g = GridFunction(m, 0, rng.normal(size=30))
        full = scaled_local_difference(f, g)
        for lo, hi in [(0, 29), (3, 25), (10, 15), (14, 14)]:
            restricted = scaled_local_difference(f, GridFunction(m, lo, g.values[lo : hi + 1]))
            assert restricted.sgei * restricted.scale <= full.sgei * full.scale + 1e-15

    def test_sgei_monotone_while_the_scale_point_is_retained(self):
        # sgei itself is monotone only as long as the restriction keeps the
        # reference's largest value; dropping it shrinks the scale and can
        # push sgei up
        rng = np.random.default_rng(12)
        m = random_mesh(rng, 29)
        fv = rng.normal(size=30)
        f = GridFunction(m, 0, fv)
        g = GridFunction(m, 0, rng.normal(size=30))
        full = scaled_local_difference(f, g)
        peak = int(np.argmax(np.abs(fv)))
        for lo, hi in [(0, 29), (max(0, peak - 5), min(29, peak + 5)), (peak, peak)]:
            restricted = scaled_local_difference(f, GridFunction(m, lo, g.values[lo : hi + 1]))
            assert restricted.scale == full.scale
            assert restricted.sgei <= full.sgei + 1e-15


class TestClassify:
    def test_values_from_the_studies(self):
        assert classify(2.5487) == "unacceptable"
        assert classify(0.0535) == "acceptable"

    def test_threshold_is_inclusive(self):
        assert classify(1.0) == "unacceptable"
        assert classify(0.999999) == "acceptable"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            classify(float("nan"))
