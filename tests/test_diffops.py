import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nufd import (
    ALL_SECOND_SPECS,
    D2_CORRECTED,
    FirstDiffKind,
    GridFunction,
    Mesh,
    SecondDiffSpec,
    WindowError,
    apply_operator,
    build_geometric,
    build_uniform,
    first_difference,
    make_polynomial,
    make_sinusoid,
    sample,
    scaled_local_difference,
    second_difference,
    smoothness_ratios,
)
from nufd.diffops import derivative_order, slope_jump_divisors, stencil, stencil_offsets

from helpers import EPS, MESH_FAMILIES, family_mesh, mirrored, random_mesh, stencil_scale

F, B, C = FirstDiffKind.FORWARD, FirstDiffKind.BACKWARD, FirstDiffKind.CENTRAL


def _kinds(spec):
    return (spec.outer.value, spec.inner.value)


class TestGridFunction:
    def test_window_validation(self):
        m = build_uniform(0, 1, 5)
        with pytest.raises(ValueError):
            GridFunction(m, 3, np.zeros(4))
        with pytest.raises(ValueError):
            GridFunction(m, -1, np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(m, 0, np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            GridFunction(m, 0, np.array([]))

    def test_window_accessors(self):
        m = build_uniform(0, 1, 6)
        g = GridFunction(m, 2, np.array([1.0, 2.0, 3.0]))
        assert g.last_index == 4
        np.testing.assert_array_equal(g.indices, [2, 3, 4])
        np.testing.assert_array_equal(g.t, m.points[2:5])
        assert g.value_at(3) == 2.0
        with pytest.raises(IndexError):
            g.value_at(5)

    def test_values_immutable(self):
        g = GridFunction(build_uniform(0, 1, 3), 0, np.zeros(3))
        with pytest.raises(ValueError):
            g.values[0] = 1.0

    def test_a_float64_array_is_kept_and_frozen_in_place(self):
        # a large input is not copied, so the caller's array becomes the read-only values
        m = build_uniform(0, 1, 5)
        a = np.linspace(0, 1, 5)
        assert GridFunction(m, 0, a).values is a and not a.flags.writeable
        for other in (np.linspace(0, 1, 9)[::2], np.arange(5, dtype=np.int64)):
            g = GridFunction(m, 0, other)
            assert g.values is not other and other.flags.writeable

    def test_equality_and_hash_are_by_identity(self):
        # equal fields compare unequal: a value comparison of the arrays could only raise
        m = build_uniform(0, 1, 4)
        a, b = GridFunction(m, 0, np.arange(4.0)), GridFunction(m, 0, np.arange(4.0))
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestFirstDifference:
    def test_forward_exact_on_linear(self):
        rng = np.random.default_rng(0)
        m = random_mesh(rng, 10)
        u = sample(make_polynomial([0, 2]), 0, m)
        out = first_difference(F, u)
        assert out.first_index == 0 and len(out) == 10
        np.testing.assert_allclose(out.values, 2.0, rtol=1e-13)

    def test_windows(self):
        m = build_uniform(0, 1, 7)
        u = sample(make_polynomial([1, 1]), 0, m)
        fw = first_difference(F, u)
        bw = first_difference(B, u)
        ce = first_difference(C, u)
        assert (fw.first_index, fw.last_index) == (0, 5)
        assert (bw.first_index, bw.last_index) == (1, 6)
        assert (ce.first_index, ce.last_index) == (1, 5)

    def test_central_on_quadratic_uniform(self):
        # (t_{k+1}^2 - t_{k-1}^2) / (t_{k+1} - t_{k-1}) = 2 t_k on equal steps
        m = build_uniform(0, 1, 23)
        out = first_difference(C, sample(make_polynomial([0, 0, 1]), 0, m))
        np.testing.assert_allclose(out.values, 2 * out.t, rtol=1e-12, atol=1e-15)

    def test_central_sgei_on_refined_uniform_mesh(self):
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        m = build_uniform(0, 1, 23)
        series = scaled_local_difference(
            sample(f, 1, m), first_difference(C, sample(f, 0, m))
        )
        assert series.sgei == pytest.approx(0.05349775611168426, rel=1e-12)

    def test_window_too_small(self):
        m = build_uniform(0, 1, 2)
        u = sample(make_polynomial([1]), 0, m)
        first_difference(F, u)  # 2 points suffice here
        with pytest.raises(WindowError):
            first_difference(C, u)
        with pytest.raises(WindowError):
            first_difference(F, GridFunction(m, 0, u.values[:1]))


class TestShiftIdentity:
    def test_forward_equals_shifted_backward_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_mesh(rng, 12)
            u = GridFunction(m, 0, rng.normal(size=13))
            fw = first_difference(F, u)
            bw = first_difference(B, u)
            # same divided differences, indexed one apart
            np.testing.assert_array_equal(fw.values, bw.values)
            assert bw.first_index == fw.first_index + 1


class TestWeightedAverageIdentity:
    def test_central_is_step_weighted_average(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_mesh(rng, 15)
            u = GridFunction(m, 0, rng.normal(size=16))
            fw = first_difference(F, u).values
            bw = first_difference(B, u).values
            ce = first_difference(C, u).values
            h = m.steps
            hk, hkm1 = h[1:], h[:-1]
            combo = (hk * fw[1:] + hkm1 * bw[:-1]) / (hk + hkm1)
            scale = stencil_scale(("c",), m.points, u.values)
            assert np.all(np.abs(ce - combo) <= 8 * EPS * scale)

    def test_plain_average_on_uniform_mesh(self):
        m = build_uniform(0, 1, 23)
        u = sample(make_sinusoid(-1.0, 4 * math.pi), 0, m)
        fw = first_difference(F, u).values
        bw = first_difference(B, u).values
        ce = first_difference(C, u).values
        scale = stencil_scale(("c",), m.points, u.values)
        assert np.all(np.abs(ce - (fw[1:] + bw[:-1]) / 2) <= 8 * EPS * scale)


class TestSecondDifference:
    def test_forward_forward_on_quadratic_small_mesh(self):
        # direct arithmetic: D+ of {0, .01, .09} is {.1, .4}; (.4-.1)/.1 = 3
        m = Mesh(np.array([0.0, 0.1, 0.3]))
        u = sample(make_polynomial([0, 0, 1]), 0, m)
        out = second_difference(SecondDiffSpec(F, F), u)
        assert out.first_index == 0 and len(out) == 1
        assert out.values[0] == pytest.approx(3.0, abs=1e-12)

    def test_forward_backward_matches_three_point_stencil_on_uniform(self):
        m = build_uniform(0, 1, 23)
        h = 1 / 22
        u = sample(make_sinusoid(-1.0, 4 * math.pi), 0, m)
        out = second_difference(SecondDiffSpec(F, B), u)
        v = u.values
        stencil = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        scale = stencil_scale(("d+", "d-"), m.points, v)
        assert np.all(np.abs(out.values - stencil) <= 8 * EPS * scale)

    def test_central_central_window(self):
        m = build_uniform(0, 1, 5)
        u = GridFunction(m, 0, np.arange(5.0))
        out = second_difference(SecondDiffSpec(C, C), u)
        assert (out.first_index, out.last_index) == (2, 2)
        with pytest.raises(WindowError):
            second_difference(SecondDiffSpec(C, C), GridFunction(m, 0, u.values[:4]))

    def test_all_windows_compose(self):
        m = build_uniform(0, 1, 9)
        u = GridFunction(m, 0, np.arange(9.0))
        expected_span = {
            (F, F): (0, 6),
            (B, B): (2, 8),
            (C, C): (2, 6),
            (F, B): (1, 7),
            (B, F): (1, 7),
            (F, C): (1, 6),
            (C, F): (1, 6),
            (B, C): (2, 7),
            (C, B): (2, 7),
        }
        for spec in ALL_SECOND_SPECS:
            out = second_difference(spec, u)
            assert (out.first_index, out.last_index) == expected_span[(spec.outer, spec.inner)]


def _stencil_sum(op, u, kinds):
    # the array form: one stencil per output index, applied as a weighted sum
    evaluated = apply_operator(op, u)
    lo, hi = stencil_offsets(op)
    k = evaluated.indices
    t = u.mesh.points
    row = stencil(op, [t[k + j] for j in range(lo, hi + 1)])
    assert (row[0][0], row[-1][0]) == (lo, hi)
    weighted = sum(w * u.values[k + j] for j, w in row)
    scale = stencil_scale(kinds, t, u.values)
    return weighted, evaluated.values, scale


class TestClosedStencils:
    @pytest.mark.parametrize("spec", ALL_SECOND_SPECS, ids=str)
    def test_closed_equals_composition(self, spec):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_mesh(rng, 12, lo=0.2, hi=1.8)
            u = GridFunction(m, 0, rng.normal(size=13))
            closed, composed, scale = _stencil_sum(spec, u, _kinds(spec))
            assert np.all(np.abs(closed - composed) <= 8 * EPS * scale)

    def test_unsupported_pair_rejected(self):
        # the name "d2" is text, not an operator; parse_operator turns it into D2_CORRECTED
        with pytest.raises(TypeError):
            stencil_offsets("d2")
        with pytest.raises(TypeError):
            stencil("d2", [0.0, 0.5, 1.0])

    def test_d2_weights_are_the_closed_form(self):
        # 2/(h_{k-1}(h_{k-1}+h_k)), -2/(h_{k-1}h_k), 2/(h_k(h_{k-1}+h_k))
        rng = np.random.default_rng(11)
        points = np.cumsum(rng.uniform(0.01, 2.0, (3, 60)), axis=0)
        hm, hp = points[1] - points[0], points[2] - points[1]
        closed = (2 / (hm * (hm + hp)), -2 / (hm * hp), 2 / (hp * (hm + hp)))
        assert stencil_offsets(D2_CORRECTED) == (-1, 1)
        rows = stencil(D2_CORRECTED, list(points))
        assert [j for j, _ in rows] == [-1, 0, 1]
        for (_, w), want in zip(rows, closed):
            assert np.all(np.abs(w - want) <= 8 * EPS * np.abs(want))
        for i in range(points.shape[1]):
            row = stencil(D2_CORRECTED, points[:, i].tolist())
            # a float row is the array row's column, bit for bit
            assert [(j, type(w)) for j, w in row] == [(-1, float), (0, float), (1, float)]
            assert [w for _, w in row] == [w[i] for _, w in rows]


class TestStencil:
    def test_weights_equal_the_evaluated_operator(self):
        rng = np.random.default_rng(3)
        for op in FirstDiffKind:
            for _ in range(25):
                m = random_mesh(rng, 12, lo=0.2, hi=1.8)
                u = GridFunction(m, 0, rng.normal(size=13))
                weighted, evaluated, scale = _stencil_sum(op, u, (op.value,))
                assert np.all(np.abs(weighted - evaluated) <= 8 * EPS * scale)


# the points (b, a) each first difference reads, relative to its output index
QUOTIENT_OFFSETS = {F: (0, 1), B: (-1, 0), C: (-1, 1)}


def _quotient(kind, t, v):
    """(v_{k+a} - v_{k+b}) / (t_{k+a} - t_{k+b}) as one explicit numpy quotient, and its shift -b."""
    b, a = QUOTIENT_OFFSETS[kind]
    width = a - b
    return -b, (v[width:] - v[:-width]) / (t[width:] - t[:-width])


class TestOnePlanApplication:
    """Every operator is applied from its stencil plan."""

    @pytest.mark.parametrize("kind", list(FirstDiffKind), ids=str)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_first_difference_is_its_quotient_bit_for_bit(self, kind, seed, first):
        rng = np.random.default_rng(seed)
        for family in MESH_FAMILIES:
            m = family_mesh(rng, family, 16)
            u = GridFunction(m, first, rng.normal(size=m.n_points - first))
            shift, want = _quotient(kind, m.points[first:], u.values)
            for apply in (first_difference, apply_operator):
                out = apply(kind, u)
                assert (out.first_index, len(out)) == (first + shift, want.size)
                assert out.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", ALL_SECOND_SPECS, ids=str)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_pair_equals_its_composition_bit_for_bit(self, spec, seed, first):
        rng = np.random.default_rng(seed)
        for family in MESH_FAMILIES:
            m = family_mesh(rng, family, 16)
            u = GridFunction(m, first, rng.normal(size=m.n_points - first))
            applied = second_difference(spec, u)
            # the oracle: the pair as two nested quotients, the outer one over the inner's points
            t = m.points[first:]
            inner_shift, slopes = _quotient(spec.inner, t, u.values)
            outer_shift, want = _quotient(spec.outer, t[inner_shift : inner_shift + slopes.size], slopes)
            assert (applied.first_index, len(applied)) == (first + inner_shift + outer_shift, want.size)
            assert applied.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", [SecondDiffSpec(B, F), SecondDiffSpec(F, B), D2_CORRECTED], ids=str)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_slope_jump_over_the_march_divisors(self, op, seed):
        # (V_k - V_{k-1}) / c_k with forward differences V_k: the march's equation
        rng = np.random.default_rng(seed)
        for family in MESH_FAMILIES:
            m = family_mesh(rng, family, 16)
            t, v = m.points, rng.normal(size=m.n_points)
            slopes = (v[1:] - v[:-1]) / (t[1:] - t[:-1])
            jump = (slopes[1:] - slopes[:-1]) / slope_jump_divisors(op, t)
            out = second_difference(op, GridFunction(m, 0, v))
            assert out.first_index == 1
            assert out.values.tobytes() == jump.tobytes()

    @pytest.mark.parametrize("op", [*ALL_SECOND_SPECS, D2_CORRECTED], ids=str)
    def test_too_short_window_names_the_operator(self, op):
        lo, hi = stencil_offsets(op)
        m = build_uniform(0.0, 1.0, 9)
        short = GridFunction(m, 2, np.zeros(hi - lo))
        message = f"second difference '{op}' needs at least {hi - lo + 1} consecutive points, got {hi - lo}"
        for apply in (second_difference, apply_operator):
            with pytest.raises(WindowError, match=re.escape(message)):
                apply(op, short)
        out = second_difference(op, GridFunction(m, 2, np.zeros(hi - lo + 1)))
        assert (out.first_index, len(out)) == (2 - lo, 1)

    def test_rejects_anything_else(self):
        u = GridFunction(build_uniform(0.0, 1.0, 9), 0, np.zeros(9))
        for op in (F, "d2"):
            with pytest.raises(TypeError, match=re.escape(repr(op))):
                second_difference(op, u)


class TestCorrectedSecondDifference:
    def test_exact_on_quadratics_any_mesh(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = random_mesh(rng, 14, lo=0.1, hi=2.0)
            out = second_difference(D2_CORRECTED, sample(make_polynomial([1.0, -3.0, 1.0]), 0, m))
            np.testing.assert_allclose(out.values, 2.0, rtol=1e-11)

    def test_equals_forward_backward_composition_on_uniform(self):
        m = build_uniform(0, 1, 23)
        u = sample(make_sinusoid(-1.0, 4 * math.pi), 0, m)
        a = second_difference(D2_CORRECTED, u)
        b = second_difference(SecondDiffSpec(F, B), u)
        assert a.first_index == b.first_index
        scale = stencil_scale(("d+", "d-"), m.points, u.values)
        assert np.all(np.abs(a.values - b.values) <= 8 * EPS * scale)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["jittered", "geometric"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_its_stencil_application(self, seed, family):
        rng = np.random.default_rng(seed)
        if family == "jittered":
            m = random_mesh(rng, 20, lo=0.2, hi=1.8)
        else:
            m = build_geometric(0.0, rng.uniform(0.01, 1.0), rng.uniform(0.5, 2.0), 19)
        u = GridFunction(m, 0, rng.normal(size=m.n_points))
        t, h, av = m.points, m.steps, np.abs(u.values)
        k = np.arange(1, m.n_points - 1)
        applied = sum(w * u.values[k + j] for j, w in stencil(D2_CORRECTED, [t[k - 1], t[k], t[k + 1]]))
        # the magnitudes carried through (D+ - D-) / ((h_{k-1} + h_k) / 2)
        scale = ((av[2:] + av[1:-1]) / h[1:] + (av[1:-1] + av[:-2]) / h[:-1]) / ((h[:-1] + h[1:]) / 2)
        out = second_difference(D2_CORRECTED, u)
        assert (out.first_index, len(out)) == (1, k.size)
        assert np.all(np.abs(out.values - applied) <= 8 * EPS * scale)

    def test_window_too_small(self):
        u = GridFunction(build_uniform(0, 1, 2), 0, np.zeros(2))
        with pytest.raises(WindowError):
            second_difference(D2_CORRECTED, u)

    def test_beats_forward_forward_on_the_study_mesh(self):
        # consistent first-order stencil vs an inconsistent composition on
        # the 23-point nonuniform mesh of the derivative studies
        from nufd.presets import section5_nonuniform_mesh

        m = section5_nonuniform_mesh(beta=0.7)
        f = make_sinusoid(-1.0, 4 * math.pi)
        u = sample(f, 0, m)
        ref = sample(f, 2, m)
        sg_d2 = scaled_local_difference(ref, second_difference(D2_CORRECTED, u)).sgei
        sg_ff = scaled_local_difference(ref, second_difference(SecondDiffSpec(F, F), u)).sgei
        assert sg_d2 < sg_ff


class TestRatioIdentity:
    def test_forward_backward_vs_backward_forward(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_mesh(rng, 12, lo=0.2, hi=1.8)
            u = GridFunction(m, 0, rng.normal(size=13))
            fb = second_difference(SecondDiffSpec(F, B), u)
            bf = second_difference(SecondDiffSpec(B, F), u)
            h = m.steps
            ks = fb.indices
            ratio = h[ks - 1] / h[ks]
            scale = stencil_scale(("d+", "d-"), m.points, u.values)
            assert np.all(np.abs(fb.values - ratio * bf.values) <= 4 * EPS * scale)


class TestCommutation:
    def test_uniform_meshes_commute(self):
        m = build_uniform(0, 1, 23)
        u = sample(make_sinusoid(-1.0, 4 * math.pi), 0, m)
        for p in FirstDiffKind:
            for q in FirstDiffKind:
                pq = second_difference(SecondDiffSpec(p, q), u)
                qp = second_difference(SecondDiffSpec(q, p), u)
                # swapped compositions shrink the window identically
                assert (pq.first_index, pq.last_index) == (qp.first_index, qp.last_index)
                scale = np.maximum(
                    stencil_scale((p.value, q.value), m.points, u.values),
                    stencil_scale((q.value, p.value), m.points, u.values),
                )
                assert np.all(np.abs(pq.values - qp.values) <= 4 * EPS * scale)

    def test_nonuniform_meshes_do_not_commute(self):
        rng = np.random.default_rng(8)
        m = random_mesh(rng, 12, lo=0.5, hi=1.5)
        assert np.all(np.abs(smoothness_ratios(m) - 1) > 1e-3)
        u = sample(make_polynomial([0, 0, 0, 1]), 0, m)
        for p, q in [(F, B), (F, C), (B, C)]:
            pq = second_difference(SecondDiffSpec(p, q), u)
            qp = second_difference(SecondDiffSpec(q, p), u)
            lo = max(pq.first_index, qp.first_index)
            hi = min(pq.last_index, qp.last_index)
            pq_common = pq.values[lo - pq.first_index : hi + 1 - pq.first_index]
            qp_common = qp.values[lo - qp.first_index : hi + 1 - qp.first_index]
            gap = np.max(np.abs(pq_common - qp_common))
            assert gap > 1e-8


class TestLinearity:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-4, max_value=4),
        st.floats(min_value=-4, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    @example(0, 0.0, 5e-324)
    def test_every_operator_is_linear(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        m = random_mesh(rng, 10, lo=0.2, hi=1.8)
        u = rng.normal(size=11)
        v = rng.normal(size=11)
        gu = GridFunction(m, 0, u)
        gv = GridFunction(m, 0, v)
        gw = GridFunction(m, 0, alpha * u + beta * v)
        for op in (F, B, C, SecondDiffSpec(F, B), SecondDiffSpec(C, C), D2_CORRECTED):
            left = apply_operator(op, gw).values
            right = alpha * apply_operator(op, gu).values + beta * apply_operator(op, gv).values
            kinds = {
                F: ("d+",), B: ("d-",), C: ("c",), D2_CORRECTED: ("d+", "d-"),
            }.get(op) or _kinds(op)
            scale = abs(alpha) * stencil_scale(kinds, m.points, u) + abs(beta) * stencil_scale(
                kinds, m.points, v
            )
            # alpha*u + beta*v itself carries rounding before differencing;
            # subnormal products round by an absolute amount, which no
            # relative tolerance covers, so a few subnormal ulps of input
            # rounding are propagated through the stencil as a floor
            floor = 4 * np.finfo(float).smallest_subnormal * stencil_scale(
                kinds, m.points, np.ones(11)
            )
            assert np.all(np.abs(left - right) <= 16 * EPS * (scale + np.abs(left)) + floor)


_ALL_OPERATORS = (*FirstDiffKind, *ALL_SECOND_SPECS, D2_CORRECTED)


class TestExactSymmetries:
    """Reflecting the mesh, or scaling it by a power of two, changes every operator's result exactly."""

    _MESHES = dict(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        family=st.sampled_from(MESH_FAMILIES),
        n_points=st.integers(min_value=5, max_value=50),  # a geometric ratio of 1/2 ties points beyond 55
    )

    @given(**_MESHES)
    @settings(max_examples=150, deadline=None)
    def test_reflection(self, seed, family, n_points):
        rng = np.random.default_rng(seed)
        m = family_mesh(rng, family, n_points)
        u = GridFunction(m, 0, rng.normal(size=n_points))
        # t -> -t with the points and values reversed, so the mesh still increases
        mirror = GridFunction(Mesh(-m.points[::-1]), 0, u.values[::-1])
        for op in _ALL_OPERATORS:
            out = apply_operator(op, u)
            reflected = apply_operator(mirrored(op), mirror)
            assert reflected.first_index == n_points - 1 - out.last_index
            sign = (-1.0) ** derivative_order(op)
            assert reflected.values[::-1].tobytes() == (sign * out.values).tobytes(), str(op)

    @given(**_MESHES, j=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling(self, seed, family, n_points, j):
        rng = np.random.default_rng(seed)
        m = family_mesh(rng, family, n_points)
        u = GridFunction(m, 0, rng.normal(size=n_points))
        scaled = GridFunction(Mesh(m.points * 2.0**j), 0, u.values)
        for op in _ALL_OPERATORS:
            out = apply_operator(op, u)
            changed = apply_operator(op, scaled)
            assert changed.first_index == out.first_index
            unscaled = changed.values * 2.0 ** (j * derivative_order(op))
            assert unscaled.tobytes() == out.values.tobytes(), str(op)


class TestOperatorDispatch:
    def test_apply_and_order(self):
        m = build_uniform(0, 1, 9)
        u = sample(make_polynomial([0, 0, 1]), 0, m)
        assert derivative_order(F) == 1
        assert derivative_order(SecondDiffSpec(C, C)) == 2
        assert derivative_order(D2_CORRECTED) == 2
        np.testing.assert_allclose(apply_operator(D2_CORRECTED, u).values, 2.0, rtol=1e-12)
        with pytest.raises(TypeError):
            apply_operator("bogus", u)
        with pytest.raises(TypeError):
            derivative_order("bogus")

    def test_d2_plan_is_d_minus_d_plus_over_the_mean_step(self):
        plan = D2_CORRECTED.plan
        assert (plan.lo, plan.hi, plan.outer, plan.inner, plan.rows, plan.share) == (
            -1, 1, (0, 2), (0, 1, 1, 2), ((-1, 0), (0, 4), (1, 3)), 2.0
        )

    @pytest.mark.parametrize("op", ["d2", None, 3], ids=repr)
    def test_a_non_operator_is_named(self, op):
        u = GridFunction(build_uniform(0.0, 1.0, 9), 0, np.zeros(9))
        for call in (
            lambda: stencil_offsets(op),
            lambda: stencil(op, [0.0, 0.5, 1.0]),
            lambda: derivative_order(op),
            lambda: apply_operator(op, u),
        ):
            with pytest.raises(TypeError, match=re.escape(f"unknown operator {op!r}")):
                call()

    @pytest.mark.parametrize("kind", [SecondDiffSpec(C, C), D2_CORRECTED, "d+", None], ids=str)
    def test_first_difference_rejects_a_non_first_difference(self, kind):
        u = GridFunction(build_uniform(0.0, 1.0, 9), 0, np.zeros(9))
        with pytest.raises(TypeError, match=re.escape(f"unknown first-difference kind {kind!r}")):
            first_difference(kind, u)
