import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nufd import (
    ALL_SECOND_SPECS,
    D2_CORRECTED,
    FirstDiffKind,
    Mesh,
    MeshError,
    SecondDiffSpec,
    WindowError,
    build_uniform,
    consistency_coefficient,
    consistency_report_at,
    empirical_order,
    expansion_prediction,
    first_diff_error_bound,
    first_difference,
    geometric_consistency,
    make_polynomial,
    make_sinusoid,
    sample,
    second_difference,
)
from nufd.analysis import CONSISTENCY_TOL, ConsistencyReport
from nufd.diffops import stencil, stencil_offsets

from helpers import (
    MESH_FAMILIES,
    exact_uniform_mesh,
    family_mesh,
    float_bits,
    jittered_family,
    mesh_from_quadruple,
    mirrored,
    random_mesh,
    reference_stencil,
)

F, B, C = FirstDiffKind.FORWARD, FirstDiffKind.BACKWARD, FirstDiffKind.CENTRAL
SECOND_OPERATORS = [*ALL_SECOND_SPECS, D2_CORRECTED]


def coefficient_from_quadratic(spec, steps):
    """Independent extraction: the pair applied to t^2 reads off 2 * leading."""
    m = mesh_from_quadruple(steps)
    out = second_difference(spec, sample(make_polynomial([0, 0, 1]), 0, m))
    return out.value_at(2) / 2.0


class TestConsistencyCoefficient:
    def test_forward_forward_example(self):
        report = consistency_coefficient(SecondDiffSpec(F, F), (None, None, 0.1, 0.2))
        assert report.leading_coefficient == pytest.approx(1.5, abs=1e-15)
        assert not report.consistent

    def test_equal_steps_are_consistent_for_every_pair(self):
        for spec in ALL_SECOND_SPECS:
            report = consistency_coefficient(spec, (0.3, 0.3, 0.3, 0.3))
            assert report.leading_coefficient == 1.0
            assert report.consistent

    def test_central_backward_on_doubling_steps(self):
        # steps (1, 2, 4, 8): (h_k + 2h_{k-1} + h_{k-2}) / (2(h_k + h_{k-1})) = 9/12
        report = consistency_coefficient(SecondDiffSpec(C, B), (1.0, 2.0, 4.0, 8.0))
        assert report.leading_coefficient == pytest.approx(0.75, abs=1e-15)

    def test_missing_needed_step_rejected(self):
        with pytest.raises(ValueError):
            consistency_coefficient(SecondDiffSpec(F, F), (0.1, 0.1, 0.1, None))
        with pytest.raises(ValueError):
            consistency_coefficient(SecondDiffSpec(B, B), (None, 0.1, 0.1, 0.1))

    @pytest.mark.parametrize("steps", [(0.1, 0.1, 0.1), (0.1, 0.1, 0.1, 0.1, 0.1), ()], ids=["3", "5", "0"])
    def test_steps_other_than_a_quadruple_rejected(self, steps):
        message = re.escape("steps must be the quadruple (h_{k-2}, h_{k-1}, h_k, h_{k+1})")
        with pytest.raises(ValueError, match=message):
            consistency_coefficient(SecondDiffSpec(F, F), steps)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            consistency_coefficient(SecondDiffSpec(F, F), (None, None, -0.1, 0.2))

    def test_unused_steps_may_be_absent(self):
        report = consistency_coefficient(SecondDiffSpec(F, B), (None, 0.2, 0.1, None))
        assert report.leading_coefficient == pytest.approx((0.1 + 0.2) / 0.2, abs=1e-15)

    def test_matches_quadratic_extraction_for_all_pairs(self):
        rng = np.random.default_rng(21)
        for spec in ALL_SECOND_SPECS:
            for _ in range(50):
                steps = tuple(rng.uniform(0.5, 1.5, 4))
                report = consistency_coefficient(spec, steps)
                extracted = coefficient_from_quadratic(spec, steps)
                assert abs(report.leading_coefficient - extracted) <= 1e-12 * abs(extracted)

    def test_consistent_flag_tracks_tolerance(self):
        report = consistency_coefficient(SecondDiffSpec(F, B), (None, 0.1, 0.1, None))
        assert report.consistent
        report = consistency_coefficient(
            SecondDiffSpec(F, B), (None, 0.1, 0.1 * (1 + 1e-9), None)
        )
        assert not report.consistent


class TestConsistencyReportAt:
    def test_bracket_inside_two_step_neighbourhood(self):
        rng = np.random.default_rng(22)
        m = random_mesh(rng, 9)
        for spec in ALL_SECOND_SPECS:
            lo_off, hi_off = stencil_offsets(spec)
            for k in range(-lo_off, m.n_points - hi_off):
                report = consistency_report_at(spec, m, k)
                lo, hi = report.remainder_bracket
                assert lo >= m.points[max(k - 2, 0)] - 1e-12
                assert hi <= m.points[min(k + 2, m.n_points - 1)] + 1e-12
                assert lo <= m.points[k] <= hi
                assert report.index == k

    def test_invalid_index_rejected(self):
        m = build_uniform(0, 1, 6)
        with pytest.raises(ValueError):
            consistency_report_at(SecondDiffSpec(C, C), m, 1)
        with pytest.raises(ValueError):
            consistency_report_at(SecondDiffSpec(F, F), m, 4)


class TestConsistencyReportContract:
    """A report is a frozen dataclass value, however the analysis builds it."""

    FIELDS = [
        "spec", "index", "leading_coefficient", "fppp_coefficient", "consistent", "remainder_bracket",
    ]

    def report(self):
        return consistency_report_at(SecondDiffSpec(F, F), Mesh(np.array([0.0, 0.5, 1.5, 2.0, 3.25])), 1)

    def test_fields_are_frozen(self):
        report = self.report()
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, getattr(report, name))

    def test_equal_reports_hash_alike(self):
        a, b = self.report(), self.report()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_repr(self):
        assert repr(self.report()) == (
            "ConsistencyReport(spec=SecondDiffSpec(outer=<FirstDiffKind.FORWARD: 'd+'>, "
            "inner=<FirstDiffKind.FORWARD: 'd+'>), index=1, leading_coefficient=0.75, "
            "fppp_coefficient=0.625, consistent=False, remainder_bracket=(0.5, 2.0))"
        )

    def test_field_names_and_order(self):
        assert [field.name for field in dataclasses.fields(ConsistencyReport)] == self.FIELDS

    def test_keyword_construction_gives_an_equal_report(self):
        report = self.report()
        built = ConsistencyReport(**{name: getattr(report, name) for name in self.FIELDS})
        assert built == report
        assert hash(built) == hash(report)
        assert repr(built) == repr(report)


class TestGeometricConsistency:
    def test_unit_ratio_is_exactly_one_for_all_pairs(self):
        for spec in ALL_SECOND_SPECS:
            assert geometric_consistency(spec, 1.0) == 1.0

    def test_central_backward_at_ratio_two(self):
        assert geometric_consistency(SecondDiffSpec(C, B), 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_forward_forward_at_ratio_two(self):
        assert geometric_consistency(SecondDiffSpec(F, F), 2.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.1, 2.0])
    def test_any_other_ratio_is_inconsistent(self, alpha):
        for spec in ALL_SECOND_SPECS:
            assert abs(geometric_consistency(spec, alpha) - 1.0) > 1e-6

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            geometric_consistency(SecondDiffSpec(F, F), 0.0)

    @pytest.mark.parametrize("alpha", [1e200, 1e-200, math.inf])
    def test_rejects_a_ratio_whose_powers_are_not_finite_floats(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            geometric_consistency(SecondDiffSpec(F, F), alpha)


class TestFirstDiffErrorBound:
    def test_zero_bound_for_linear_function(self):
        f = make_polynomial([0, 2])
        m = build_uniform(0, 1, 12)
        assert first_diff_error_bound(F, f, m, 3) == 0.0
        out = first_difference(F, sample(f, 0, m))
        assert abs(out.value_at(3) - 2.0) <= 1e-13

    def test_forward_bound_on_the_study_function(self):
        f = make_sinusoid(-1.0, 4 * math.pi)
        m = build_uniform(0, 1, 23)
        exact = sample(f, 1, m)
        u = sample(f, 0, m)
        out = first_difference(F, u)
        reference_bound = (1 / 44) * (4 * math.pi) ** 2
        for k in out.indices:
            bound = first_diff_error_bound(F, f, m, int(k))
            assert bound <= reference_bound * 1.011
            assert abs(out.value_at(int(k)) - exact.value_at(int(k))) <= bound

    def test_central_bound_uniform_uses_third_derivative(self):
        f = make_sinusoid(-1.0, 4 * math.pi)
        m = build_uniform(0, 1, 23)
        exact = sample(f, 1, m)
        out = first_difference(C, sample(f, 0, m))
        reference_bound = ((1 / 22) ** 2 / 3) * (4 * math.pi) ** 3
        for k in out.indices:
            bound = first_diff_error_bound(C, f, m, int(k))
            assert bound <= reference_bound * 1.011
            assert abs(out.value_at(int(k)) - exact.value_at(int(k))) <= bound

    def test_central_bound_far_from_the_origin_uses_third_derivative(self):
        # Steps on [1e6, 1e6+1] differ by one ulp of 1e6; that rounding must
        # not switch the mesh to the nonuniform bound.
        f = make_sinusoid(-1.0, 4 * math.pi)
        m = build_uniform(1e6, 1e6 + 1, 1000)
        exact = sample(f, 1, m)
        out = first_difference(C, sample(f, 0, m))
        reference_bound = ((1 / 999) ** 2 / 3) * (4 * math.pi) ** 3
        for k in out.indices:
            bound = first_diff_error_bound(C, f, m, int(k))
            assert bound <= reference_bound * 1.011
            assert abs(out.value_at(int(k)) - exact.value_at(int(k))) <= bound

    def test_forward_bound_holds_where_every_sample_of_f2_is_zero(self):
        # f'' = -(1000 pi)^2 sin(1000 pi t) vanishes at every multiple of
        # 0.001, so a sampled supremum over [0, 1] reads 0; the error is 1000 pi.
        f = make_sinusoid(1.0, 1000 * math.pi)
        m = Mesh(np.array([0.0, 1.0, 2.0]))
        actual = abs(first_difference(F, sample(f, 0, m)).value_at(0) - f.evaluate(1, 0.0))
        assert actual == pytest.approx(3141.59, rel=1e-5)
        assert first_diff_error_bound(F, f, m, 0) >= actual

    def test_central_bound_nonuniform_uses_second_derivative(self):
        rng = np.random.default_rng(23)
        f = make_sinusoid(-1.0, 4 * math.pi)
        m = random_mesh(rng, 22, scale=1 / 22)
        exact = sample(f, 1, m)
        out = first_difference(C, sample(f, 0, m))
        for k in out.indices:
            bound = first_diff_error_bound(C, f, m, int(k))
            assert abs(out.value_at(int(k)) - exact.value_at(int(k))) <= bound

    def test_invalid_index(self):
        f = make_polynomial([0, 1])
        m = build_uniform(0, 1, 5)
        with pytest.raises(ValueError):
            first_diff_error_bound(F, f, m, 4)
        with pytest.raises(ValueError):
            first_diff_error_bound(B, f, m, 0)
        with pytest.raises(ValueError):
            first_diff_error_bound(C, f, m, 0)


class TestStencilWeights:
    def test_weights_reproduce_the_coefficient_table(self):
        rng = np.random.default_rng(24)
        for spec in ALL_SECOND_SPECS:
            steps = tuple(rng.uniform(0.5, 1.5, 4))
            m = mesh_from_quadruple(steps)
            lo, hi = stencil_offsets(spec)
            row = stencil(spec, m.points[2 + lo : 3 + hi].tolist())
            offsets, weights = np.array([j for j, _ in row]), np.array([w for _, w in row])
            deltas = m.points[2 + offsets] - m.points[2]
            report = consistency_coefficient(spec, steps)
            assert np.sum(weights) == pytest.approx(0.0, abs=1e-9)
            assert np.sum(weights * deltas) == pytest.approx(0.0, abs=1e-9)
            assert np.sum(weights * deltas**2) / 2 == pytest.approx(
                report.leading_coefficient, rel=1e-11
            )
            assert np.sum(weights * deltas**3) / 6 == pytest.approx(
                report.fppp_coefficient, rel=1e-9, abs=1e-11
            )


class TestExpansionPrediction:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(25)
        f = make_polynomial([0, 0, 1])
        for spec in ALL_SECOND_SPECS:
            steps = tuple(rng.uniform(0.2, 1.0, 4))
            m = mesh_from_quadruple(steps)
            predicted, remainder = expansion_prediction(spec, f, m, 2)
            report = consistency_coefficient(spec, steps)
            direct = second_difference(spec, sample(f, 0, m)).value_at(2)
            assert remainder == 0.0
            assert predicted == pytest.approx(report.leading_coefficient * 2.0, rel=1e-13)
            assert predicted == pytest.approx(direct, rel=1e-11)

    def test_forward_backward_exact_on_cubics_uniform(self):
        f = make_polynomial([0, 0, 0, 1])
        m = build_uniform(-0.5, 0.5, 11)
        k = 5
        predicted, remainder = expansion_prediction(SecondDiffSpec(F, B), f, m, k)
        direct = second_difference(SecondDiffSpec(F, B), sample(f, 0, m)).value_at(k)
        # uniform steps wipe out the f''' coefficient and the cubic has no
        # higher derivatives, so prediction, direct value and 6 t_k all agree
        assert remainder == 0.0
        assert predicted == pytest.approx(6 * m.points[k], rel=1e-10, abs=1e-12)
        assert direct == pytest.approx(predicted, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
        st.tuples(*[st.floats(0.05, 2.0)] * 4),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_remainder_is_exactly_zero_up_to_cubics(self, coefs, steps, shift):
        # every pair's remainder is an f or f' term, and both vanish
        f = make_polynomial(coefs)
        m = Mesh(mesh_from_quadruple(steps).points + shift)
        for spec in ALL_SECOND_SPECS:
            assert expansion_prediction(spec, f, m, 2)[1] == 0.0

    def test_symmetric_windows_predict_the_fourth_derivative_term(self):
        # c c, d+ d- and d- d+ carry the f'''' term, so a quartic leaves them no
        # remainder; the other pairs bound that term instead
        rng = np.random.default_rng(27)
        f = make_polynomial([0.3, -1.0, 0.5, 2.0, -1.5])
        for spec in ALL_SECOND_SPECS:
            m = mesh_from_quadruple(tuple(rng.uniform(0.2, 1.0, 4)))
            predicted, remainder = expansion_prediction(spec, f, m, 2)
            lo, hi = stencil_offsets(spec)
            if lo == -hi:
                direct = second_difference(spec, sample(f, 0, m)).value_at(2)
                assert remainder == 0.0
                assert predicted == pytest.approx(direct, rel=1e-11, abs=1e-11)
            else:
                assert remainder > 0.0

    def test_remainder_bounds_the_gap_on_the_small_mesh(self):
        f = make_sinusoid(-1.0, 4 * math.pi)
        m = Mesh(np.array([0.0, 0.1, 0.3]))
        predicted, remainder = expansion_prediction(SecondDiffSpec(F, F), f, m, 0)
        direct = second_difference(SecondDiffSpec(F, F), sample(f, 0, m)).value_at(0)
        assert abs(direct - predicted) <= remainder

    def test_remainder_dominates_for_all_pairs_on_random_quadruples(self):
        rng = np.random.default_rng(26)
        f = make_sinusoid(-1.0, 4 * math.pi)
        for spec in ALL_SECOND_SPECS:
            for _ in range(20):
                steps = tuple(rng.uniform(0.02, 0.2, 4))
                m = mesh_from_quadruple(steps)
                predicted, remainder = expansion_prediction(spec, f, m, 2)
                direct = second_difference(spec, sample(f, 0, m)).value_at(2)
                assert abs(direct - predicted) <= remainder

    def test_invalid_index(self):
        f = make_polynomial([0, 0, 1])
        with pytest.raises(ValueError):
            expansion_prediction(SecondDiffSpec(C, C), f, build_uniform(0, 1, 5), 1)


class TestFloat64Failures:
    """Steps float64 cannot expand over end in a MeshError naming the operator, the index and the points."""

    SINE = make_sinusoid(1.0, 1.0)

    @staticmethod
    def assert_named(info, op, k, points):
        assert f"cannot expand '{op}' at index {k} in float64" in str(info.value)
        assert f"on the points {list(points)} under its stencil" in str(info.value)

    @pytest.mark.parametrize("interval,k", [
        ((0.0, 1e200, 9), 3),  # (t_{k+j} - t_k)**2 overflows
        ((0.0, 1e-310, 9), 4),  # subnormal steps: the weights overflow, the powers underflow, inf * 0 is NaN
    ], ids=["square-overflow", "subnormal-steps"])
    def test_consistency_report_at(self, interval, k):
        mesh = build_uniform(*interval)
        with pytest.raises(MeshError) as info:
            consistency_report_at(SecondDiffSpec(F, F), mesh, k)
        self.assert_named(info, "d+ d+", k, mesh.points[k : k + 3].tolist())

    @pytest.mark.parametrize("spec,alpha,points", [
        # the cube of the offset overflows
        (SecondDiffSpec(F, F), 1e60, [0.0, 1e60 * 1e60, 1e60 * 1e60 + 1e60 * 1e60 * 1e60]),
        (SecondDiffSpec(F, F), 1e-60, [0.0, 1e-120, 1e-120]),  # 1e-120 + 1e-180 collapses onto 1e-120
        (D2_CORRECTED, 1e-103, [-1e-103, 0.0, 1e-103 * 1e-103]),  # an inner weight overflows, NaN moments
    ], ids=["cube-overflow", "collapsed-points", "nan-moment"])
    def test_geometric_consistency(self, spec, alpha, points):
        with pytest.raises(MeshError) as info:
            geometric_consistency(spec, alpha)
        self.assert_named(info, spec, 2, points)

    @pytest.mark.parametrize("spec", [SecondDiffSpec(B, F), D2_CORRECTED])
    @pytest.mark.parametrize("interval", [(0.0, 1e70, 9), (0.0, 1e-310, 9)], ids=["power-overflow", "subnormal-steps"])
    def test_expansion_prediction(self, spec, interval):
        mesh = build_uniform(*interval)
        with pytest.raises(MeshError) as info:
            expansion_prediction(spec, self.SINE, mesh, 4)
        self.assert_named(info, spec, 4, mesh.points[3:6].tolist())

    def test_first_diff_error_bound(self):
        for mesh, k in [
            (build_uniform(0.0, 1e160, 9), 4),  # both squared steps overflow
            (Mesh([0.0, 2e154, 2e154 + 1e140]), 1),  # only h_{k-1} squared overflows, on a nonuniform window
        ]:
            with pytest.raises(MeshError) as info:
                first_diff_error_bound(C, self.SINE, mesh, k)
            self.assert_named(info, "c", k, mesh.points[k - 1 : k + 2].tolist())


@pytest.fixture(scope="module")
def study_function():
    return make_sinusoid(-1.0, 4 * math.pi)


@pytest.fixture(scope="module")
def uniform_family():
    return [build_uniform(0, 1, 22 * 2**j + 1) for j in range(4)]


class TestEmpiricalOrder:
    def test_central_is_second_order(self, study_function, uniform_family):
        est = empirical_order(C, study_function, uniform_family, 1)
        assert 1.8 <= est.slope <= 2.2

    def test_forward_is_first_order(self, study_function, uniform_family):
        est = empirical_order(F, study_function, uniform_family, 1)
        assert 0.8 <= est.slope <= 1.2

    def test_forward_forward_stalls_on_jittered_meshes(self, study_function):
        est = empirical_order(
            SecondDiffSpec(F, F), study_function, jittered_family(42), 2
        )
        assert -0.3 <= est.slope <= 0.3
        assert min(e for _, e in est.sample_points) > 0.05

    def test_sample_points_recorded(self, study_function, uniform_family):
        est = empirical_order(C, study_function, uniform_family, 1)
        assert len(est.sample_points) == 4
        hs = [h for h, _ in est.sample_points]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_family_validation(self, study_function):
        fine = [build_uniform(0, 1, n) for n in (23, 45, 89)]
        with pytest.raises(ValueError):
            empirical_order(C, study_function, fine[:2], 1)
        with pytest.raises(ValueError):
            empirical_order(C, study_function, [fine[0], fine[0], fine[1]], 1)
        with pytest.raises(ValueError):
            empirical_order(C, study_function, fine, 3)

    def test_pre_asymptotic_coarsest_level_excluded(self, study_function):
        # the coarsest mesh cannot resolve the oscillation at all (sgei > 1),
        # so the fit must drop it to recover the asymptotic slope
        family = [build_uniform(0, 1, n) for n in (6, 23, 45, 89)]
        est = empirical_order(SecondDiffSpec(F, F), study_function, family, 2)
        assert est.sample_points[0][1] > 1.0
        assert 0.75 <= est.slope <= 1.25

    def test_an_exact_operator_has_no_order_to_fit(self):
        # the central difference is exact on a line, so every sgei is 0 and log(0) has no slope
        family = [build_uniform(0, 1, n) for n in (11, 21, 41)]
        with pytest.raises(ValueError, match=r"^sgei is exactly 0 on mesh 0 of the family \(h_max = 0\.1\)"):
            empirical_order(C, make_polynomial([0.0, 1.0]), family, 1)


def _oracle_mesh(family, rng):
    """Twelve-point mesh of one family; the offset family sits near 1e6, where steps round."""
    if family == "jittered":
        return random_mesh(rng, 11)
    if family == "geometric":
        return Mesh(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 2.0) ** np.arange(11)))))
    if family == "offset":
        return random_mesh(rng, 11, start=1e6, scale=1e-3)
    return exact_uniform_mesh(rng, 12)


def _oracle_terms(op, x):
    lo, _ = stencil_offsets(op)
    return [(w, x[j - lo] - x[-lo]) for j, w in reference_stencil(op, x)]


def _oracle_power(d, p):
    """d**p for p = 2 .. 5, formed by products as the analysis forms it."""
    dd = d * d
    return (dd, dd * d, dd * dd, dd * dd * d)[p - 2]


def _oracle_sum(terms):
    """The correctly rounded sum of ``terms``: their exact rational sum, rounded once."""
    return float(sum(map(Fraction, terms)))


def _oracle_moment(terms, p):
    return _oracle_sum(w * _oracle_power(d, p) for w, d in terms) / math.factorial(p)


def _oracle_quadruple_points(steps):
    """Points around t_k = 0 through the four steps, each formed as consistency_coefficient forms it."""
    h0, h1, h2, h3 = steps
    back = 0.0 - h1
    return [back - h0, back, 0.0, h2, h2 + h3]


class TestReferenceOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(["jittered", "geometric", "offset", "uniform"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_and_its_views_equal_the_reference_rows(self, family, seed):
        # the planned stencil and every per-index view, for the nine pairs and d2,
        # are bit-identical to the values rebuilt from the composed reference rows
        # of tests/helpers.py
        rng = np.random.default_rng(seed)
        mesh = _oracle_mesh(family, rng)
        t, h, n = mesh.points, mesh.steps, mesh.n_points
        f = make_sinusoid(rng.uniform(0.5, 2.0), rng.uniform(1.0, 8.0), rng.uniform(0.0, 6.0))
        for op in [*FirstDiffKind, *SECOND_OPERATORS]:
            lo, hi = stencil_offsets(op)
            ks = np.arange(-lo, n - hi)
            rows = [t[ks + j] for j in range(lo, hi + 1)]
            got, want = stencil(op, rows), reference_stencil(op, rows)
            assert [j for j, _ in got] == [j for j, _ in want]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
            for k in ks.tolist():
                x = t[k + lo : k + hi + 1].tolist()
                assert stencil(op, x) == reference_stencil(op, x)
        for spec in SECOND_OPERATORS:
            lo, hi = stencil_offsets(spec)
            p = 5 if lo == -hi else 4
            for k in range(-lo, n - hi):
                x = t[k + lo : k + hi + 1].tolist()
                terms = _oracle_terms(spec, x)
                leading, fppp = _oracle_moment(terms, 2), _oracle_moment(terms, 3)
                report = consistency_report_at(spec, mesh, k)
                assert (report.leading_coefficient, report.fppp_coefficient) == (leading, fppp)
                assert report.remainder_bracket == (x[0], x[-1])
                assert report.consistent == (abs(leading - 1.0) <= CONSISTENCY_TOL)
                row = stencil(spec, x)
                assert [j for j, _ in row] == [j for j, _ in reference_stencil(spec, x)]
                assert [w for _, w in row] == [w for w, _ in terms]
                # f^(q)(t_k) from the array path, which shares no code with the scalar one
                predicted = _oracle_sum(
                    _oracle_moment(terms, q) * float(f.evaluate(q, np.array([x[-lo]]))[0])
                    for q in range(2, p)
                )
                bound = _oracle_sum(abs(w * _oracle_power(d, p)) for w, d in terms) / math.factorial(p)
                assert expansion_prediction(spec, f, mesh, k) == (
                    predicted, bound * f.sup_abs(p, x[0], x[-1])
                )
            for k in range(2, n - 2):
                steps = h[k - 2 : k + 2].tolist()
                quad = _oracle_quadruple_points(steps)[2 + lo : 3 + hi]
                terms = _oracle_terms(spec, quad)
                report = consistency_coefficient(spec, steps)
                assert report.leading_coefficient == _oracle_moment(terms, 2)
                assert report.fppp_coefficient == _oracle_moment(terms, 3)
            alpha = float(rng.uniform(0.5, 2.0))
            quad = _oracle_quadruple_points((1.0, alpha, alpha * alpha, alpha * alpha * alpha))[2 + lo : 3 + hi]
            assert geometric_consistency(spec, alpha) == _oracle_moment(_oracle_terms(spec, quad), 2)
        # the bounds as they read numpy scalars from points and steps
        for k in range(0, n - 1):
            assert first_diff_error_bound(F, f, mesh, k) == (h[k] / 2) * f.sup_abs(2, t[k], t[k + 1])
            assert first_diff_error_bound(B, f, mesh, k + 1) == (h[k] / 2) * f.sup_abs(2, t[k], t[k + 1])
        for k in range(1, n - 1):
            if mesh.is_uniform():
                want = (h[k] * h[k] / 3) * f.sup_abs(3, t[k - 1], t[k + 1])
            else:
                sup_fwd, sup_bwd = f.sup_abs(2, t[k], t[k + 1]), f.sup_abs(2, t[k - 1], t[k])
                want = (h[k] * h[k] * sup_fwd + h[k - 1] * h[k - 1] * sup_bwd) / (2 * (h[k] + h[k - 1]))
            assert first_diff_error_bound(C, f, mesh, k) == want


class TestExactSymmetries:
    """Reflecting the points, or scaling them by a power of two, maps every report and prediction exactly.

    Reflection, t -> -t with the points reversed, mirrors the operator and
    changes M_q by (-1)^q; scaling by 2^j changes M_q by 2^((q-2)j).  Floats
    compare with ==, so bit for bit up to the sign of a zero.
    """

    _MESHES = dict(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        family=st.sampled_from(MESH_FAMILIES),
        n_points=st.integers(min_value=5, max_value=50),  # a geometric ratio of 1/2 ties points beyond 55
    )

    @staticmethod
    def windows(mesh):
        """(spec, k) for every second operator at every index where its stencil fits."""
        for spec in SECOND_OPERATORS:
            lo, hi = stencil_offsets(spec)
            for k in range(-lo, mesh.n_points - hi):
                yield spec, k

    @staticmethod
    def reflected(report, spec, index):
        a, b = report.remainder_bracket
        return dataclasses.replace(
            report, spec=spec, index=index, fppp_coefficient=-report.fppp_coefficient, remainder_bracket=(-b, -a)
        )

    @staticmethod
    def scaled(report, scale):
        a, b = report.remainder_bracket
        return dataclasses.replace(
            report, fppp_coefficient=report.fppp_coefficient * scale, remainder_bracket=(a * scale, b * scale)
        )

    @given(**_MESHES, j=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_consistency_report_at(self, seed, family, n_points, j):
        mesh = family_mesh(np.random.default_rng(seed), family, n_points)
        mirror, scaled = Mesh(-mesh.points[::-1]), Mesh(mesh.points * 2.0**j)
        for spec, k in self.windows(mesh):
            report = consistency_report_at(spec, mesh, k)
            back = n_points - 1 - k
            assert consistency_report_at(mirrored(spec), mirror, back) == self.reflected(report, mirrored(spec), back)
            assert consistency_report_at(spec, scaled, k) == self.scaled(report, 2.0**j)

    @given(**_MESHES, j=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_consistency_coefficient(self, seed, family, n_points, j):
        # the quadruple reversed is the reflected window; every operator reads its own steps of it
        steps = family_mesh(np.random.default_rng(seed), family, n_points).steps.tolist()
        for spec in SECOND_OPERATORS:
            for k in range(2, n_points - 2):
                quadruple = steps[k - 2 : k + 2]
                report = consistency_coefficient(spec, quadruple)
                assert consistency_coefficient(mirrored(spec), quadruple[::-1]) == self.reflected(
                    report, mirrored(spec), 2
                )
                assert consistency_coefficient(spec, [h * 2.0**j for h in quadruple]) == self.scaled(report, 2.0**j)

    @given(**_MESHES, degree=st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_expansion_prediction_under_reflection(self, seed, family, n_points, degree):
        # f(t) = sum c_i t^i and its mirror f(-t) = sum (-1)^i c_i t^i: the q-th derivative
        # changes by (-1)^q at the mirrored point, as M_q does, so every term is unchanged
        rng = np.random.default_rng(seed)
        mesh = family_mesh(rng, family, n_points)
        coefs = rng.normal(size=degree + 1)
        f, mirror_f = make_polynomial(coefs), make_polynomial(coefs * (-1.0) ** np.arange(degree + 1))
        mirror = Mesh(-mesh.points[::-1])
        for spec, k in self.windows(mesh):
            want = expansion_prediction(spec, f, mesh, k)
            assert expansion_prediction(mirrored(spec), mirror_f, mirror, n_points - 1 - k) == want, str(spec)

    @given(**_MESHES, degree=st.integers(min_value=0, max_value=5), j=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_expansion_prediction_under_scaling(self, seed, family, n_points, degree, j):
        # f(t) = sum c_i t^i and f(t / 2^j) = sum c_i 2^(-ij) t^i: each term M_q f^(q)(t_k),
        # and the bound, change by 2^(-2j)
        rng = np.random.default_rng(seed)
        mesh = family_mesh(rng, family, n_points)
        coefs = rng.normal(size=degree + 1)
        f, scaled_f = make_polynomial(coefs), make_polynomial(coefs * 2.0 ** (-j * np.arange(degree + 1)))
        scaled = Mesh(mesh.points * 2.0**j)
        for spec, k in self.windows(mesh):
            predicted, bound = expansion_prediction(spec, f, mesh, k)
            want = (predicted * 2.0 ** (-2 * j), bound * 2.0 ** (-2 * j))
            assert expansion_prediction(spec, scaled_f, scaled, k) == want, str(spec)


class TestOperatorType:
    """The second-difference views reject anything else with a TypeError naming it."""

    @pytest.mark.parametrize("op", [*FirstDiffKind, "d2", None], ids=str)
    def test_views_reject_a_non_second_difference(self, op):
        mesh = build_uniform(0.0, 1.0, 7)
        f = make_sinusoid(1.0, 2.0)
        message = re.escape(f"need a second difference, got {op!r}")
        for view in (
            lambda: consistency_report_at(op, mesh, 3),
            lambda: expansion_prediction(op, f, mesh, 3),
            lambda: consistency_coefficient(op, (0.1, 0.2, 0.3, 0.4)),
            lambda: geometric_consistency(op, 1.5),
        ):
            with pytest.raises(TypeError, match=message):
                view()

    @pytest.mark.parametrize("kind", [SecondDiffSpec(F, F), D2_CORRECTED, "d+", None], ids=str)
    def test_the_error_bound_rejects_a_non_first_difference(self, kind):
        with pytest.raises(TypeError, match=re.escape(f"unknown first-difference kind {kind!r}")):
            first_diff_error_bound(kind, make_sinusoid(1.0, 2.0), build_uniform(0.0, 1.0, 7), 3)


class TestWindowErrors:
    """An index whose stencil does not fit raises WindowError with the window message."""

    @pytest.mark.parametrize("k_at", ["first", "last"])
    @pytest.mark.parametrize("spec", ALL_SECOND_SPECS, ids=str)
    def test_pair_views(self, spec, k_at):
        mesh = build_uniform(0.0, 1.0, 7)
        f = make_sinusoid(1.0, 2.0)
        k = 0 if k_at == "first" else 6
        lo, hi = stencil_offsets(spec)
        message = re.escape(f"index {k} is invalid for '{spec}' on a mesh with 7 points")
        for view in (
            lambda: consistency_report_at(spec, mesh, k),
            lambda: expansion_prediction(spec, f, mesh, k),
        ):
            if 0 <= k + lo and k + hi <= 6:
                view()
            else:
                with pytest.raises(WindowError, match=message):
                    view()

    @pytest.mark.parametrize("k_at", ["first", "last"])
    @pytest.mark.parametrize("kind", list(FirstDiffKind), ids=str)
    def test_first_difference_bounds(self, kind, k_at):
        mesh = build_uniform(0.0, 1.0, 7)
        f = make_sinusoid(1.0, 2.0)
        k = 0 if k_at == "first" else 6
        lo, hi = stencil_offsets(kind)
        if 0 <= k + lo and k + hi <= 6:
            first_diff_error_bound(kind, f, mesh, k)
        else:
            name = {F: "forward", B: "backward", C: "central"}[kind]
            with pytest.raises(WindowError, match=f"index {k} invalid for a {name} difference"):
                first_diff_error_bound(kind, f, mesh, k)


class TestBufferEdges:
    """The scalar calls read their points from the mesh's buffer: at both ends
    of a minimal mesh and of a mesh whose buffer starts inside a larger array,
    they give the bits of a mesh built from a copy of the points."""

    F = make_sinusoid(1.3, 2.0, 0.4)
    # 40 jittered points; a slice of them starts its buffer mid-allocation
    ALL_POINTS = np.cumsum(np.random.default_rng(36).uniform(0.5, 1.5, 40))

    @classmethod
    def meshes(cls, lo, hi):
        """(label, mesh) for the fewest points the stencil needs and for a 9-point slice at offset 13."""
        minimal = Mesh(cls.ALL_POINTS[:hi - lo + 1].copy())
        sliced = Mesh(cls.ALL_POINTS[13:22])
        assert sliced.points.base is not None and sliced.points[0] == cls.ALL_POINTS[13]
        return [("minimal", minimal), ("slice", sliced)]

    @staticmethod
    def bits(values):
        return [float_bits(v) for v in values]

    @pytest.mark.parametrize("spec", SECOND_OPERATORS, ids=str)
    def test_second_differences(self, spec):
        lo, hi = stencil_offsets(spec)
        for label, mesh in self.meshes(lo, hi):
            t = mesh.points
            copy = Mesh(t.copy())
            n = mesh.n_points
            for k in (-lo, n - 1 - hi):
                report, want = consistency_report_at(spec, mesh, k), consistency_report_at(spec, copy, k)
                assert report.remainder_bracket == (t[k + lo], t[k + hi]), label
                fields = [report.leading_coefficient, report.fppp_coefficient, *report.remainder_bracket]
                assert self.bits(fields) == self.bits(
                    [want.leading_coefficient, want.fppp_coefficient, *want.remainder_bracket]), label
                assert report.consistent == want.consistent
                assert self.bits(expansion_prediction(spec, self.F, mesh, k)) == self.bits(
                    expansion_prediction(spec, self.F, copy, k)), label
            for k in (-lo - 1, n - hi):
                message = re.escape(f"index {k} is invalid for '{spec}' on a mesh with {n} points")
                with pytest.raises(WindowError, match=message):
                    consistency_report_at(spec, mesh, k)
                with pytest.raises(WindowError, match=message):
                    expansion_prediction(spec, self.F, mesh, k)

    @pytest.mark.parametrize("kind", list(FirstDiffKind), ids=str)
    def test_first_differences(self, kind):
        lo, hi = stencil_offsets(kind)
        for label, mesh in self.meshes(lo, hi):
            copy = Mesh(mesh.points.copy())
            n = mesh.n_points
            for k in (-lo, n - 1 - hi):
                assert float_bits(first_diff_error_bound(kind, self.F, mesh, k)) == float_bits(
                    first_diff_error_bound(kind, self.F, copy, k)), label
            for k in (-lo - 1, n - hi):
                with pytest.raises(WindowError, match=f"^index {k} invalid for a {kind.name.lower()} difference$"):
                    first_diff_error_bound(kind, self.F, mesh, k)
