import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nufd import (
    BACKWARD_FORWARD,
    D2_CORRECTED,
    FirstDiffKind,
    IvpProblem,
    MarchDivergedError,
    MarchUnstableError,
    Mesh,
    SecondDiffSpec,
    UnmarchableOperatorError,
    WindowError,
    build_geometric,
    build_uniform,
    consistency_report_at,
    make_oscillator_solution,
    second_difference,
    solve,
)
from nufd.diffops import slope_jump_divisors
from nufd.ivp import _march
from nufd.presets import OSCILLATOR_KAPPA, oscillator_meshes

from helpers import (
    EPS,
    MESH_FAMILIES,
    family_mesh,
    long_double_march,
    padded_march,
    reference_solve,
    stencil_scale,
)

F, B, C = FirstDiffKind.FORWARD, FirstDiffKind.BACKWARD, FirstDiffKind.CENTRAL
FORWARD_BACKWARD = SecondDiffSpec(F, B)
# The three operators the march takes: the slope jumps (V_k - V_{k-1}) / c_k.
MARCHABLE = [BACKWARD_FORWARD, D2_CORRECTED, FORWARD_BACKWARD]


@pytest.fixture(scope="module")
def meshes():
    return oscillator_meshes()


def _accuracy_meshes():
    n = 10**4
    r = 1.0 + 2.0 / n
    steps = 1.0 + 0.3 * np.random.default_rng(20100601).uniform(-1.0, 1.0, n - 1)
    points = np.concatenate(([0.0], np.cumsum(steps)))
    return {
        "uniform": build_uniform(0.0, 1.0, n),
        "graded": build_geometric(0.0, (r - 1.0) / (r ** (n - 1) - 1.0), r, n - 2),
        "jittered": Mesh(points / points[-1]),
        "geometric": oscillator_meshes()[0],
    }


def _relative_error(w: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(w - reference)) / np.max(np.abs(reference)))


class TestSolve:
    def test_uniform_mesh_reproduces_the_reported_run(self, meshes):
        _, uniform = meshes
        solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=uniform))
        assert solution.sld.sgei == pytest.approx(0.1945, abs=0.02)
        # peak error within one grid point of t = 0.2622
        h = float(uniform.steps[0])
        assert abs(solution.sld.argmax_t - 0.2622) <= h + 1e-12

    def test_uniform_mesh_frozen_regression(self, meshes):
        _, uniform = meshes
        solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=uniform))
        assert solution.sld.sgei == pytest.approx(0.1930388501960048, rel=1e-10)

    def test_geometric_mesh_frozen_regression(self, meshes):
        # value produced by the forward-difference start mandated here; the
        # peak sits early, where the start error dominates
        geometric, _ = meshes
        solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric))
        assert solution.sld.sgei == pytest.approx(0.2607906446591211, rel=1e-10)
        assert solution.sld.argmax_t == pytest.approx(0.2565642056880207, abs=1e-12)

    def test_solution_satisfies_its_own_stencil_equation(self, meshes):
        # the marching rearranges the stencil equation, so plugging the
        # solution back in must leave only rounding, measured against the
        # stencil's intrinsic scale (the geometric tail steps shrink to
        # single ulps, where that scale legitimately explodes)
        geometric, uniform = meshes
        for mesh in (geometric, uniform):
            problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh)
            w = solve(problem).w
            residual = second_difference(BACKWARD_FORWARD, w)
            target = -OSCILLATOR_KAPPA * w.values[1:-1]
            scale = stencil_scale(("d-", "d+"), mesh.points, w.values)
            scale += OSCILLATOR_KAPPA * np.abs(w.values[1:-1])
            assert np.max(np.abs(residual.values - target) / scale) <= 64 * EPS

    def test_corrected_solution_satisfies_its_stencil_equation(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric, operator=D2_CORRECTED)
        w = solve(problem).w
        residual = second_difference(D2_CORRECTED, w)
        target = -OSCILLATOR_KAPPA * w.values[1:-1]
        h = geometric.steps
        av = np.abs(w.values)
        dplus_scale = (av[2:] + av[1:-1]) / h[1:]
        dminus_scale = (av[1:-1] + av[:-2]) / h[:-1]
        scale = (dplus_scale + dminus_scale) / ((h[:-1] + h[1:]) / 2)
        scale += OSCILLATOR_KAPPA * av[1:-1]
        assert np.max(np.abs(residual.values - target) / scale) <= 64 * EPS

    def test_zero_data_propagates_zero(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(
            kappa=OSCILLATOR_KAPPA, mesh=geometric, initial_value=0.0, initial_slope=0.0
        )
        solution = solve(problem)
        np.testing.assert_array_equal(solution.w.values, 0.0)
        np.testing.assert_array_equal(solution.exact.values, 0.0)
        assert solution.sld is None

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_zero_data_stays_zero_on_a_diverging_mesh(self, operator):
        # kappa*h**2 = 2.5e5: every block's basis overflows, and 0 * inf
        # must not turn the zero solution into NaN
        mesh = build_uniform(0.0, 5e4, 10**5)
        problem = IvpProblem(
            kappa=1e6, mesh=mesh, operator=operator, initial_value=0.0, initial_slope=0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve(problem)
        np.testing.assert_array_equal(solution.w.values, 0.0)
        assert solution.sld is None

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_diverging_march_raises_a_named_error(self, operator):
        mesh = build_uniform(0.0, 50.0, 101)
        problem = IvpProblem(kappa=1e6, mesh=mesh, operator=operator)
        reference = long_double_march(mesh.points, 1e6, 1.0, -1.0, str(operator))
        first_overflow = int(np.argmax(np.abs(reference) > np.finfo(float).max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarchDivergedError) as info:
                solve(problem)
        assert isinstance(info.value, ValueError)
        assert info.value.index == first_overflow
        assert info.value.max_growth == pytest.approx(1e6 * 0.5**2, rel=1e-12)
        assert f"from index {first_overflow}" in str(info.value)
        assert str(info.value).endswith(
            "max kappa*c_k*h_k = 250000, and on any mesh the march stays bounded only while "
            "kappa*c_k*h_k <= 4 at every step"
        )

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_stable_march_that_overflows_blames_the_data(self, operator):
        # kappa*h**2 = 4pi^2/16 < 4: the march is stable, but data near the
        # largest float overflow within two steps
        problem = IvpProblem(kappa=4 * math.pi**2, mesh=build_uniform(0.0, 1.0, 5), operator=operator,
                             initial_value=1e308, initial_slope=1e308)
        with pytest.raises(MarchDivergedError) as info:
            solve(problem)
        assert info.value.max_growth <= 4
        assert str(info.value).endswith(
            "max kappa*c_k*h_k = 2.4674, within the stability limit 4, so the data overflowed float64"
        )
        assert "stays bounded only while" not in str(info.value)

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_finite_unstable_march_raises_a_named_error(self, operator):
        # kappa*h**2 = 1e4: the march grows to about 1e36 but stays finite
        problem = IvpProblem(kappa=1e6, mesh=build_uniform(0.0, 1.0, 11), operator=operator)
        with pytest.raises(MarchUnstableError, match=r"kappa\*h\*\*2 = 10000 .* limit 4") as info:
            solve(problem)
        assert isinstance(info.value, ValueError)
        assert not isinstance(info.value, MarchDivergedError)

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_march_just_inside_the_stability_limit_solves(self, operator):
        # kappa*h**2 = 3.9 on the 11-point unit mesh
        solution = solve(IvpProblem(kappa=390.0, mesh=build_uniform(0.0, 1.0, 11), operator=operator))
        assert np.all(np.isfinite(solution.w.values))

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_finite_unstable_march_on_a_geometric_mesh_raises(self, operator):
        # max kappa*c_k*h_k is about 1.2e4 and every step exceeds 4, yet the
        # march stays finite (sgei about 1e40 for d- d+)
        mesh = build_geometric(0.0, 0.1, 1.01, 10)
        problem = IvpProblem(kappa=1e6, mesh=mesh, operator=operator)
        growth_h = 1e6 * slope_jump_divisors(operator, mesh.points) * mesh.steps[1:]
        assert growth_h.min() > 4 and 1.2e4 < growth_h.max() < 1.23e4
        w = long_double_march(mesh.points, 1e6, 1.0, -1.0, str(operator))
        assert np.all(np.isfinite(w.astype(float)))
        with pytest.raises(MarchUnstableError, match=r"kappa\*h\*\*2 = .* limit 4") as info:
            solve(problem)
        assert f"kappa*h**2 = {growth_h.max():.6g} exceeds" in str(info.value)
        assert str(info.value).endswith("first above 4 at k = 1, t = 0.1)")
        assert not isinstance(info.value, MarchDivergedError)

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    @pytest.mark.parametrize("name", ["uniform", "graded", "jittered", "geometric"])
    def test_agrees_with_a_long_double_march(self, name, operator):
        mesh = _accuracy_meshes()[name]
        w = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh, operator=operator)).w.values
        reference = long_double_march(mesh.points, OSCILLATOR_KAPPA, 1.0, -1.0, str(operator))
        assert _relative_error(w, reference) <= 1e-13

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_second_value_is_the_exact_start(self, meshes, operator):
        geometric, _ = meshes
        phi = make_oscillator_solution(OSCILLATOR_KAPPA)
        w1 = float(phi.evaluate(0, geometric.points[1]))
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric, operator=operator)
        w = solve(problem, second_value=w1).w.values
        assert w[1] == w1
        reference = long_double_march(
            geometric.points, OSCILLATOR_KAPPA, 1.0, -1.0, str(operator), second_value=w1
        )
        assert _relative_error(w, reference) <= 1e-13

    def test_uniform_recurrence_reduces_to_classic_form(self):
        mesh = build_uniform(0, 1, 41)
        h = float(mesh.steps[0])
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh)
        w = solve(problem).w.values
        classic = (2 - OSCILLATOR_KAPPA * h**2) * w[1:-1] - w[:-2]
        scale = (2 + OSCILLATOR_KAPPA * h**2) * np.max(np.abs(w)) + np.max(np.abs(w))
        assert np.max(np.abs(w[2:] - classic)) <= 8 * EPS * scale

    def test_corrected_stencil_beats_the_composition_given_exact_start(self, meshes):
        # with the start error removed, the consistent stencil shows its
        # first-order convergence while the composition's bias remains
        geometric, _ = meshes
        phi = make_oscillator_solution(OSCILLATOR_KAPPA)
        w1 = float(phi.evaluate(0, geometric.points[1]))
        base = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric)
        corrected = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric, operator=D2_CORRECTED)
        sg_bf = solve(base, second_value=w1).sld.sgei
        sg_d2 = solve(corrected, second_value=w1).sld.sgei
        assert sg_d2 < sg_bf
        assert sg_bf == pytest.approx(0.1499, abs=0.003)
        assert sg_d2 == pytest.approx(0.0334, abs=0.003)

    def test_exact_start_error_peaks_at_the_endpoint(self, meshes):
        geometric, _ = meshes
        phi = make_oscillator_solution(OSCILLATOR_KAPPA)
        w1 = float(phi.evaluate(0, geometric.points[1]))
        solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric), second_value=w1)
        assert solution.sld.argmax_index == geometric.n_points - 1

    def test_halving_uniform_steps_reduces_sgei(self, meshes):
        geometric, _ = meshes
        b = geometric.b
        sgeis = []
        for n_steps in (10, 20, 40):
            mesh = build_uniform(0.0, b, n_steps + 1)
            sgeis.append(solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh)).sld.sgei)
        assert sgeis[0] > sgeis[1] > sgeis[2]

    def test_a_stable_march_whose_derivative_bounds_overflow_solves(self):
        # kappa*h**2 = 1, but sqrt(kappa)**5 = 1e310 overflows: solve forms only
        # the motion itself, while the motion as an AnalyticFunction is refused
        mesh = build_uniform(0.0, 1e-61, 11)
        solution = solve(IvpProblem(kappa=1e124, mesh=mesh))
        w, exact, sld, _, _ = reference_solve(mesh.points, 1e124, 1.0, -1.0, "d- d+")
        assert solution.w.values.tobytes() == w.tobytes()
        assert solution.exact.values.tobytes() == exact.tobytes()
        assert solution.sld.sld.tobytes() == sld.tobytes()
        assert 0 < solution.sld.sgei < 1
        with pytest.raises(ValueError, match=r"oscillator\(kappa=1e\+124\).*order 5"):
            make_oscillator_solution(1e124)

    def test_solutions_compare_and_hash_by_their_grid_functions(self):
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=build_uniform(0.0, 1.0, 11))
        a, b = solve(problem), solve(problem)
        for x, y in ((a.w, b.w), (a.exact, b.exact), (a.sld, b.sld), (a, b)):
            assert x == x and not x != x
            assert x != y and not x == y
            assert hash(x) == hash(x) and len({x, y}) == 2

    def test_a_motion_that_is_not_finite_raises_a_named_error(self):
        # the march is finite, but slope / sqrt(kappa) overflows, so the motion is NaN at t_0
        problem = IvpProblem(kappa=5e-324, mesh=build_uniform(0.0, 1.0, 11), initial_slope=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                solve(problem)
        assert str(info.value) == "oscillator(kappa=4.94066e-324): the exact motion is not finite at t = 0"


# The meshes of the bit pins: the random families, the two meshes of the
# oscillator experiment and eleven uniform points of [0, 1].
_PINNED_MESHES = (*MESH_FAMILIES, "ex5_5 geometric", "ex5_5 uniform", "uniform 11")


def _pinned_mesh(rng, name, n_points):
    if name in MESH_FAMILIES:
        return family_mesh(rng, name, n_points)
    if name == "uniform 11":
        return build_uniform(0.0, 1.0, 11)
    return oscillator_meshes()[name != "ex5_5 geometric"]


class TestSolveBits:
    """``solve``'s march, exact motion and sld are, bit for bit, the expressions
    they were first written as (``helpers.reference_solve``)."""

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(_PINNED_MESHES),
        st.integers(min_value=3, max_value=50),  # a geometric ratio of 1/2 ties points beyond 55
        st.floats(0.01, 0.99),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_solution_is_its_reference_bit_for_bit(self, operator, seed, name, n_points, share, value, slope):
        mesh = _pinned_mesh(np.random.default_rng(seed), name, n_points)
        t = mesh.points
        # a stable kappa: the given share of the largest kappa*c_k*h_k can be 4
        growth_h = slope_jump_divisors(operator, t) * mesh.steps[1:]
        kappa = 4 * share / float(np.max(growth_h))
        solution = solve(IvpProblem(kappa=kappa, mesh=mesh, operator=operator,
                                    initial_value=value, initial_slope=slope))
        w, exact, sld, scale, sgei = reference_solve(t, kappa, value, slope, str(operator))
        assert solution.w.values.tobytes() == w.tobytes()
        assert solution.exact.values.tobytes() == exact.tobytes()
        if scale == 0.0:
            assert solution.sld is None
            return
        assert solution.sld.sld.tobytes() == sld.tobytes()
        assert (solution.sld.scale, solution.sld.sgei) == (scale, sgei)

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_the_paper_runs(self, meshes, operator):
        for mesh in meshes:
            solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh, operator=operator))
            w, exact, sld, scale, sgei = reference_solve(mesh.points, OSCILLATOR_KAPPA, 1.0, -1.0, str(operator))
            assert solution.w.values.tobytes() == w.tobytes()
            assert solution.exact.values.tobytes() == exact.tobytes()
            assert solution.sld.sld.tobytes() == sld.tobytes()
            assert (solution.sld.scale, solution.sld.sgei) == (scale, sgei)


class TestExactRescaling:
    """(t, kappa, initial_slope) -> (2**j t, 2**-2j kappa, 2**-j initial_slope) is exact in every
    product of the march and of the exact motion, so neither w nor exact moves by a bit."""

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(MESH_FAMILIES),
        st.integers(min_value=5, max_value=50),  # a geometric ratio of 1/2 ties points beyond 55
        st.integers(min_value=-20, max_value=20),
        st.floats(0.01, 0.99),
        # Scaling by 2**j is exact only away from subnormals: data near 1e-308 rounds differently.
        st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
        st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_rescaling_leaves_the_solution(self, operator, seed, family, n_points, j, share,
                                                        value, slope):
        mesh = family_mesh(np.random.default_rng(seed), family, n_points)
        growth_h = slope_jump_divisors(operator, mesh.points) * mesh.steps[1:]
        kappa = 4 * share / float(np.max(growth_h))
        base = solve(IvpProblem(kappa=kappa, mesh=mesh, operator=operator,
                                initial_value=value, initial_slope=slope))
        scaled = solve(IvpProblem(kappa=kappa * 2.0 ** (-2 * j), mesh=Mesh(mesh.points * 2.0**j),
                                  operator=operator, initial_value=value, initial_slope=slope * 2.0**-j))
        assert scaled.w.values.tobytes() == base.w.values.tobytes()
        assert scaled.exact.values.tobytes() == base.exact.values.tobytes()


class TestEffectiveEquationFactor:
    """The factor by which a march rescales u'': its operator's leading coefficient.

    On a constant-ratio mesh the d- d+ march discretizes ((1+r)/2) u'' = -kappa u
    instead of the intended equation; the factor is (h_{k-1} + h_k) / (2 c_k).
    """

    def test_constant_on_geometric_mesh(self, meshes):
        # deep in the tail the steps shrink to single ulps and the derived
        # ratio quantizes, so probe where the steps are still well resolved
        geometric, _ = meshes
        expected = (50 / 59 + 1) / 2
        for k in (1, 2, 10, 20):
            factor = consistency_report_at(BACKWARD_FORWARD, geometric, k).leading_coefficient
            assert factor == pytest.approx(expected, rel=1e-12)

    def test_unity_on_uniform_mesh(self, meshes):
        _, uniform = meshes
        for k in range(1, uniform.m + 1):
            factor = consistency_report_at(BACKWARD_FORWARD, uniform, k).leading_coefficient
            assert factor == pytest.approx(1.0, rel=1e-13)

    def test_doubling_mesh(self):
        # h_{k-1} = 0.4 and h_k = 0.8 at k = 3
        mesh = build_geometric(0, 0.1, 2.0, 5)
        expected = {BACKWARD_FORWARD: 1.5, FORWARD_BACKWARD: 0.75, D2_CORRECTED: 1.0}
        for operator, factor in expected.items():
            report = consistency_report_at(operator, mesh, 3)
            assert report.leading_coefficient == pytest.approx(factor, rel=1e-13)

    def test_agrees_with_the_consistency_report(self, meshes):
        # the march's c_k and the stencil's leading coefficient are one fact:
        # d- d+ gives (h_{k-1} + h_k) / (2 h_{k-1}), d+ d- gives
        # (h_{k-1} + h_k) / (2 h_k) and d2 gives 1
        geometric, _ = meshes
        h = geometric.steps
        for operator in MARCHABLE:
            c = slope_jump_divisors(operator, geometric.points)
            for k in (1, 40, 123, 200):
                report = consistency_report_at(operator, geometric, k)
                factor = (h[k - 1] + h[k]) / (2 * c[k - 1])
                assert report.leading_coefficient == pytest.approx(factor, rel=1e-12)
                if operator is D2_CORRECTED:
                    assert report.leading_coefficient == pytest.approx(1.0, rel=1e-12)

    def test_invalid_index(self, meshes):
        geometric, _ = meshes
        with pytest.raises(WindowError):
            consistency_report_at(BACKWARD_FORWARD, geometric, 0)
        with pytest.raises(WindowError):
            consistency_report_at(BACKWARD_FORWARD, geometric, geometric.n_points - 1)

    def test_wrong_operator(self, meshes):
        # only a slope jump has a march divisor c_k, and so a factor
        geometric, _ = meshes
        for operator in (SecondDiffSpec(F, F), SecondDiffSpec(C, C), F):
            with pytest.raises(UnmarchableOperatorError):
                slope_jump_divisors(operator, geometric.points)


class TestProblemValidation:
    def test_rejects_bad_kappa(self, meshes):
        geometric, _ = meshes
        with pytest.raises(ValueError):
            IvpProblem(kappa=0.0, mesh=geometric)

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            IvpProblem(kappa=1.0, mesh=build_uniform(0, 1, 2))

    def test_rejects_non_finite_initial_data(self, meshes):
        geometric, _ = meshes
        with pytest.raises(ValueError, match="finite"):
            IvpProblem(kappa=1.0, mesh=geometric, initial_value=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            IvpProblem(kappa=1.0, mesh=geometric, initial_slope=float("inf"))

    @pytest.mark.parametrize("second_value", [float("nan"), float("inf")])
    def test_solve_rejects_a_non_finite_second_value(self, second_value):
        # kappa * h**2 = 0.01, so a finite start would march without diverging
        problem = IvpProblem(kappa=1.0, mesh=build_uniform(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="second_value") as raised:
            solve(problem, second_value=second_value)
        assert not isinstance(raised.value, MarchDivergedError)

    def test_rejects_unsupported_operator(self, meshes):
        geometric, _ = meshes
        for operator in (SecondDiffSpec(F, F), SecondDiffSpec(C, C), SecondDiffSpec(C, B), F, "d2"):
            with pytest.raises(UnmarchableOperatorError) as info:
                IvpProblem(kappa=1.0, mesh=geometric, operator=operator)
            assert isinstance(info.value, ValueError)
            assert f"cannot march '{operator}'" in str(info.value)


def _march_args(problem, second_value=None):
    """(w0, w1, v0, h, growth) as ``solve`` hands them to ``_march``."""
    h = problem.mesh.steps
    w0 = problem.initial_value
    if second_value is None:
        v0 = problem.initial_slope
        w1 = w0 + h[0] * v0
    else:
        w1 = second_value
        v0 = (w1 - w0) / h[0]
    growth = problem.kappa * slope_jump_divisors(problem.operator, problem.mesh.points)
    return float(w0), float(w1), float(v0), h[1:], growth


def _assert_same_bits(w0, w1, v0, h, growth, chained=None):
    """``_march`` against ``padded_march``, bit for bit; ``chained``, if given, is the number
    of blocks the oracle's chain must give a start before it stops (all of them: it runs through)."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = _march(w0, w1, v0, h, growth)
        want, starts = padded_march(w0, w1, v0, h, growth)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if chained is not None:
        assert starts == chained
    return got


class TestMarchBits:
    """``_march`` writes its block layout and combines its basis in place; every
    value is bit for bit the padded layout's and the combine expression's."""

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    @pytest.mark.parametrize(
        "n, length, rest",
        [(9, 1, 0), (92, 3, 0), (1005, 10, 3), (20000, 44, 22)],
        ids=["length-1", "whole-blocks", "partial-block", "many-blocks"],
    )
    def test_block_layouts(self, n, length, rest, operator):
        m = n - 2
        assert (max(1, math.isqrt(m // 10)), m % max(1, math.isqrt(m // 10))) == (length, rest)
        steps = 1.0 + 0.4 * np.random.default_rng(n).uniform(-1.0, 1.0, n - 1)
        points = np.concatenate(([0.0], np.cumsum(steps)))
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=Mesh(points / points[-1]), operator=operator)
        w = _assert_same_bits(*_march_args(problem), chained=-(-m // length))
        assert solve(problem).w.values.tobytes() == w.tobytes()

    @pytest.mark.parametrize("operator", MARCHABLE, ids=str)
    def test_zero_second_value(self, meshes, operator):
        # w_1 = 0.0: the first block starts from (0, v_0), and a zero start
        # component takes the zero-start path of the combine
        for mesh in (*meshes, build_uniform(0.0, 1.0, 1005)):
            problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh, operator=operator)
            args = _march_args(problem, second_value=0.0)
            assert args[1] == 0.0 and args[2] != 0.0
            w = _assert_same_bits(*args)
            assert solve(problem, second_value=0.0).w.values.tobytes() == w.tobytes()

    def test_zero_start_component_after_the_first_block(self):
        # zero growth: the slope stays -1 and w falls by 1/8 a step, so the
        # third block (length 4) starts from exactly (0, -1)
        m = 200
        w = _assert_same_bits(1.0, 1.0, -1.0, np.full(m, 0.125), np.zeros(m), chained=50)
        assert w[9] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 9, 39, 40, 200, 203])
    def test_chain_runs_through(self, m):
        # nonzero data through transfers of unit determinant never meets (0, 0):
        # every block gets a start, and the starts array is built in one call
        rng = np.random.default_rng(m)
        growth = OSCILLATOR_KAPPA * rng.uniform(0.5, 1.5, m) / m
        length = max(1, math.isqrt(m // 10))
        _assert_same_bits(1.0, 0.9, -1.1, rng.uniform(0.5, 1.5, m) / m, growth, chained=-(-m // length))

    @pytest.mark.parametrize("m", [5, 30])
    def test_chain_stops_after_the_first_block(self, m):
        # blocks of one step with growth*h = 1: the transfer [[0, 4], [-1/4, 1]]
        # takes the start (5e-324, 0) to (0, -1/4 * 5e-324 + 0) = (0, 0), so the
        # chain stops after one block and every later start is zero
        w = _assert_same_bits(1.0, 5e-324, 0.0, np.full(m, 4.0), np.full(m, 0.25), chained=1)
        assert not w[2:].any()

    @pytest.mark.parametrize("m", [7, 90, 1003])
    def test_zero_data(self, m):
        h = np.random.default_rng(m).uniform(0.5, 1.5, m) / m
        w = _assert_same_bits(0.0, 0.0, 0.0, h, np.full(m, OSCILLATOR_KAPPA), chained=0)
        assert not w.any()

    @pytest.mark.parametrize("w1, v0", [(0.0, 0.0), (0.0, -1.0), (1.0, 0.0)], ids=["zero", "zero-w", "zero-v"])
    def test_overflowing_transfer_behind_a_zero_start(self, w1, v0):
        # growth*h = 5e299: every block's basis overflows within two steps, and a
        # zero start component must contribute exactly zero, not 0 * inf
        m = 10**3
        w = _assert_same_bits(0.0, w1, v0, np.full(m, 0.5), np.full(m, 1e300))
        if not (w1 or v0):
            assert not w.any()
