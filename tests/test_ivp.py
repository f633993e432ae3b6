import warnings

import numpy as np
import pytest

from nufd import (
    BACKWARD_FORWARD,
    D2_CORRECTED,
    FirstDiffKind,
    IvpProblem,
    MarchDivergedError,
    Mesh,
    SecondDiffSpec,
    build_geometric,
    build_uniform,
    consistency_report_at,
    d2_corrected,
    effective_equation_factor,
    make_oscillator_solution,
    second_difference,
    solve,
)
from nufd.presets import OSCILLATOR_KAPPA, oscillator_meshes

from helpers import EPS, long_double_march, stencil_scale


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
            target = -OSCILLATOR_KAPPA * w.restrict(1, mesh.n_points - 2).values
            scale = stencil_scale(("d-", "d+"), mesh.points, w.values)
            scale += OSCILLATOR_KAPPA * np.abs(w.values[1:-1])
            assert np.max(np.abs(residual.values - target) / scale) <= 64 * EPS

    def test_corrected_solution_satisfies_its_stencil_equation(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric, operator=D2_CORRECTED)
        w = solve(problem).w
        residual = d2_corrected(w)
        target = -OSCILLATOR_KAPPA * w.restrict(1, geometric.n_points - 2).values
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

    @pytest.mark.parametrize("operator", [BACKWARD_FORWARD, D2_CORRECTED], ids=str)
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

    @pytest.mark.parametrize("operator", [BACKWARD_FORWARD, D2_CORRECTED], ids=str)
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

    @pytest.mark.parametrize("operator", [BACKWARD_FORWARD, D2_CORRECTED], ids=str)
    @pytest.mark.parametrize("name", ["uniform", "graded", "jittered", "geometric"])
    def test_agrees_with_a_long_double_march(self, name, operator):
        mesh = _accuracy_meshes()[name]
        w = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh, operator=operator)).w.values
        reference = long_double_march(mesh.points, OSCILLATOR_KAPPA, 1.0, -1.0, str(operator))
        assert _relative_error(w, reference) <= 1e-13

    @pytest.mark.parametrize("operator", [BACKWARD_FORWARD, D2_CORRECTED], ids=str)
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


class TestEffectiveEquationFactor:
    def test_constant_on_geometric_mesh(self, meshes):
        # deep in the tail the steps shrink to single ulps and the derived
        # ratio quantizes, so probe where the steps are still well resolved
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric)
        expected = (50 / 59 + 1) / 2
        for k in (1, 2, 10, 20):
            assert effective_equation_factor(problem, k) == pytest.approx(expected, rel=1e-12)

    def test_unity_on_uniform_mesh(self, meshes):
        _, uniform = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=uniform)
        for k in range(1, uniform.m + 1):
            assert effective_equation_factor(problem, k) == pytest.approx(1.0, rel=1e-13)

    def test_doubling_mesh(self):
        mesh = build_geometric(0, 0.1, 2.0, 5)
        problem = IvpProblem(kappa=1.0, mesh=mesh)
        assert effective_equation_factor(problem, 3) == pytest.approx(1.5, rel=1e-13)

    def test_agrees_with_the_consistency_report(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric)
        for k in (1, 40, 123, 200):
            report = consistency_report_at(BACKWARD_FORWARD, geometric, k)
            assert effective_equation_factor(problem, k) == report.leading_coefficient

    def test_invalid_index(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric)
        with pytest.raises(ValueError):
            effective_equation_factor(problem, 0)
        with pytest.raises(ValueError):
            effective_equation_factor(problem, geometric.n_points - 1)

    def test_wrong_operator(self, meshes):
        geometric, _ = meshes
        problem = IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric, operator=D2_CORRECTED)
        with pytest.raises(ValueError):
            effective_equation_factor(problem, 3)


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

    def test_rejects_unsupported_operator(self, meshes):
        geometric, _ = meshes
        with pytest.raises(ValueError):
            IvpProblem(
                kappa=1.0,
                mesh=geometric,
                operator=SecondDiffSpec(FirstDiffKind.FORWARD, FirstDiffKind.FORWARD),
            )
