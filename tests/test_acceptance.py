"""Acceptance suite.

Each test runs one numbered acceptance criterion at its stated tolerance,
prints a single pass/fail line (run pytest with -s to see them all) and
fails if the criterion is not met.

Criteria 1-4 reproduce published error figures, and the paper scales those
by the continuous supremum of |f^(p)| on [0, 1].  They are scored on that
scale, not on the grid-maximum scale of ``scaled_local_difference``; see
criterion 2.  The geometric half of criterion 5 is not attainable by the
definitions implemented here; its test states the target verbatim and is
expected to stay red.  See the docstrings below for the numeric analysis.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from nufd import (
    ALL_SECOND_SPECS,
    D2_CORRECTED,
    FirstDiffKind,
    GridFunction,
    IvpProblem,
    SecondDiffSpec,
    apply_operator,
    build_uniform,
    consistency_coefficient,
    empirical_order,
    expansion_prediction,
    first_diff_error_bound,
    first_difference,
    geometric_consistency,
    make_polynomial,
    make_sinusoid,
    sample,
    scaled_local_difference,
    second_difference,
    solve,
)
from nufd.metrics import classify
from nufd.presets import (
    OSCILLATOR_KAPPA,
    oscillator_meshes,
    section5_function,
    section5_nonuniform_mesh,
    section5_uniform_mesh,
)

from helpers import EPS, exact_uniform_mesh, jittered_family, mesh_from_quadruple, random_mesh, stencil_scale

F, B, C = FirstDiffKind.FORWARD, FirstDiffKind.BACKWARD, FirstDiffKind.CENTRAL


def _report(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {label}: {detail}"


def _study_sgei(op, mesh):
    f = section5_function()
    order = 1 if isinstance(op, FirstDiffKind) else 2
    approx = apply_operator(op, sample(f, 0, mesh))
    return scaled_local_difference(sample(f, order, mesh), approx)


# sup |f^(p)| on [0, 1] for the study function f(t) = -sin(4 pi t): every
# derivative is a sinusoid of amplitude (4 pi)^p whose crests fall on
# multiples of 1/8, so the supremum is attained inside the interval.
_STUDY_OMEGA = 4 * math.pi


def _paper_sgei(series, order):
    """The published error figure: max_k |f^(p)(t_k) - approx_k| / sup |f^(p)|."""
    return float(np.max(np.abs(series.reference - series.approx))) / _STUDY_OMEGA**order


@pytest.fixture(scope="module")
def uniform23():
    return section5_uniform_mesh()


@pytest.fixture(scope="module")
def nonuniform23():
    return section5_nonuniform_mesh(beta=0.7)


def test_criterion_1_central_first_derivative(uniform23):
    start = perf_counter()
    series = _study_sgei(C, uniform23)
    elapsed = perf_counter() - start
    sgei = _paper_sgei(series, 1)
    ok = abs(sgei - 0.0535) <= 0.003 and elapsed < 1.0
    _report(1, ok, f"sgei={sgei:.6f} target 0.0535±0.003, {elapsed:.3f}s")


def test_criterion_2_forward_forward_second_derivative(uniform23):
    """The target 0.5559 is scaled by the continuous peak of f'', (4 pi)^2.

    On the 23-point uniform mesh the published figures of Examples 5.1-5.4
    (0.0535, 0.5559, 0.2817, 0.1031) match the error over (4 pi)^p to four
    digits: 0.05350, 0.55589, 0.28173, 0.10307.  ``scaled_local_difference``
    scales by the grid maximum of the reference instead, here
    (4 pi)^2 * sin(6 pi / 11) = 0.98982 (4 pi)^2, which gives the library's
    sgei 0.56160 (and 0.28463, 0.10413 for criteria 3 and 4).  The 0.005
    window around 0.5559 cannot absorb that 1.0 % scale difference
    (0.56160 - 0.5559 = 0.0057), so the criterion is scored on the paper's
    scale, and the grid-max scale is pinned here so that the library metric
    stays as documented.
    """
    start = perf_counter()
    series = _study_sgei(SecondDiffSpec(F, F), uniform23)
    elapsed = perf_counter() - start
    sgei = _paper_sgei(series, 2)
    grid_scale = _STUDY_OMEGA**2 * math.sin(6 * math.pi / 11)
    ok = (
        abs(sgei - 0.5559) <= 0.005
        and abs(series.scale - grid_scale) <= 1e-12 * grid_scale
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"sgei={sgei:.6f} target 0.5559±0.005, grid-max sgei={series.sgei:.6f} "
        f"at scale {series.scale / _STUDY_OMEGA**2:.5f} (4 pi)^2, {elapsed:.3f}s",
    )


def test_criterion_3_central_backward_second_derivative(uniform23):
    start = perf_counter()
    series = _study_sgei(SecondDiffSpec(C, B), uniform23)
    elapsed = perf_counter() - start
    sgei = _paper_sgei(series, 2)
    ok = abs(sgei - 0.2817) <= 0.01 and elapsed < 1.0
    _report(3, ok, f"sgei={sgei:.6f} target 0.2817±0.01, {elapsed:.3f}s")


def test_criterion_4_central_central_second_derivative(uniform23):
    start = perf_counter()
    series = _study_sgei(SecondDiffSpec(C, C), uniform23)
    elapsed = perf_counter() - start
    sgei = _paper_sgei(series, 2)
    ok = abs(sgei - 0.1031) <= 0.005 and elapsed < 1.0
    _report(4, ok, f"sgei={sgei:.6f} target 0.1031±0.005, {elapsed:.3f}s")


def test_criterion_5_oscillator_geometric_mesh():
    """Known red: with the forward-difference start w_1 = w_0 - h_0 mandated
    here, marching the stated recurrence on the geometric mesh gives
    sgei = 0.26079 peaking at t = 0.2566, not 0.5055 at the endpoint.  The
    same code reproduces the uniform-mesh half of this criterion within
    its window, and no faithful variant of the recurrence, start value or
    index alignment reaches both targets at once.  The endpoint peak only
    appears when the start error is removed (exact w_1 gives 0.1499 at b).

    The march agrees with the independent long-double oracle
    ``helpers.long_double_march``, so the gap is one of definition, not of
    arithmetic.  None of these variants gives 0.5055 at b:

    * the operators d- d+, d+ d- and d2;
    * the forward-difference start or the exact start w_1 = u(t_1);
    * w_{k-1} or the implicit w_{k+1} in the kappa w term;
    * the steps taken in reverse order;
    * geometric meshes of m = 5 to 200 steps;
    * the unscaled maximum error instead of the sgei.

    One clue: the uniform half's 0.1945 equals the *unscaled* maximum error
    there, 0.19448 (the sgei is 0.19304), while the unscaled maximum error
    on the geometric mesh is 0.2639.  Settling the criterion needs the
    paper's own definition of Example 5.5, which the repository lacks.
    """
    geometric, _ = oscillator_meshes()
    start = perf_counter()
    solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=geometric))
    elapsed = perf_counter() - start
    sld = solution.sld
    ok = (
        abs(sld.sgei - 0.5055) <= 0.02
        and sld.argmax_index == geometric.n_points - 1
        and elapsed < 1.0
    )
    _report(
        "5 (geometric)",
        ok,
        f"sgei={sld.sgei:.6f} target 0.5055±0.02, argmax_t={sld.argmax_t:.4f} "
        f"target b={geometric.b:.4f}, {elapsed:.3f}s",
    )


def test_criterion_5_oscillator_uniform_mesh():
    geometric, uniform = oscillator_meshes()
    start = perf_counter()
    solution = solve(IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=uniform))
    elapsed = perf_counter() - start
    sld = solution.sld
    h = float(uniform.steps[0])
    ok = (
        abs(sld.sgei - 0.1945) <= 0.02
        and abs(sld.argmax_t - 0.2622) <= h + 1e-12
        and elapsed < 1.0
    )
    _report(
        "5 (uniform)",
        ok,
        f"sgei={sld.sgei:.6f} target 0.1945±0.02, argmax_t={sld.argmax_t:.4f} "
        f"target 0.2622±{h:.4f}, {elapsed:.3f}s",
    )


def test_criterion_6_nonuniform_mesh_degradation(uniform23, nonuniform23):
    failures = []
    s1u = _study_sgei(C, uniform23).sgei
    s1n = _study_sgei(C, nonuniform23).sgei
    if not s1n > 3 * s1u:
        failures.append(f"(a) first-derivative ratio {s1n / s1u:.2f} <= 3")
    s2n = _study_sgei(SecondDiffSpec(F, F), nonuniform23).sgei
    if not (s2n >= 1 and classify(s2n) == "unacceptable"):
        failures.append(f"(b) forward-forward nonuniform sgei {s2n:.4f} < 1")
    for label, spec in (("5.3", SecondDiffSpec(C, B)), ("5.4", SecondDiffSpec(C, C))):
        su = _study_sgei(spec, uniform23).sgei
        sn = _study_sgei(spec, nonuniform23).sgei
        if not sn > 2 * su:
            failures.append(f"(c) {label} ratio {sn / su:.2f} <= 2")
    _report(6, not failures, "; ".join(failures) or
            f"ratios {s1n / s1u:.1f}x, {s2n:.2f}>=1, both composed pairs >2x")


def test_criterion_7_consistency_coefficients():
    start = perf_counter()
    rng = np.random.default_rng(2024)
    quad_fn = make_polynomial([0, 0, 1])
    worst = 0.0
    for spec in ALL_SECOND_SPECS:
        for _ in range(1000):
            steps = tuple(rng.uniform(0.5, 1.5, 4))
            leading = consistency_coefficient(spec, steps).leading_coefficient
            mesh = mesh_from_quadruple(steps)
            extracted = second_difference(spec, sample(quad_fn, 0, mesh)).value_at(2) / 2
            worst = max(worst, abs(leading - extracted) / abs(extracted))
    failures = []
    if worst > 1e-12:
        failures.append(f"coefficient mismatch {worst:.2e} > 1e-12")
    for spec in ALL_SECOND_SPECS:
        for alpha in (0.5, 0.9, 1.0, 1.1, 2.0):
            coefficient = geometric_consistency(spec, alpha)
            if alpha == 1.0 and coefficient != 1.0:
                failures.append(f"{spec} alpha=1 gave {coefficient}")
            if alpha != 1.0 and abs(coefficient - 1.0) <= 1e-6:
                failures.append(f"{spec} alpha={alpha} looks consistent")
    elapsed = perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(7, not failures, "; ".join(failures) or
            f"worst rel dev {worst:.2e} over 9x1000 quadruples, {elapsed:.2f}s")


def test_criterion_8_order_suite():
    start = perf_counter()
    f = make_sinusoid(-1.0, 4 * math.pi)
    uniform_family = [build_uniform(0, 1, 22 * 2**j + 1) for j in range(4)]
    failures = []

    def expect(op, target_order, target_slope, width, family=uniform_family):
        est = empirical_order(op, f, family, target_order)
        if abs(est.slope - target_slope) > width:
            failures.append(f"{op} slope {est.slope:.3f} not {target_slope}±{width}")
        return est

    expect(F, 1, 1.0, 0.2)
    expect(B, 1, 1.0, 0.2)
    expect(C, 1, 2.0, 0.2)
    for spec in (SecondDiffSpec(C, C), SecondDiffSpec(F, B), SecondDiffSpec(B, F)):
        expect(spec, 2, 2.0, 0.25)
    for spec in (
        SecondDiffSpec(F, F), SecondDiffSpec(B, B),
        SecondDiffSpec(F, C), SecondDiffSpec(C, F),
        SecondDiffSpec(B, C), SecondDiffSpec(C, B),
    ):
        expect(spec, 2, 1.0, 0.25)

    jittered = jittered_family(2024)
    expect(D2_CORRECTED, 2, 1.0, 0.3, family=jittered)
    stalled = expect(SecondDiffSpec(F, F), 2, 0.0, 0.3, family=jittered)
    floor = min(e for _, e in stalled.sample_points)
    if floor <= 0.05:
        failures.append(f"inconsistent pair sgei floor {floor:.3f} not bounded away from 0")

    elapsed = perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(8, not failures, "; ".join(failures) or f"13 slope checks, {elapsed:.2f}s")


def test_criterion_9_identity_suite():
    start = perf_counter()
    rng = np.random.default_rng(99)
    failures = []
    for trial in range(100):
        n_steps = int(rng.integers(8, 24))
        mesh = random_mesh(rng, n_steps, lo=0.3, hi=1.7, scale=float(rng.uniform(0.05, 1.0)))
        if rng.random() < 0.5:
            fn = make_polynomial(rng.uniform(-2, 2, 4))
        else:
            fn = make_sinusoid(rng.uniform(0.5, 2), rng.uniform(1, 8), rng.uniform(0, 2 * np.pi))
        u = sample(fn, 0, mesh)
        pts, vals = mesh.points, u.values
        h = mesh.steps

        # D+/D- shift identity: identical divided differences, shifted index
        fw = first_difference(F, u)
        bw = first_difference(B, u)
        if not (np.array_equal(fw.values, bw.values) and bw.first_index == fw.first_index + 1):
            failures.append(f"trial {trial}: shift identity broken")

        # central difference as step-weighted average; the combined path
        # carries three extra roundings against its own propagation scale
        ce = first_difference(C, u).values
        combo = (h[1:] * fw.values[1:] + h[:-1] * bw.values[:-1]) / (h[1:] + h[:-1])
        av = np.abs(vals)
        avg_scale = (av[2:] + 2 * av[1:-1] + av[:-2]) / (h[1:] + h[:-1])
        if np.any(np.abs(ce - combo) > 8 * EPS * avg_scale):
            failures.append(f"trial {trial}: weighted-average identity exceeded 8 eps")

        # ratio identity between the two mixed compositions, 4 eps
        fb = second_difference(SecondDiffSpec(F, B), u)
        bf = second_difference(SecondDiffSpec(B, F), u)
        ratio = h[fb.indices - 1] / h[fb.indices]
        if np.any(
            np.abs(fb.values - ratio * bf.values)
            > 4 * EPS * stencil_scale(("d+", "d-"), pts, vals)
        ):
            failures.append(f"trial {trial}: ratio identity exceeded 4 eps")

        # linearity of every operator, 8 eps
        v = rng.normal(size=mesh.n_points)
        alpha, beta = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        gv = GridFunction(mesh, 0, v)
        gw = GridFunction(mesh, 0, alpha * vals + beta * v)
        for op, kinds in (
            (F, ("d+",)), (C, ("c",)),
            (SecondDiffSpec(C, B), ("c", "d-")), (D2_CORRECTED, ("d+", "d-")),
        ):
            left = apply_operator(op, gw).values
            right = alpha * apply_operator(op, u).values + beta * apply_operator(op, gv).values
            scale = abs(alpha) * stencil_scale(kinds, pts, vals) + abs(beta) * stencil_scale(
                kinds, pts, v
            )
            if np.any(np.abs(left - right) > 8 * EPS * (scale + np.abs(left))):
                failures.append(f"trial {trial}: {op} linearity exceeded 8 eps")

        # exactness: first differences on a random linear function
        c1 = float(rng.uniform(-3, 3))
        c0 = float(rng.uniform(-3, 3))
        line = sample(make_polynomial([c0, c1]), 0, mesh)
        for kind in (F, B, C):
            out = apply_operator(kind, line).values
            scale = stencil_scale((kind.value,), pts, line.values)
            if np.any(np.abs(out - c1) > 8 * EPS * (scale + abs(c1))):
                failures.append(f"trial {trial}: {kind} not exact on linear")

        # exactness: corrected stencil on a random quadratic
        c2 = rng.uniform(0.5, 3)
        quad = sample(make_polynomial([c0, c1, c2]), 0, mesh)
        out = apply_operator(D2_CORRECTED, quad).values
        scale = stencil_scale(("d+", "d-"), pts, quad.values)
        if np.any(np.abs(out - 2 * c2) > 8 * EPS * (scale + 2 * c2)):
            failures.append(f"trial {trial}: corrected stencil not exact on quadratic")

        # uniform commutation, 4 eps (bit-identical steps; float-noisy
        # "uniform" meshes perturb the identity beyond rounding)
        uni = exact_uniform_mesh(rng, mesh.n_points)
        uu = sample(fn, 0, uni)
        for p, q in ((F, B), (F, C), (B, C)):
            pq = second_difference(SecondDiffSpec(p, q), uu)
            qp = second_difference(SecondDiffSpec(q, p), uu)
            scale = np.maximum(
                stencil_scale((p.value, q.value), uni.points, uu.values),
                stencil_scale((q.value, p.value), uni.points, uu.values),
            )
            if np.any(np.abs(pq.values - qp.values) > 4 * EPS * scale):
                failures.append(f"trial {trial}: {p}{q} uniform commutation exceeded 4 eps")

        if failures:
            break
    elapsed = perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(9, not failures, "; ".join(failures[:3]) or f"100 seeded combinations, {elapsed:.2f}s")


def test_criterion_10_error_bound_suite(uniform23, nonuniform23):
    start = perf_counter()
    failures = []
    cases = [make_sinusoid(-1.0, 4 * math.pi), make_polynomial([0, 0, 0, 1])]
    for fn in cases:
        for mesh in (uniform23, nonuniform23):
            exact = sample(fn, 1, mesh)
            u = sample(fn, 0, mesh)
            for kind in (F, B, C):
                out = apply_operator(kind, u)
                for k in out.indices:
                    k = int(k)
                    bound = first_diff_error_bound(kind, fn, mesh, k)
                    err = abs(out.value_at(k) - exact.value_at(k))
                    if err > bound + 1e-12:
                        failures.append(
                            f"{kind} bound {bound:.3e} < error {err:.3e} at k={k} ({fn.label})"
                        )

    rng = np.random.default_rng(77)
    fn = make_sinusoid(-1.0, 4 * math.pi)
    for spec in ALL_SECOND_SPECS:
        for _ in range(100):
            steps = tuple(rng.uniform(0.02, 0.2, 4))
            mesh = mesh_from_quadruple(steps)
            predicted, remainder = expansion_prediction(spec, fn, mesh, 2)
            direct = second_difference(spec, sample(fn, 0, mesh)).value_at(2)
            if abs(direct - predicted) > remainder:
                failures.append(
                    f"{spec}: |direct-predicted|={abs(direct - predicted):.3e} "
                    f"> bound {remainder:.3e}"
                )
    elapsed = perf_counter() - start
    _report(10, not failures, "; ".join(failures[:3]) or
            f"first-diff bounds at every index + 9x100 expansion bounds, {elapsed:.2f}s")
