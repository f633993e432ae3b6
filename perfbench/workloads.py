"""The four seeded workloads: generated inputs, fixed op lists and output checks.

A workload is built in two steps.  ``generate`` makes every input from the
seed (this is the part ``setup_s`` times, together with the imports), and
``build`` turns the inputs into a fixed list of ops, each with a check
that compares its output against the numpy references in ``reference``.
nufd only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import nufd
import reference as R

WORKLOADS = ("arrays", "analysis", "march", "cli")

# Problem sizes.  "tiny" exists for the benchmark's self-tests only.
SIZES = {
    "full": {"small": 1000, "big": 10**6, "analysis": 2001, "march": 10**5, "cli": 20000},
    "tiny": {"small": 40, "big": 400, "analysis": 61, "march": 600, "cli": 300},
}

# Output indices checked per op on meshes larger than this are a seeded
# sample of this many, plus both window ends.
CHECK_SAMPLE = 2048

EXPECTED_PRESETS = Path(__file__).with_name("expected_presets.json")

# A check returns None when the output is right and a reason otherwise.
Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    label: str
    fn: Callable[..., Any]
    args: tuple
    check: Check


@dataclass
class Workload:
    name: str
    ops: list[Op]
    array_bytes: dict[str, int]
    cleanup: Callable[[], None] = field(default=lambda: None)


def _bad(label: str, got, want, tol=None) -> str:
    extra = "" if tol is None else f" (tolerance {tol:.3g})"
    return f"{label}: got {got!r}, expected {want!r}{extra}"


def _close(got: np.ndarray, want: np.ndarray, tol: np.ndarray, label: str) -> str | None:
    """None when |got - want| <= tol everywhere, else the worst point."""
    err = np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))
    excess = err - tol
    if not np.all(excess <= 0):
        i = int(np.argmax(excess))
        return f"{label}: off by {float(err.flat[i]):.3e} > {float(np.broadcast_to(tol, err.shape).flat[i]):.3e} at position {i}"
    return None


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def _jittered(rng: np.random.Generator, n_points: int, jitter: float = 0.3) -> np.ndarray:
    """Points on [0, 1] whose steps are jittered by +-``jitter`` relative."""
    steps = 1.0 + jitter * rng.uniform(-1.0, 1.0, n_points - 1)
    points = np.concatenate(([0.0], np.cumsum(steps)))
    return points / points[-1]


def _check_indices(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
    if hi - lo + 1 <= CHECK_SAMPLE:
        return np.arange(lo, hi + 1)
    return np.unique(np.concatenate(([lo, hi], rng.integers(lo, hi + 1, CHECK_SAMPLE))))


def _sinusoid_params(rng: np.random.Generator) -> tuple[float, float, float]:
    amplitude = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
    return amplitude, float(rng.uniform(2 * math.pi, 6 * math.pi)), float(rng.uniform(0, 2 * math.pi))


def _operator(name: str):
    """The nufd operator object for a command-line operator name."""
    if name == "d2":
        return nufd.D2_CORRECTED
    kinds = [nufd.FirstDiffKind(kind) for kind in name.split()]
    return kinds[0] if len(kinds) == 1 else nufd.SecondDiffSpec(*kinds)


def _near_one(rng: np.random.Generator, low: float, high: float) -> float:
    """A ratio 1 +- U(low, high), never exactly 1."""
    return 1.0 + float(rng.choice((-1.0, 1.0)) * rng.uniform(low, high))


def generate(name: str, seed: int, size: str, root: Path) -> dict:
    """Every input of workload ``name``, made from ``seed`` alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _GENERATORS[name](rng, SIZES[size], root)


def build(name: str, inputs: dict) -> Workload:
    """The fixed op list of workload ``name`` over ``inputs``."""
    return _OP_LISTS[name](inputs)


# --------------------------------------------------------------------------
# arrays: build a mesh, sample f and its derivative, apply one operator, sld.

_MESH_KINDS = ("jittered", "geometric", "uniform", "refined")


def _arrays_inputs(rng, sz, root) -> dict:
    amplitude, frequency, phase = _sinusoid_params(rng)
    meshes = []
    for n in (sz["small"], sz["big"]):
        r = _near_one(rng, 0.5 / n, 3.0 / n)
        a = float(rng.uniform(-1.0, 1.0))
        meshes.append({
            "n": n,
            "jittered": _jittered(rng, n),
            "geometric": (0.0, (r - 1.0) / (r ** (n - 1) - 1.0), r, n - 2),
            "uniform": (a, a + float(rng.uniform(0.5, 2.0)), n),
            "refined": (_jittered(rng, n // 2 + 1), float(rng.uniform(0.2, 0.8))),
        })
    return {
        "sinusoid": (amplitude, frequency, phase),
        "f": nufd.make_sinusoid(amplitude, frequency, phase),
        "meshes": meshes,
        "operators": {op: _operator(op) for op in R.ALL_OPERATORS},
        "check_rng": np.random.default_rng(int(rng.integers(2**63))),
    }


def _build_mesh(kind: str, spec):
    if kind == "jittered":
        return nufd.Mesh(spec)
    if kind == "geometric":
        return nufd.build_geometric(*spec)
    if kind == "uniform":
        return nufd.build_uniform(*spec)
    base, beta = spec
    return nufd.refine_insert(nufd.Mesh(base), beta)


def _expected_points(kind: str, spec, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mesh points at indices k with a rounding tolerance for each."""
    if kind == "jittered":
        return spec[k], np.zeros(k.size)
    if kind == "geometric":
        t0, h0, r, m = spec
        pts = t0 + h0 * np.expm1(k * math.log(r)) / (r - 1.0)
        return pts, 8 * R.EPS * (m + 2) * (abs(t0) + np.abs(pts))
    if kind == "uniform":
        a, b, n = spec
        return a + (b - a) * (k / (n - 1)), 8 * R.EPS * (abs(a) + abs(b))
    base, beta = spec
    left = base[k // 2]
    right = base[np.minimum(k // 2 + 1, base.size - 1)]
    pts = np.where(k % 2 == 0, left, left + beta * (right - left))
    return pts, 4 * R.EPS * (np.abs(left) + np.abs(right))


def _arrays_op(f, kind, spec, operator, order):
    mesh = _build_mesh(kind, spec)
    u = nufd.sample(f, 0, mesh)
    exact = nufd.sample(f, order, mesh)
    approx = nufd.apply_operator(operator, u)
    return mesh, u, exact, approx, nufd.scaled_local_difference(exact, approx)


def _mesh_size(kind: str, spec) -> int:
    if kind == "jittered":
        return spec.size
    if kind == "geometric":
        return spec[3] + 2
    if kind == "uniform":
        return spec[2]
    return 2 * spec[0].size - 1


def _arrays_check(params, kind, spec, op, idx_rng) -> Check:
    n = _mesh_size(kind, spec)
    order = R.derivative_order(op)
    lo, hi = R.window(op, n)
    k_out = _check_indices(idx_rng, lo, hi)
    r_lo, r_hi = R.offsets(op)
    k_pts = np.unique(np.concatenate((k_out + r_lo, k_out + r_hi, k_out)))
    want_pts, pts_tol = _expected_points(kind, spec, k_pts)

    def check(out) -> str | None:
        mesh, u, exact, approx, series = out
        if mesh.n_points != n:
            return _bad("mesh size", mesh.n_points, n)
        t = mesh.points
        f0, f0_scale = R.sinusoid(*params, 0, t[k_pts])
        fn, fn_scale = R.sinusoid(*params, order, t[k_out])
        ref, ref_scale = R.apply(op, t, u.values, k_out)
        reason = _first(
            _close(t[k_pts], want_pts, pts_tol, "mesh points"),
            _close(u.values[k_pts], f0, 8 * R.EPS * f0_scale, "sampled f"),
            _close(exact.values[k_out], fn, 8 * R.EPS * fn_scale, f"sampled f^({order})"),
            None if (approx.first_index, approx.last_index) == (lo, hi)
            else _bad(f"'{op}' window", (approx.first_index, approx.last_index), (lo, hi)),
        )
        if reason:
            return reason
        reason = _close(approx.values[k_out - lo], ref, 16 * R.EPS * ref_scale, f"'{op}' values")
        if reason:
            return reason
        if (series.first_index, len(series)) != (lo, hi - lo + 1):
            return _bad("sld window", (series.first_index, len(series)), (lo, hi - lo + 1))
        scale = float(np.max(np.abs(exact.values[lo : hi + 1])))
        if series.scale != scale:
            return _bad("sld scale", series.scale, scale)
        i = k_out - lo
        want_sld = (exact.values[k_out] - approx.values[i]) / scale
        sld_tol = 4 * R.EPS * (np.abs(exact.values[k_out]) + np.abs(approx.values[i])) / scale
        return _first(
            _close(series.sld[i], want_sld, sld_tol, "sld"),
            None if series.sgei == float(np.max(np.abs(series.sld)))
            else _bad("sgei", series.sgei, float(np.max(np.abs(series.sld)))),
        )

    return check


def _arrays_ops(inp) -> Workload:
    f = inp["f"]
    small, big = inp["meshes"]
    ops = []
    for kind in _MESH_KINDS:
        for op in R.ALL_OPERATORS:
            ops.append((small, kind, op))
    for i, op in enumerate(R.ALL_OPERATORS):
        ops.append((big, _MESH_KINDS[i % len(_MESH_KINDS)], op))
    return Workload(
        "arrays",
        [
            Op(
                f"{op}@{kind}{m['n']}",
                _arrays_op,
                (f, kind, m[kind], inp["operators"][op], R.derivative_order(op)),
                _arrays_check(inp["sinusoid"], kind, m[kind], op, inp["check_rng"]),
            )
            for m, kind, op in ops
        ],
        {f"n={m['n']}": 8 * m["n"] for m in (small, big)},
    )


# --------------------------------------------------------------------------
# analysis: per-index consistency reports, error bounds and predictions.

_SUP_SAFETY = 1.01  # the largest safety factor a sampled supremum may carry


def _analysis_inputs(rng, sz, root) -> dict:
    amplitude, frequency, phase = _sinusoid_params(rng)
    points = _jittered(rng, sz["analysis"])
    uniform_family = [nufd.build_uniform(0.0, 1.0, 22 * 2**j + 1) for j in range(4)]
    jittered_family = [nufd.Mesh(_jittered(rng, 44 * 2**j + 1)) for j in range(4)]
    return {
        "sinusoid": (amplitude, frequency, phase),
        "f": nufd.make_sinusoid(amplitude, frequency, phase),
        "points": points,
        "mesh": nufd.Mesh(points),
        "alphas": [float(a) for a in rng.uniform(0.5, 2.0, 50)],
        "families": {"uniform": uniform_family, "jittered": jittered_family},
        "operators": {op: _operator(op) for op in R.ALL_OPERATORS},
    }


def _report_check(op, t, k_all) -> Callable[[int], Check]:
    m2, a2 = R.moments(op, t, k_all, 2)
    m3, a3 = R.moments(op, t, k_all, 3)
    lo, hi = R.offsets(op)
    first = int(k_all[0])

    def for_index(k: int) -> Check:
        i = k - first
        lead, lead_tol = float(m2[i]), 64 * R.EPS * float(a2[i])
        fppp, fppp_tol = float(m3[i]), 64 * R.EPS * float(a3[i])
        bracket = (float(t[k + lo]), float(t[k + hi]))
        bracket_tol = 8 * R.EPS * (abs(t[k]) + abs(bracket[0]) + abs(bracket[1]))

        def check(report) -> str | None:
            if report.index != k or str(report.spec) != op:
                return _bad("report identity", (str(report.spec), report.index), (op, k))
            if abs(report.leading_coefficient - lead) > lead_tol:
                return _bad(f"'{op}' leading coefficient at {k}", report.leading_coefficient, lead, lead_tol)
            if abs(report.fppp_coefficient - fppp) > fppp_tol:
                return _bad(f"'{op}' f''' coefficient at {k}", report.fppp_coefficient, fppp, fppp_tol)
            if any(abs(g - w) > bracket_tol for g, w in zip(report.remainder_bracket, bracket)):
                return _bad(f"'{op}' bracket at {k}", report.remainder_bracket, bracket)
            if abs(abs(lead - 1.0) - nufd.analysis.CONSISTENCY_TOL) > lead_tol:
                consistent = abs(lead - 1.0) <= nufd.analysis.CONSISTENCY_TOL
                if report.consistent != consistent:
                    return _bad(f"'{op}' consistent flag at {k}", report.consistent, consistent)
            return None

        return check

    return for_index


def _bound_checks(kind, params, t, f_values) -> tuple[range, Callable[[int], Check]]:
    amplitude, frequency, _ = params
    n = t.size
    lo, hi = R.window(kind, n)
    k_all = np.arange(lo, hi + 1)
    approx, scale = R.apply(kind, t, f_values, k_all)
    exact, exact_scale = R.sinusoid(*params, 1, t[k_all])
    err = np.abs(approx - exact)
    slack = 16 * R.EPS * (scale + exact_scale)
    sup2 = _SUP_SAFETY * abs(amplitude) * frequency**2
    sup3 = _SUP_SAFETY * abs(amplitude) * frequency**3
    h = np.diff(t)
    if kind == "d+":
        ceiling = h[k_all] / 2 * sup2
    elif kind == "d-":
        ceiling = h[k_all - 1] / 2 * sup2
    else:
        hp, hm = h[k_all], h[k_all - 1]
        ceiling = np.maximum((hp**2 + hm**2) * sup2 / (2 * (hp + hm)), hp**2 / 3 * sup3)
    ceiling = ceiling * (1 + 1e-9)

    def for_index(k: int) -> Check:
        i = k - lo
        e, s, c = float(err[i]), float(slack[i]), float(ceiling[i])

        def check(bound) -> str | None:
            if not e <= bound + s:
                return f"'{kind}' bound {bound:.6e} below the actual error {e:.6e} at {k}"
            if not bound <= c:
                return f"'{kind}' bound {bound:.6e} above the global-supremum bound {c:.6e} at {k}"
            return None

        return check

    return range(lo, hi + 1), for_index


def _prediction_check(op, params, t, f_values, k_sel) -> Callable[[int], Check]:
    amplitude, frequency, _ = params
    direct, scale = R.apply(op, t, f_values, k_sel)
    ceiling = np.maximum(
        R.moments(op, t, k_sel, 4)[1] * frequency**4,
        R.moments(op, t, k_sel, 5)[1] * frequency**5,
    ) * abs(amplitude) * _SUP_SAFETY * (1 + 1e-9)
    where = {int(k): i for i, k in enumerate(k_sel)}

    def for_index(k: int) -> Check:
        i = where[k]
        d, s, c = float(direct[i]), 16 * R.EPS * float(scale[i]), float(ceiling[i])

        def check(out) -> str | None:
            predicted, remainder = out
            gap = abs(d - predicted)
            if not gap <= remainder + s + 16 * R.EPS * abs(predicted):
                return f"'{op}' actual remainder {gap:.6e} exceeds the bound {remainder:.6e} at {k}"
            if not remainder <= c:
                return f"'{op}' remainder bound {remainder:.6e} above the global-supremum bound {c:.6e} at {k}"
            return None

        return check

    return for_index


def _geometric_check(op: str, alpha: float) -> Check:
    t = np.cumsum([0.0, 1.0, alpha, alpha**2, alpha**3])
    m2, a2 = R.moments(op, t, np.array([2]), 2)
    want, tol = float(m2[0]), 64 * R.EPS * float(a2[0])

    def check(coefficient) -> str | None:
        if abs(coefficient - want) > tol:
            return _bad(f"'{op}' geometric consistency at alpha={alpha!r}", coefficient, want, tol)
        return None

    return check


def _sgei(op: str, params, mesh_points: np.ndarray) -> tuple[float, float]:
    """sgei of ``op`` against the exact derivative, with its rounding tolerance."""
    lo, hi = R.window(op, mesh_points.size)
    k = np.arange(lo, hi + 1)
    f_values, _ = R.sinusoid(*params, 0, mesh_points)
    approx, scale = R.apply(op, mesh_points, f_values, k)
    exact, exact_scale = R.sinusoid(*params, R.derivative_order(op), mesh_points[k])
    ref_scale = float(np.max(np.abs(exact)))
    err = np.max(np.abs(exact - approx)) / ref_scale
    tol = float(np.max(16 * R.EPS * (scale + exact_scale + np.abs(f_values[k])))) / ref_scale
    return float(err), tol


def _order_check(op: str, params, family: list[np.ndarray]) -> Check:
    h_max = [float(np.max(np.diff(p))) for p in family]
    sgeis = [_sgei(op, params, p) for p in family]

    def check(estimate) -> str | None:
        points = estimate.sample_points
        if [h for h, _ in points] != h_max:
            return _bad(f"'{op}' order h_max", [h for h, _ in points], h_max)
        for (_, got), (want, tol) in zip(points, sgeis):
            if abs(got - want) > tol:
                return _bad(f"'{op}' order sgei", got, want, tol)
        slope = R.fit_slope(h_max, [e for _, e in points])
        if abs(estimate.slope - slope) > 1e-9 * (1 + abs(slope)):
            return _bad(f"'{op}' order slope", estimate.slope, slope)
        return None

    return check


# Ops look nufd's functions up at call time, so a traced pass sees the
# wrapped ones.
def _report(spec, mesh, k):
    return nufd.consistency_report_at(spec, mesh, k)


def _bound(kind, f, mesh, k):
    return nufd.first_diff_error_bound(kind, f, mesh, k)


def _prediction(spec, f, mesh, k):
    return nufd.expansion_prediction(spec, f, mesh, k)


def _geometric(spec, alpha):
    return nufd.geometric_consistency(spec, alpha)


def _order(op, f, meshes, target_order):
    return nufd.empirical_order(op, f, meshes, target_order)


def _analysis_ops(inp) -> Workload:
    f, mesh, t, params = inp["f"], inp["mesh"], inp["points"], inp["sinusoid"]
    operators = inp["operators"]
    f_values, _ = R.sinusoid(*params, 0, t)
    ops: list[Op] = []
    for op in R.PAIRS:
        lo, hi = R.window(op, t.size)
        for_index = _report_check(op, t, np.arange(lo, hi + 1))
        ops.extend(
            Op(f"report {op}", _report, (operators[op], mesh, k), for_index(k))
            for k in range(lo, hi + 1)
        )
    for kind in R.FIRST_KINDS:
        indices, for_index = _bound_checks(kind, params, t, f_values)
        ops.extend(
            Op(f"bound {kind}", _bound, (operators[kind], f, mesh, k), for_index(k))
            for k in indices
        )
    for op in R.PAIRS:
        lo, hi = R.window(op, t.size)
        k_sel = np.arange(lo, hi + 1, 10)
        for_index = _prediction_check(op, params, t, f_values, k_sel)
        ops.extend(
            Op(f"prediction {op}", _prediction, (operators[op], f, mesh, int(k)), for_index(int(k)))
            for k in k_sel
        )
    for op in R.PAIRS:
        ops.extend(
            Op(f"geometric {op}", _geometric, (operators[op], alpha), _geometric_check(op, alpha))
            for alpha in inp["alphas"]
        )
    families = inp["families"]
    studies = [(op, "uniform") for op in R.ALL_OPERATORS] + [("d2", "jittered"), ("d+ d+", "jittered")]
    for op, family in studies:
        meshes = families[family]
        ops.append(Op(
            f"order {op}@{family}",
            _order,
            (operators[op], f, meshes, R.derivative_order(op)),
            _order_check(op, params, [m.points for m in meshes]),
        ))
    return Workload("analysis", ops, {f"n={t.size}": 8 * t.size})


# --------------------------------------------------------------------------
# march: the oscillator march with both operators that can march.

_MARCH_OPERATORS = ("d- d+", "d2")
_PAPER_KAPPA = 4 * math.pi**2


def _march_inputs(rng, sz, root) -> dict:
    geometric = nufd.build_geometric(0.0, 0.1, 50 / 59, 200)
    problems = [
        (geometric, _PAPER_KAPPA, 1.0, -1.0),
        (nufd.build_uniform(geometric.a, geometric.b, 11), _PAPER_KAPPA, 1.0, -1.0),
    ]
    for _ in range(7):
        m = int(rng.integers(180, 221))
        r = _near_one(rng, 0.001, 0.01)
        length = float(rng.uniform(0.5, 1.5))
        problems.append((
            nufd.build_geometric(0.0, length * (r - 1.0) / (r ** (m + 1) - 1.0), r, m),
            float(rng.uniform(1.0, 16.0)) * math.pi**2,
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
        ))
    # The 1e5-point ops are a third of each pass.  p90 then sits at the 70th
    # percentile of their latencies; at a lower share it would sit near their
    # fastest tail, which this machine's occasional fast spells move by 30%.
    n = sz["march"]
    big = [nufd.Mesh(_jittered(rng, n)), nufd.Mesh(_jittered(rng, n)), nufd.build_uniform(0.0, 1.0, n)]
    for _ in range(2):
        r = _near_one(rng, 0.5 / n, 3.0 / n)
        big.append(nufd.build_geometric(0.0, (r - 1.0) / (r ** (n - 1) - 1.0), r, n - 2))
    problems.extend((mesh, _PAPER_KAPPA, 1.0, -1.0) for mesh in big)
    return {"problems": problems, "operators": {op: _operator(op) for op in _MARCH_OPERATORS}}


def _march_op(mesh, kappa, value, slope, operator):
    return nufd.solve(nufd.IvpProblem(kappa=kappa, mesh=mesh, operator=operator,
                                      initial_value=value, initial_slope=slope))


def _march_reference(t: np.ndarray, kappa: float, value: float, slope: float, op: str) -> dict:
    """Long-double march, exact motion and reference sgei, each with its tolerance."""
    w_ref = R.march(t, kappa, value, slope, op)
    w_tol = R.march_tolerance(t.size, float(np.max(np.abs(w_ref))))
    w_ref = w_ref.astype(np.float64)
    exact, exact_scale = R.oscillator_exact(kappa, value, slope, t)
    exact_tol = 8 * R.EPS * exact_scale
    scale = float(np.max(np.abs(exact)))
    return {
        "w": w_ref,
        "w_tol": w_tol,
        "exact": exact,
        "exact_tol": exact_tol,
        "sgei": float(np.max(np.abs(exact - w_ref))) / scale,
        "sgei_tol": (w_tol + float(np.max(exact_tol))) / scale,
    }


def _march_check(t: np.ndarray, kappa: float, value: float, slope: float, op: str) -> Check:
    n = t.size
    ref = _march_reference(t, kappa, value, slope, op)
    w_ref, w_tol, exact, exact_tol = ref["w"], ref["w_tol"], ref["exact"], ref["exact_tol"]
    sgei_ref, sgei_tol = ref["sgei"], ref["sgei_tol"]

    def check(solution) -> str | None:
        w, e, series = solution.w, solution.exact, solution.sld
        if (w.first_index, len(w)) != (0, n):
            return _bad("march window", (w.first_index, len(w)), (0, n))
        reason = _first(
            _close(w.values, w_ref, w_tol, f"'{op}' march against long double"),
            _close(e.values, exact, exact_tol, "exact motion"),
        )
        if reason:
            return reason
        if (series.first_index, len(series)) != (0, n):
            return _bad("sld window", (series.first_index, len(series)), (0, n))
        own_scale = float(np.max(np.abs(e.values)))
        if series.scale != own_scale:
            return _bad("sld scale", series.scale, own_scale)
        want = (e.values - w.values) / own_scale
        tol = 4 * R.EPS * (np.abs(e.values) + np.abs(w.values)) / own_scale
        return _first(
            _close(series.sld, want, tol, "sld"),
            None if series.sgei == float(np.max(np.abs(series.sld)))
            else _bad("sgei", series.sgei, float(np.max(np.abs(series.sld)))),
            None if abs(series.sgei - sgei_ref) <= sgei_tol
            else _bad(f"'{op}' sgei against the exact motion", series.sgei, sgei_ref, sgei_tol),
        )

    return check


def _march_ops(inp) -> Workload:
    ops = []
    for op in _MARCH_OPERATORS:
        for mesh, kappa, value, slope in inp["problems"]:
            ops.append(Op(
                f"solve {op}@{mesh.n_points}",
                _march_op,
                (mesh, kappa, value, slope, inp["operators"][op]),
                _march_check(mesh.points, kappa, value, slope, op),
            ))
    sizes = sorted({m.n_points for m, *_ in inp["problems"]})
    return Workload("march", ops, {f"n={n}": 8 * n for n in sizes})


# --------------------------------------------------------------------------
# cli: in-process command-line invocations writing CSV and JSON files.

_FLOAT_REL_TOL = 1e-10  # preset summaries against the values this benchmark was defined with
_PAPER_MESH = "geometric:0,0.1,50/59,200"
# Both diff runs use one operator, so that the two slowest commands of a
# pass cost the same and p90 sits inside their latencies, not between them.
_CLI_DIFF_OPERATOR = "c c"


def _num(x: float) -> str:
    return f"{x:.6f}"


def _cli_inputs(rng, sz, root) -> dict:
    import nufd.cli  # noqa: F401  (the import every command-line run pays)

    # The seed picks numbers only; which commands run, with which operators
    # and at which sizes, is fixed so that every seed costs the same.
    n = sz["cli"]

    def function() -> tuple[float, float]:
        amplitude, frequency, _ = _sinusoid_params(rng)
        return float(_num(amplitude)), float(_num(frequency / math.pi))

    def ratio() -> float:
        return float(_num(_near_one(rng, 0.5 / n, 2.0 / n)))

    pairs = list(R.PAIRS)
    return {
        "out": root / "perfbench" / "out" / f"cli-{os.getpid()}",
        "presets": nufd.presets.PRESET_NAMES,
        "order": function(),
        "alpha": (pairs[int(rng.integers(9))], float(_num(rng.uniform(0.5, 2.0)))),
        "mesh_k": (pairs[int(rng.integers(9))], int(rng.integers(2, 199))),
        "big_mesh": (ratio(), n - 2),
        "diff": [(n, float(_num(rng.uniform(0.2, 0.8))), *function()) for _ in range(2)],
        "oscillator": (ratio(), n - 2, float(_num(rng.uniform(1.0, 16.0)))),
    }


def _cli_op(args: list[str]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        nufd.cli.main(args, standalone_mode=False)
    return stdout.getvalue()


def _then_remove(check: Check, directory: Path) -> Check:
    """Check a command's outputs, then remove them.

    Every command thus writes into a fresh directory.  Rewriting a file in
    place makes ext4 flush it on close, which adds filesystem latency that
    varies by 15% from second to second and is not nufd's.
    """

    def check_and_remove(out) -> str | None:
        try:
            return check(out)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    return check_and_remove


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _summary(directory: Path, name: str) -> dict:
    return json.loads((directory / name).read_text())


def _compare_summary(got: dict, want: dict, label: str) -> str | None:
    if set(got) != set(want):
        return _bad(f"{label} keys", sorted(got), sorted(want))
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float) or isinstance(w, list):
            ga, wa = np.asarray(g, dtype=np.float64), np.asarray(w, dtype=np.float64)
            if ga.shape != wa.shape or not np.all(np.abs(ga - wa) <= _FLOAT_REL_TOL * np.abs(wa)):
                return _bad(f"{label} {key}", g, w)
        elif g != w:
            return _bad(f"{label} {key}", g, w)
    return None


def _preset_check(directory: Path, name: str, expected: dict) -> Check:
    def check(_stdout) -> str | None:
        reason = _compare_summary(_summary(directory, f"{name}_summary.json"), expected["summary"], name)
        if reason:
            return reason
        for csv_name, lines in expected["csv_lines"].items():
            if _lines(directory / csv_name) != lines:
                return _bad(f"{name} {csv_name} lines", _lines(directory / csv_name), lines)
        return None

    return check


def _mesh_check(directory: Path, points: np.ndarray) -> Check:
    n = points.size
    steps = np.diff(points)
    tol = 8 * R.EPS * n * float(np.max(np.abs(points)))
    want = {"n_points": n, "a": points[0], "b": points[-1], "max_step": steps.max(), "min_step": steps.min()}

    def check(_stdout) -> str | None:
        got = _summary(directory, "mesh_summary.json")
        for key, value in want.items():
            if abs(got[key] - value) > tol:
                return _bad(f"mesh {key}", got[key], value, tol)
        if got["uniform"] is not False:
            return _bad("mesh uniform", got["uniform"], False)
        if _lines(directory / "mesh.csv") != n + 1:
            return _bad("mesh.csv lines", _lines(directory / "mesh.csv"), n + 1)
        return None

    return check


def _consistency_check(directory: Path, op: str, t: np.ndarray, k: int, extra: dict) -> Check:
    m2, a2 = R.moments(op, t, np.array([k]), 2)
    m3, a3 = R.moments(op, t, np.array([k]), 3)
    want = {"leading_coefficient": (float(m2[0]), 64 * R.EPS * float(a2[0]))}
    if "k" in extra:
        want["fppp_coefficient"] = (float(m3[0]), 64 * R.EPS * float(a3[0]))

    def check(_stdout) -> str | None:
        got = _summary(directory, "consistency.json")
        if got["spec"] != op or any(got[key] != value for key, value in extra.items()):
            return _bad("consistency identity", got, (op, extra))
        for key, (value, tol) in want.items():
            if abs(got[key] - value) > tol:
                return _bad(f"consistency {key}", got[key], value, tol)
        return None

    return check


def _order_cli_check(directory: Path, op: str, params, meshes: list[np.ndarray]) -> Check:
    inner = _order_check(op, params, meshes)

    def check(_stdout) -> str | None:
        summary = _summary(directory, "order_summary.json")
        if summary["operator"] != op:
            return _bad("order operator", summary["operator"], op)
        if _lines(directory / "order.csv") != len(meshes) + 2:
            return _bad("order.csv lines", _lines(directory / "order.csv"), len(meshes) + 2)
        return inner(SimpleNamespace(sample_points=[tuple(p) for p in summary["sample_points"]],
                                     slope=summary["slope"]))

    return check


def _diff_check(directory: Path, op: str, params, points: np.ndarray) -> Check:
    sgei, tol = _sgei(op, params, points)
    lo, hi = R.window(op, points.size)

    def check(_stdout) -> str | None:
        got = _summary(directory, "diff_summary.json")
        if abs(got["sgei"] - sgei) > tol:
            return _bad(f"diff '{op}' sgei", got["sgei"], sgei, tol)
        rows = hi - lo + 1
        if (_lines(directory / "diff_grid.csv"), _lines(directory / "diff_sld.csv")) != (rows + 1, rows + 2):
            return "diff CSV files have the wrong number of lines"
        return None

    return check


def _oscillator_check(directory: Path, op: str, kappa: float, points: np.ndarray) -> Check:
    ref = _march_reference(points, kappa, 1.0, -1.0, op)
    sgei, tol = ref["sgei"], ref["sgei_tol"]

    def check(_stdout) -> str | None:
        got = _summary(directory, "oscillator_summary.json")
        if abs(got["sgei"] - sgei) > tol:
            return _bad(f"oscillator '{op}' sgei", got["sgei"], sgei, tol)
        if _lines(directory / "oscillator.csv") != points.size + 2:
            return _bad("oscillator.csv lines", _lines(directory / "oscillator.csv"), points.size + 2)
        return None

    return check


def _cli_ops(inp) -> Workload:
    out: Path = inp["out"]
    expected = json.loads(EXPECTED_PRESETS.read_text())
    ops: list[Op] = []

    def add(label: str, args: list[str], make_check: Callable[[Path], Check]) -> None:
        directory = out / f"{len(ops):02d}-{label.split()[0]}"
        ops.append(Op(label, _cli_op, (["--out", str(directory), *args],),
                      _then_remove(make_check(directory), directory)))

    for name in inp["presets"]:
        add(f"preset {name}", ["preset", name], lambda d, name=name: _preset_check(d, name, expected[name]))
    family = [np.linspace(0.0, 1.0, 22 * 2**j + 1) for j in range(4)]
    amplitude, freq_pi = inp["order"]
    add(
        "order c",
        ["order", "--op", "c", "--function", f"sinusoid:amplitude={_num(amplitude)},frequency={_num(freq_pi)}pi",
         *[arg for p in family for arg in ("--mesh", f"uniform:0,1,{p.size}")]],
        lambda d: _order_cli_check(d, "c", (amplitude, freq_pi * math.pi, 0.0), family),
    )
    pair, alpha = inp["alpha"]
    add(
        "consistency alpha",
        ["consistency", "--spec", pair, "--alpha", _num(alpha)],
        lambda d: _consistency_check(d, pair, np.cumsum([0.0, 1.0, alpha, alpha**2, alpha**3]), 2, {"alpha": alpha}),
    )
    paper = R.geometric_points(0.0, 0.1, 50 / 59, 200)
    pair_k, k = inp["mesh_k"]
    add(
        "consistency mesh",
        ["consistency", "--spec", pair_k, "--mesh", _PAPER_MESH, "--k", str(k)],
        lambda d: _consistency_check(d, pair_k, paper, k, {"k": k}),
    )
    add("mesh paper", ["mesh", _PAPER_MESH], lambda d: _mesh_check(d, paper))

    r, m = inp["big_mesh"]
    h0 = (r - 1.0) / (r ** (m + 1) - 1.0)
    big = R.geometric_points(0.0, h0, r, m)
    add(f"mesh {m + 2}", ["mesh", f"geometric:0,{h0!r},{_num(r)},{m}"], lambda d: _mesh_check(d, big))

    op = _CLI_DIFF_OPERATOR
    for n, beta, amplitude, freq_pi in inp["diff"]:
        base = np.linspace(0.0, 1.0, n)
        refined = np.empty(2 * n - 1)
        refined[0::2] = base
        refined[1::2] = base[:-1] + beta * np.diff(base)
        add(
            f"diff {op}",
            ["diff", "--mesh", f"uniform:0,1,{n}+insert:{_num(beta)}",
             "--function", f"sinusoid:amplitude={_num(amplitude)},frequency={_num(freq_pi)}pi", "--op", op],
            lambda d, params=(amplitude, freq_pi * math.pi, 0.0), pts=refined: _diff_check(d, op, params, pts),
        )
    r, m, kappa_pi2 = inp["oscillator"]
    h0 = (r - 1.0) / (r ** (m + 1) - 1.0)
    add(
        "oscillator d- d+",
        ["oscillator", "--mesh", f"geometric:0,{h0!r},{_num(r)},{m}", "--kappa", f"{_num(kappa_pi2)}pi^2"],
        lambda d: _oscillator_check(d, "d- d+", kappa_pi2 * math.pi**2, R.geometric_points(0.0, h0, r, m)),
    )
    return Workload(
        "cli",
        ops,
        {f"n={n}": 8 * n for n in (23, 202, m + 2, refined.size)},
        cleanup=lambda: shutil.rmtree(out, ignore_errors=True),
    )


_GENERATORS = {"arrays": _arrays_inputs, "analysis": _analysis_inputs, "march": _march_inputs, "cli": _cli_inputs}
_OP_LISTS = {"arrays": _arrays_ops, "analysis": _analysis_ops, "march": _march_ops, "cli": _cli_ops}
