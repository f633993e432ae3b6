"""Per-layer spans recorded from outside nufd.

While installed, a ``Tracer`` replaces every public function of each layer
(the names in the module's ``__all__``) wherever a nufd module holds a
reference to it, plus the constructors of ``Mesh``, ``GridFunction`` and
``SldSeries``, ``AnalyticFunction.evaluate`` (to count evaluated points)
and the command-line group's ``main``.  Each call becomes a span with its
parent; spans stay in memory until ``write_spans``.  Self time is a span's
duration minus the time its child spans cover.  Only the first
``MAX_SPANS`` spans are kept, but every span counts towards the figures.
Uninstalling restores every original object, so untraced passes run the
program unchanged.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import time
from collections import Counter
from pathlib import Path

LAYERS = ("mesh", "functions", "diffops", "metrics", "analysis", "ivp", "presets", "parsing", "cli")

# Counters beyond calls, self time and errors, with their units.
EXTRA_UNITS = {
    "mesh.points": "points",
    "mesh.rows_written": "rows",
    "functions.points_evaluated": "points",
    "diffops.points_out": "points",
    "diffops.gridfunctions": "count",
    "diffops.bytes_computed": "B_computed",
    "metrics.points": "points",
    "analysis.us_per_call": "us",
    "analysis.evals_per_bound": "points",
    "ivp.points_marched": "points",
    "ivp.ns_per_point": "ns",
    "presets.rows_written": "rows",
    "presets.bytes_written": "B",
    "trace.overhead": "1",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    **EXTRA_UNITS,
}

# Spans kept for writing out; about 5 MB of CSV.
MAX_SPANS = 100_000

_BOUNDS = ("first_diff_error_bound", "expansion_prediction")
_WRITERS = ("write_grid_csv", "write_sld_csv", "write_oscillator_csv")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, layer, name, start_ns, end_ns, error)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()  # open spans per layer
        self._stack: list[list[int]] = []  # [span id, child ns] of open spans
        self._next_id = 0
        self._patches: list[tuple] = []
        self._bound_depth = 0

    # -- span recording ------------------------------------------------------

    def _call(self, layer: str, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        bound = name in _BOUNDS
        self._bound_depth += bound
        error = 0
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._bound_depth -= bound
            self._depth[layer] -= 1
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[layer] += 1
            self.self_ns[layer] += duration - frame[1]
            self.errors[layer] += error
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, layer, name, start, end, error))
        self._count(layer, name, outermost, duration, args, result)
        return result

    def _count(self, layer, name, outermost, duration, args, result) -> None:
        c = self.counts
        if name == "Mesh":
            c["mesh.points"] += args[0].n_points
        elif name == "write_mesh_csv":
            c["mesh.rows_written"] += args[0].n_points
        elif name == "evaluate":
            points = _size(args[2])
            c["functions.points_evaluated"] += points
            if self._bound_depth:
                c["analysis.bound_evals"] += points
        elif name == "GridFunction":
            c["diffops.gridfunctions"] += 1
            if self._depth["diffops"]:
                c["diffops.bytes_computed"] += args[0].values.nbytes
        elif name == "SldSeries":
            c["metrics.points"] += len(args[0].sld)
        elif layer == "diffops" and outermost and hasattr(result, "values"):
            c["diffops.points_out"] += len(result.values)
        elif layer == "analysis" and outermost:
            c["analysis.outer_calls"] += 1
            c["analysis.outer_ns"] += duration
            c["analysis.bound_calls"] += name in _BOUNDS
        elif name == "solve":
            c["ivp.points_marched"] += args[0].mesh.n_points
        elif name in _WRITERS:
            rows = args[0].sld if name == "write_oscillator_csv" else args[0]
            c["presets.rows_written"] += len(rows)
            c["presets.bytes_written"] += os.path.getsize(args[1])

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(layer, name, fn, args, kwargs)

        return traced

    # -- installing and removing the wrappers --------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        import nufd

        modules = {layer: importlib.import_module(f"nufd.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, name, obj)
        for module in (nufd, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])
        for layer, cls in (("mesh", nufd.Mesh), ("diffops", nufd.GridFunction), ("metrics", nufd.SldSeries)):
            self._patch(cls, "__init__", self._wrap(layer, cls.__name__, cls.__init__))
        evaluate = nufd.AnalyticFunction.evaluate
        self._patch(nufd.AnalyticFunction, "evaluate", self._wrap("functions", "evaluate", evaluate))
        group = modules["cli"].main
        self._patch(group, "main", self._wrap("cli", "main", group.main))
        return self

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer figures per pass of the op list, plus the tracing overhead."""
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / passes
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9 / passes
            out[f"{layer}.errors"] = self.errors[layer] / passes
        for name in EXTRA_UNITS:
            out[name] = c[name] / passes
        out["analysis.us_per_call"] = c["analysis.outer_ns"] / 1e3 / max(c["analysis.outer_calls"], 1)
        out["analysis.evals_per_bound"] = c["analysis.bound_evals"] / max(c["analysis.bound_calls"], 1)
        out["ivp.ns_per_point"] = self.self_ns["ivp"] / max(c["ivp.points_marched"], 1)
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, target: Path) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "layer", "name", "start_ns", "end_ns", "error"))
            writer.writerows(self.spans)


def _size(t) -> int:
    size = getattr(t, "size", None)
    return 1 if size is None else int(size)
