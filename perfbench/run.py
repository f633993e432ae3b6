#!/usr/bin/env python3
"""Benchmark for nufd: four seeded workloads driven through the public API.

Usage, from the root of a source checkout (nufd is imported from ``src``):

    python3 perfbench/run.py --workload arrays --seed 1 --seconds 10 --trace 0

One caller runs the workload's fixed op list in a closed loop, in this
process, first once to warm up and then pass after pass until
``--seconds`` have gone by.  Every op's output is checked against
independent numpy references after its timer stops.  ``setup_s`` is the
median over several fresh interpreters, launched one at a time, of the
time from launch until the workload could issue its first op.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end figures; with ``--trace 1`` the run measures untraced
passes for half the time and traced passes for the other half, and the
metrics are the per-layer figures of the traced passes (see tracer.py).
Each run also writes a record with the machine, the inputs and every
figure to ``perfbench/out/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"

# Fresh interpreters launched per run for setup_s; the median is reported.
SETUP_LAUNCHES = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}

# Failure reasons kept for the record.
MAX_REASONS = 10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    # Compact, so that the harness's own memory barely grows with the run.
    latencies: array.array = field(default_factory=lambda: array.array("d"))


def run_pass(ops, tally: Tally, timed: bool) -> float:
    """Run every op once; return the summed op time in seconds.

    A failed op, one that raised or whose output failed its check, counts
    as slower than any finite latency.
    """
    gc.collect()
    total = 0.0
    for op in ops:
        reason = None
        start = time.perf_counter()
        try:
            out = op.fn(*op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            reason = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {exc!r}"
        out = None  # free a large output before the next op allocates its own
        tally.attempted += 1
        if reason is not None:
            tally.failed += 1
            if len(tally.reasons) < MAX_REASONS:
                tally.reasons.append(f"{op.label}: {reason}")
        if timed:
            tally.latencies.append(math.inf if reason is not None else elapsed)
        total += elapsed
    return total


def run_passes(ops, tally: Tally, seconds: float, between=None) -> list[float]:
    """Timed passes until ``seconds`` have elapsed, at least one.

    ``between(elapsed)``, when given, runs after each pass.
    """
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(run_pass(ops, tally, timed=True))
        if between is not None:
            between(time.perf_counter() - start)
        if time.perf_counter() - start >= seconds:
            return walls


def typical_pass(latencies, n_ops: int) -> float:
    """Sum over ops of each op's median latency across the timed passes.

    Per-op medians keep a burst of interference during a few passes from
    moving the figure, unlike the median of whole-pass sums.
    """
    total = sum(statistics.median(latencies[i::n_ops]) for i in range(n_ops))
    return total if math.isfinite(total) else sys.float_info.max


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; an infinite value reads as the largest float."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return value if math.isfinite(value) else sys.float_info.max


def launch_setup(args) -> float:
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    start = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


class SetupLaunches:
    """Set-up launches spread evenly over the timed window.

    Spreading them means their median samples the same machine conditions
    as the timed passes instead of those of the first few seconds.
    """

    def __init__(self, args, seconds: float) -> None:
        self.args = args
        self.seconds = seconds
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while len(self.times) < SETUP_LAUNCHES and elapsed >= len(self.times) * self.seconds / SETUP_LAUNCHES:
            self.times.append(launch_setup(self.args))

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_LAUNCHES:
            self.times.append(launch_setup(self.args))
        return self.times


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache of cpu0, as sysfs reports it."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def machine_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "platform": platform.platform(),
    }


def import_workloads():
    """Import the workloads module, with nufd coming from this checkout."""
    sys.path.insert(0, str(SRC))
    import nufd

    if SRC not in Path(nufd.__file__).resolve().parents:
        raise ImportError(f"nufd was imported from {nufd.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup_only(args) -> int:
    workloads = import_workloads()
    workloads.generate(args.workload, args.seed, args.size, ROOT)
    print(time.monotonic_ns())
    return 0


def measure(args) -> dict:
    workloads = import_workloads()
    inputs = workloads.generate(args.workload, args.seed, args.size, ROOT)
    workload = workloads.build(args.workload, inputs)
    ops = workload.ops
    tally = Tally()
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_record(),
        "array_bytes": workload.array_bytes,
        "ops_per_pass": len(ops),
    }
    try:
        run_pass(ops, tally, timed=False)  # warm-up, checked but not timed
        gc.freeze()  # the op list and its references are never garbage
        if args.trace:
            from tracer import PER_LAYER_UNITS, Tracer

            walls = run_passes(ops, tally, args.seconds / 2)
            untraced = typical_pass(tally.latencies, len(ops))
            del tally.latencies[:]
            with Tracer() as tracer:
                traced = run_passes(ops, tally, args.seconds / 2)
            overhead = typical_pass(tally.latencies, len(ops)) / untraced - 1.0
            metrics = tracer.metrics(len(traced), overhead)
            units = PER_LAYER_UNITS
            tracer.write_spans(args.out / f"spans-{args.workload}-seed{args.seed}.csv")
            record.update(untraced_walls=walls, walls=traced, spans_kept=len(tracer.spans),
                          spans=sum(tracer.calls.values()))
        else:
            launches = SetupLaunches(args, args.seconds)
            walls = run_passes(ops, tally, args.seconds, between=launches)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times = launches.finish()
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": typical_pass(tally.latencies, len(ops)),
                "op_p50_ms": percentile(tally.latencies, 0.50) * 1e3,
                "op_p90_ms": percentile(tally.latencies, 0.90) * 1e3,
                "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
            record.update(setup_times=setup_times, walls=walls)
    finally:
        workload.cleanup()
    samples = len(tally.latencies)
    record.update(
        passes=len(record["walls"]),
        op_samples=samples,
        beyond_p90=samples - math.ceil(0.9 * samples),
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.reasons,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    return record


def report(record: dict) -> None:
    m = record["machine"]
    print(f"# nufd benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} ops/pass={record['ops_per_pass']}")
    print(f"# python {m['python']}, numpy {m['numpy']}, cpus {m['cpu_count']}, "
          f"last-level cache {m['llc_bytes']} B; bytes per array: {record['array_bytes']}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "op_p90_ms":
            note = f"  ({record['op_samples']} samples, {record['beyond_p90']} beyond p90)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"fail_ratio {record['fail_ratio']:.6g} 1  ({record['failed']} of {record['attempted']} ops)")
    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("arrays", "analysis", "march", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for the self-tests")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for run records")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nufd" / "__init__.py").is_file():
        print(f"error: no nufd sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    record = measure(args)
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
