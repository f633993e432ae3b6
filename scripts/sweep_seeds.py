"""Check a benchmark workload's output on many seeds, without timing it.

Usage: python3 scripts/sweep_seeds.py WORKLOAD FIRST LAST [SEED ...]

For every seed from FIRST to LAST, and then every further SEED given, the
script builds the full-size workload in this process with
``perfbench/workloads.py`` and runs one checked, untimed pass of its op
list with ``perfbench/run.py``'s ``run_pass``, the warm-up pass of a
benchmark run; no set-up interpreters are launched.  It prints one line a
seed: the seed, failed/attempted ops and the first failure reasons.

A failed op reads as an infinite latency in a timed run, so when more
than a tenth of a pass's ops fail (more than ``run.py``'s ``beyond_p90``
of them), its ``op_p90_ms`` is not finite and the run's JSON line carries
``Infinity``.  The script exits 1 when any seed fails that many ops and 0
otherwise.  It uses the ``perfbench`` and ``src`` of the checkout it sits
in; to sweep another tree, run a copy placed in that tree's ``scripts``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

REASONS_SHOWN = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=("arrays", "analysis", "march", "cli"))
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("seeds", type=int, nargs="*", metavar="SEED")
    args = parser.parse_args()
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    import run

    workloads = run.import_workloads()
    print(f"# {args.workload} on {root}")
    malformed = []
    for seed in [*range(args.first, args.last + 1), *args.seeds]:
        workload = workloads.build(args.workload, workloads.generate(args.workload, seed, "full", root))
        tally = run.Tally()
        try:
            run.run_pass(workload.ops, tally, timed=False)
        finally:
            workload.cleanup()
        if tally.failed > tally.attempted - math.ceil(0.9 * tally.attempted):
            malformed.append(seed)
        print(f"seed {seed}: {tally.failed}/{tally.attempted} failed")
        for reason in tally.reasons[:REASONS_SHOWN]:
            print(f"  {reason}")
        sys.stdout.flush()
    print(f"# seeds failing more than a tenth of their ops: {malformed or 'none'}")
    return 1 if malformed else 0


if __name__ == "__main__":
    sys.exit(main())
