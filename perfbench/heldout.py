"""Run every workload at the recorded seed and at the held-out seed, and compare.

    python3 perfbench/heldout.py [--seconds 15]

The benchmark was tuned on ``spec.RECORDED_SEED``; ``spec.HELD_OUT_SEED``
was not used while tuning.  For each workload this prints both gates and
how far draws per replicate and each end-to-end metric move from the
recorded seed to the held-out one.  It exits non-zero if a gate fails or
a call fails at either seed.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import spec  # noqa: E402
from perfbench.run import BenchError, measure  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec.WORKLOADS):
        runs = {}
        for seed in (spec.RECORDED_SEED, spec.HELD_OUT_SEED):
            try:
                runs[seed] = measure(workload, seed, args.seconds, trace=0)
            except BenchError as exc:
                print(f"{workload} seed {seed}: error: {exc}")
                return 1
        rec, held = runs[spec.RECORDED_SEED], runs[spec.HELD_OUT_SEED]
        print(f"{workload}: recorded seed {spec.RECORDED_SEED} -> held-out seed {spec.HELD_OUT_SEED}")
        rows = [("draws_per_replicate", "draws", rec["info"]["draws_per_replicate"],
                 held["info"]["draws_per_replicate"])]
        rows += [(m["name"], m["unit"], rec["metrics"][m["name"]], held["metrics"][m["name"]]) for m in spec.END_TO_END]
        for name, unit, a, b in rows:
            print(f"  {name:<20} {a:>14.6g} -> {b:>14.6g} {unit:<5} ({100 * (b / a - 1):+.2f}%)")
        for seed, run in runs.items():
            passed = run["gate_ok"] and run["correct"] and run["failed"] == 0
            ok = ok and passed
            print(f"  seed {seed}: {'PASS' if passed else 'FAIL'} failed {run['failed']}/{run['attempted']}: "
                  f"{run['gate']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
