"""What the benchmark measures: workloads, metrics and their regression bounds.

``python3 perfbench/spec.py`` writes ``BENCHMARK.json`` at the repository
root from the definitions below; a test checks that the committed file
matches them.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Median time of measure.reference_loop() on the 2-vCPU VM the bounds were
# set on.  The rates are rescaled to this speed of the interpreter; see
# END_TO_END below.
REFERENCE_NOMINAL_S = 2.17e-3

# The seed the benchmark was tuned on, and a second one kept out of tuning;
# perfbench/heldout.py runs every workload at both.
RECORDED_SEED = 1
HELD_OUT_SEED = 97

WORKLOADS = [
    {
        "name": "gauss-t3-lib",
        "why": "estimate_utility on Gaussian T=3, ~12.5 draws/replicate: per-replicate stream and dispatch overhead "
               "dominate (batching target); exact DP oracle; held-out seed 97",
    },
    {
        "name": "basket-d10-cli-w2",
        "why": "muse estimate, GBM d=10 basket put, 2 workers, bootstrap CI: exp-heavy stepper, harness pickling, "
               "file output; published 0.985; held-out seed 97",
    },
    {
        "name": "chain-stop-cli",
        "why": "muse stop on mixing_three_stage, 5e4 inner replicates per decision, 1 worker: big batches, "
               "_group_bounds row loop; exact DP oracle 15/16; held-out seed 97",
    },
]

# bound: the share of the parent's median by which a metric may worsen
# before a change counts as a regression.  The three rates are medians over
# the calls of one run, so the heavy cost tail moves them little; what moves
# them is the machine.  On the shared 2-vCPU VM the benchmark was tuned on,
# the interpreter ran up to 30% faster or slower from one minute to the
# next, and ten 30-second runs of one workload spread by up to 26% (the
# interquartile range over the median).  So each run times a fixed
# pure-Python loop before every call and rescales its rates by that loop's
# median time over REFERENCE_NOMINAL_S, which brought the spread of eight
# runs from 19% to 7% (gauss-t3-lib), 15% to 4% (chain-stop-cli) and 8% to
# 4% (basket-d10-cli-w2); run.py prints the raw rates beside them.  The
# timing bounds stay the largest allowed.  Memory does not drift with the
# machine.  setup_s is one interpreter start-up, dominated by importing
# numpy and scipy, and is not rescaled.
END_TO_END = [
    {"name": "replicates_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "draws_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "calls_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    {"name": "streams.generators", "unit": "count", "better": "lower"},
    {"name": "streams.generator_s", "unit": "s", "better": "lower"},
    {"name": "processes.step_calls", "unit": "count", "better": "lower"},
    {"name": "processes.step_rows", "unit": "count", "better": "lower"},
    {"name": "processes.step_s", "unit": "s", "better": "lower"},
    {"name": "processes.rows_per_call", "unit": "rows/call", "better": "higher"},
    {"name": "rewards.calls", "unit": "count", "better": "lower"},
    {"name": "rewards.s", "unit": "s", "better": "lower"},
    {"name": "estimator.replicates", "unit": "count", "better": "higher"},
    {"name": "estimator.draws", "unit": "count", "better": "lower"},
    {"name": "estimator.self_s", "unit": "s", "better": "lower"},
    {"name": "estimator.cost_max", "unit": "draws", "better": "lower"},
    {"name": "estimator.cost_p99", "unit": "draws", "better": "lower"},
    {"name": "parallel.wall_s", "unit": "s", "better": "lower"},
    {"name": "parallel.worker_busy_s", "unit": "s", "better": "lower"},
    {"name": "parallel.busy_fraction", "unit": "ratio", "better": "higher"},
    {"name": "parallel.chunks", "unit": "count", "better": "lower"},
    {"name": "parallel.task_pickle_bytes", "unit": "bytes", "better": "lower"},
    {"name": "parallel.result_pickle_bytes", "unit": "bytes", "better": "lower"},
    {"name": "inference.summarize_s", "unit": "s", "better": "lower"},
    {"name": "inference.bootstrap_s", "unit": "s", "better": "lower"},
    {"name": "inference.bootstrap_resamples", "unit": "count", "better": "lower"},
    {"name": "policy.decisions", "unit": "count", "better": "higher"},
    {"name": "policy.inner_replicates", "unit": "count", "better": "higher"},
    {"name": "policy.self_s", "unit": "s", "better": "lower"},
    {"name": "cli.self_s", "unit": "s", "better": "lower"},
    {"name": "cli.bytes_written", "unit": "bytes", "better": "lower"},
    {"name": "trace.overhead_fraction", "unit": "ratio", "better": "lower"},
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        fh.write(render())


if __name__ == "__main__":
    main()
