"""One measured run of one workload, in a fresh interpreter started by run.py.

``--setup`` only imports musemc, builds the workload's specs and runs one
warm-up replicate; run.py times that from the outside.  Otherwise, after
one untimed warm-up call, the run either

* (``--trace 0``) calls the workload in a closed loop for ``--seconds``
  and reports the end-to-end metrics, the rates rescaled by a reference
  loop timed before each call, or
* (``--trace 1``) runs a fixed number of calls, each once untraced and
  once traced, checks that both wrote the same bytes, and reports the
  per-layer metrics.

It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing.util
import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np
import scipy

from musemc import estimator
from musemc.streams import RandomStream
from perfbench import spec
from perfbench.tracing import WORKER_LAYERS, Tracer
from perfbench.workloads import WORKLOADS

WARMUP_CALL = 1 << 30  # call index of the untimed warm-up; measured calls count from 0


def reference_loop():
    """A fixed pure-Python loop whose time tracks how fast the machine runs the interpreter right now."""
    total = 0
    for i in range(30_000):
        total += i * i
    return total


class WorkerPeaks:
    """Peak RSS of each harness worker, sent down a pipe as the worker exits.

    The harness forks its workers; an after-fork hook registers an exit
    finalizer in each, which writes the worker's ru_maxrss (KiB).
    """

    def __init__(self):
        self._r, self._w = os.pipe()
        os.set_blocking(self._r, False)
        multiprocessing.util.register_after_fork(self, WorkerPeaks._in_worker)

    def _in_worker(self):
        multiprocessing.util.Finalize(None, self._report, exitpriority=0)

    def _report(self):
        os.write(self._w, b"%d\n" % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def drain(self) -> list[int]:
        data = b""
        while True:
            try:
                chunk = os.read(self._r, 4096)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        return [int(x) for x in data.split()]

    def close(self):
        os.close(self._r)
        os.close(self._w)


def _tree_peak_kib(worker_peaks):
    """Peak RSS of the calling process plus the peaks of the workers the last call started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + (sum(worker_peaks.drain()) if worker_peaks else 0)


def _timed_calls(workload, indices, deadline=None, worker_peaks=None, reference=False):
    """Run calls; returns (records, seconds, errors) for the calls that succeeded.

    With ``reference``, each call is preceded by a timed reference_loop().
    """
    records, seconds, errors = [], [], []
    for i in indices:
        if deadline is not None and records and time.perf_counter() >= deadline:
            break
        try:
            if reference:
                t0 = time.perf_counter()
                reference_loop()
                reference_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            workload.call(i)
            dt = time.perf_counter() - t0
            record = workload.record(i)
            record.peak_kib = _tree_peak_kib(worker_peaks)
            if reference:
                record.reference_s = reference_s
            records.append((i, record))
            seconds.append(dt)
        except Exception:  # noqa: BLE001 - a failing call is counted and reported, the run goes on
            errors.append(f"call {i}: {traceback.format_exc(limit=3)}")
    return records, seconds, errors


def _gate(workload, records):
    try:
        return workload.check([r for _, r in records])
    except Exception:  # noqa: BLE001 - a gate that cannot be evaluated fails
        return False, f"gate raised: {traceback.format_exc(limit=3)}"


def _latency_summary(seconds, records):
    ordered = sorted(seconds)
    n = len(ordered)
    line = {"calls": n, "median_ms": 1e3 * statistics.median(ordered)}
    if n >= 20:  # the highest percentile with at least ten calls beyond it
        line["tail_pct"] = 100.0 * (n - 10) / n
        line["tail_ms"] = 1e3 * ordered[n - 11]
    line["draws_per_call_median"] = statistics.median(r.draws for _, r in records)
    line["draws_total"] = sum(r.draws for _, r in records)
    return line


def _nothing_measured(attempted, errors):
    names = [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    return {"metrics": dict.fromkeys(names, 0.0), "attempted": max(attempted, 1), "failed": max(attempted, 1),
            "correct": False, "gate_ok": False, "gate": "no call succeeded", "errors": errors, "info": {}}


def run_untraced(workload, seconds):
    deadline = time.perf_counter() + seconds
    worker_peaks = WorkerPeaks() if workload.harness_workers else None
    try:
        records, times, errors = _timed_calls(workload, itertools.count(), deadline=deadline,
                                              worker_peaks=worker_peaks, reference=True)
    finally:
        if worker_peaks:
            worker_peaks.close()
    attempted = len(records) + len(errors)
    if not records:
        return _nothing_measured(attempted, errors)
    ok, gate = _gate(workload, records)
    calls = [r for _, r in records]
    raw = {
        "replicates_per_s": statistics.median(r.replicates / t for r, t in zip(calls, times)),
        "draws_per_s": statistics.median(r.draws / t for r, t in zip(calls, times)),
        "calls_per_s": statistics.median(1.0 / t for t in times),
    }
    reference_s = statistics.median(r.reference_s for r in calls)
    metrics = {name: rate * reference_s / spec.REFERENCE_NOMINAL_S for name, rate in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(r.peak_kib for r in calls) / 1024.0
    replicates = sum(r.replicates for r in calls)
    variance = workload.variance(calls)
    info = {
        "latency": _latency_summary(times, records),
        "raw_rates": raw,
        "reference_s": reference_s,
        "replicates": replicates,
        "draws_per_replicate": sum(r.draws for r in calls) / replicates,
        "episodes_per_s": workload.episodes_per_call * metrics["calls_per_s"],
        "wall_s": sum(times),
        "variance": variance,
        "work_normalized_variance": sum(times) * variance / replicates,
    }
    failed = attempted if not ok else len(errors)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "correct": ok and not errors,
            "gate_ok": ok, "gate": gate, "errors": errors, "info": info}


def run_traced(workload, seconds, worker_dir):
    n_calls = max(2, round(workload.trace_calls_per_s * seconds / 2))
    tracer = Tracer(worker_dir)
    plain, plain_s, traced, traced_s, errors = [], [], [], [], []
    for i in range(n_calls):
        # each call runs untraced, then traced, so both see the machine in the same state
        records, secs, errs = _timed_calls(workload, [i])
        plain += records
        plain_s += secs
        errors += errs
        tracer.call_index = i
        with tracer:
            records, secs, errs = _timed_calls(workload, [i])
        traced += records
        traced_s += secs
        errors += errs
    if not plain:
        return _nothing_measured(2 * n_calls, errors)
    workers_seen = tracer.merge_workers()
    unmeasured = list(WORKER_LAYERS) if workload.harness_workers and not workers_seen else []

    reference = dict(plain)
    mismatched = [i for i, r in traced if i not in reference or r.outputs != reference[i].outputs]
    ok, gate = _gate(workload, plain)
    attempted = 2 * n_calls
    failed = attempted if not ok else len(errors) + len(mismatched)
    metrics = _layer_metrics(tracer, traced)
    metrics["trace.overhead_fraction"] = sum(traced_s) / sum(plain_s) - 1.0 if traced_s else 0.0
    info = {
        "calls": n_calls,
        "untraced_wall_s": sum(plain_s),
        "traced_wall_s": sum(traced_s),
        "identical_outputs": len(traced) - len(mismatched),
        "mismatched_calls": mismatched,
        "unmeasured_layers": unmeasured,
        "self_s_by_layer": dict(tracer.self_s),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": ok and not errors and not mismatched, "gate_ok": ok, "gate": gate, "errors": errors,
            "info": info}


def _layer_metrics(tracer, traced):
    c = tracer.counts.get
    manifests = tracer.manifests
    wall = sum(m.wall_time for m in manifests)
    busy = sum(sum(m.worker_wall_times.values()) for m in manifests)
    capacity = sum(m.workers * m.wall_time for m in manifests)
    return {
        "streams.generators": c("streams.generators", 0),
        "streams.generator_s": c("streams.generator_s", 0.0),
        "processes.step_calls": c("processes.step_calls", 0),
        "processes.step_rows": c("processes.step_rows", 0),
        "processes.step_s": c("processes.step_s", 0.0),
        "processes.rows_per_call": c("processes.step_rows", 0) / c("processes.step_calls", 1),
        "rewards.calls": c("rewards.calls", 0),
        "rewards.s": c("rewards.s", 0.0),
        "estimator.replicates": c("estimator.replicates", 0),
        "estimator.draws": c("estimator.draws", 0),
        "estimator.self_s": tracer.self_s["estimator"],
        "estimator.cost_max": max(tracer.cost_hist, default=0),
        "estimator.cost_p99": tracer.cost_quantile(0.99),
        "parallel.wall_s": wall,
        "parallel.worker_busy_s": busy,
        "parallel.busy_fraction": busy / capacity if capacity else 0.0,
        "parallel.chunks": c("parallel.chunks", 0),
        "parallel.task_pickle_bytes": c("parallel.task_pickle_bytes", 0),
        "parallel.result_pickle_bytes": c("parallel.result_pickle_bytes", 0),
        "inference.summarize_s": c("inference.summarize_s", 0.0),
        "inference.bootstrap_s": c("inference.bootstrap_s", 0.0),
        "inference.bootstrap_resamples": c("inference.bootstrap_resamples", 0),
        "policy.decisions": c("policy.decisions", 0),
        "policy.inner_replicates": c("policy.inner_replicates", 0),
        "policy.self_s": tracer.self_s["policy"],
        "cli.self_s": tracer.self_s["cli"],
        "cli.bytes_written": sum(r.bytes_written for _, r in traced),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for the program's outputs")
    parser.add_argument("--setup", action="store_true", help="only import, build specs and run one replicate")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out)
    if args.setup:
        process, reward, schedule = workload.specs()
        estimator.estimate_utility(process, reward, schedule, n_replicates=1, stream=RandomStream(args.seed))
        return 0

    workload.prepare()
    workload.call(WARMUP_CALL)
    workload.record(WARMUP_CALL)
    if args.trace:
        result = run_traced(workload, args.seconds, os.path.join(args.out, "trace-workers"))
    else:
        result = run_untraced(workload, args.seconds)
    result["env"] = environment()
    print(json.dumps(result, default=_jsonable))
    return 0


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


if __name__ == "__main__":
    raise SystemExit(main())
