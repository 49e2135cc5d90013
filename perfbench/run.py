"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gauss-t3-lib --seed 1 --seconds 15 --trace 0

Run from the repository root.  With ``--trace 0`` it prints every
end-to-end metric of perfbench/spec.py, with ``--trace 1`` every per-layer
metric, each by name and unit, followed by the correctness gate, the
failed share and the environment.  The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program runs from ``src/`` in fresh interpreters with ``MUSE_WORKERS``
removed (it would override ``--workers``) and BLAS/OpenMP pinned to one
thread, so that two workers mean two busy threads.  Outputs go under
``.bench_build/`` and are deleted at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402

SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0  # the whole run, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    muse_workers = env.pop("MUSE_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env, muse_workers


def run_child(argv, env, deadline):
    """Run a child in its own process group; kill the whole group on timeout.

    Returns (returncode, stdout, stderr, seconds).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.measure", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\ntimed out", time.perf_counter() - t0
    return proc.returncode, out, err, time.perf_counter() - t0


def source_identity():
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, result):
    """Print every metric by name and unit, then the gate, failures and environment."""
    env, info, metrics = result["env"], result["info"], result["metrics"]
    muse_workers = result["muse_workers"]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    notes = {}
    if info and not args.trace:
        lat = info["latency"]
        raw = info["raw_rates"]
        notes = {
            "replicates_per_s": f"median over {lat['calls']} calls (raw {raw['replicates_per_s']:.6g}); "
                                f"{info['draws_per_replicate']:.3f} draws/replicate",
            "draws_per_s": f"median over calls (raw {raw['draws_per_s']:.6g}); {info['replicates']} replicates, "
                           f"{lat['draws_total']} draws",
            "calls_per_s": f"median over calls (raw {raw['calls_per_s']:.6g}); "
                           f"{lat['draws_per_call_median']} draws/call (median)",
            "peak_rss_mb": "median over calls of the process tree's peak: this process + the call's workers",
            "setup_s": f"median of {len(result['setup'])} fresh interpreters, 1 warm-up replicate each",
        }
    for m in spec.PER_LAYER if args.trace else spec.END_TO_END:
        print(f"  {m['name']:<30} {_fmt(metrics[m['name']]):>14} {m['unit']:<9} {notes.get(m['name'], '')}")
    if info and args.trace:
        print(f"trace: {info['calls']} calls, each untraced ({info['untraced_wall_s']:.3f} s in all) and traced "
              f"({info['traced_wall_s']:.3f} s); outputs byte-identical on {info['identical_outputs']}/{info['calls']}")
        print("self time by layer (s): " + ", ".join(f"{k}={v:.4f}" for k, v in info["self_s_by_layer"].items()))
        unmeasured = info["unmeasured_layers"]
        print("unmeasured layers: " + (", ".join(unmeasured) + " (harness workers left no spans)" if unmeasured
                                        else "none"))
    elif info:
        lat = info["latency"]
        tail = f", p{lat['tail_pct']:.1f} {lat['tail_ms']:.2f} ms" if "tail_ms" in lat else ""
        print(f"latency per call: median {lat['median_ms']:.2f} ms{tail} over {lat['calls']} calls "
              f"({lat['draws_total']} draws in {info['wall_s']:.3f} s)")
        print(f"rates are rescaled to the reference speed: x {info['reference_s'] * 1e3:.4f} ms (median time of the "
              f"reference loop before each call) / {spec.REFERENCE_NOMINAL_S * 1e3:.4f} ms (nominal)")
        if info["episodes_per_s"]:
            print(f"episodes_per_s {info['episodes_per_s']:.6g} 1/s (calls_per_s x episodes per call)")
        print(f"ungated (set by the draws, not by the code, so no bound applies): variance={info['variance']:.6g} "
              f"work_normalized_variance={info['work_normalized_variance']:.6g} s "
              f"(wall {info['wall_s']:.3f} s x variance / {info['replicates']} replicates)")
    print(f"gate: {'PASS' if result['gate_ok'] else 'FAIL'}: {result['gate']}")
    print(f"failed: {result['failed']}/{result['attempted']} calls "
          f"({100 * result['failed'] / result['attempted']:.2f}%) on {args.workload}")
    for err in result["errors"][:3]:
        print(f"error: {err}")
    print(f"environment: nproc={env['nproc']} (affinity {env['affinity']}) python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={result['commit']} src_sha256={result['src_sha256']} "
          f"MUSE_WORKERS={'cleared (was ' + repr(muse_workers) + ')' if muse_workers is not None else 'unset'} "
          f"BLAS/OpenMP threads=1")


class BenchError(RuntimeError):
    """The program could not be set up or measured; no result is printed."""


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Set up and measure one workload in fresh interpreters; returns the run's result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "musemc", "__init__.py")):
        raise BenchError(f"no musemc sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT_S
    env, muse_workers = child_env()
    out = os.path.join(ROOT, ".bench_build", "perfbench", f"{workload}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--out", out]
    setup = []
    try:
        if not trace:
            for _ in range(SETUP_REPEATS):
                code, _, err, seconds_taken = run_child(common + ["--setup"], env, deadline)
                if code != 0:
                    raise BenchError(f"set-up failed:\n{err}")
                setup.append(seconds_taken)
        code, stdout, err, _ = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
        if code != 0:
            raise BenchError(f"measurement failed:\n{err}")
        result = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if setup:
        result["metrics"]["setup_s"] = sorted(setup)[len(setup) // 2]
    result["setup"] = setup
    result["muse_workers"] = muse_workers
    result["commit"], result["src_sha256"] = source_identity()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, result)
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
