"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces the callables each layer hands out at run time
(compiled steppers and rewards, ``RandomStream.generator``, ``_run_batch``,
the harness entry points, the CLI handlers' helpers) with timing wrappers,
and puts the originals back on exit.  Nothing under ``src/`` changes and no
wrapper draws a random number, so a traced run writes the same bytes as an
untraced one.

Spans nest on one stack per process.  A layer's self time is the length of
its spans minus the part covered by child spans, so the per-layer ``*_s``
figures add up to the traced wall time.  Spans are aggregated as they
close rather than kept, which keeps memory flat on runs with millions of
stepper calls.

Harness workers are forked from the traced process, so they inherit the
wrappers.  Each worker writes its totals to ``worker_dir`` after every
chunk and ``merge_workers`` folds them in; a worker started some other way
leaves no file, and ``merge_workers`` then returns False.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import pickle
import time

import numpy as np

from musemc import cli, estimator, parallel, policy
from musemc.streams import RandomStream

LAYERS = ("streams", "processes", "rewards", "estimator", "inference", "parallel", "policy", "cli")
WORKER_LAYERS = ("streams", "processes", "rewards", "estimator")

_ACTIVE = None  # the installed tracer; harness workers reach it through traced_run_chunk


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.home_pid = os.getpid()
        self.call_index = 0
        self._patches = []
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self._stack = []
        self._batch_depth = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, float] = {}
        self.cost_hist: dict[int, int] = {}
        self.manifests = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, layer, fn, *args, **kwargs):
        """Run ``fn`` as a span of ``layer``; returns (result, seconds)."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            self.self_s[layer] += dt - child
        return out, dt

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        os.makedirs(self.worker_dir, exist_ok=True)
        _ACTIVE = self
        self.run_chunk = parallel._run_chunk
        self._patch(parallel, "_run_chunk", traced_run_chunk)
        self._patch(RandomStream, "generator", self._wrap_generator(RandomStream.generator))
        self._patch(estimator, "compile_stepper", self._wrap_compile_stepper(estimator.compile_stepper))
        self._patch(estimator, "compile_reward", self._wrap_compile_reward(estimator.compile_reward))
        run_batch = self._wrap_run_batch(estimator._run_batch)
        self._patch(estimator, "_run_batch", run_batch)
        self._patch(policy, "_run_batch", run_batch)
        self._patch(estimator, "estimate_utility", self._wrap("estimator", estimator.estimate_utility))
        self._patch(estimator.MuseReplicateTask, "__call__", self._wrap("estimator", estimator.MuseReplicateTask.__call__))
        for module in (estimator, cli, policy):
            self._patch(module, "summarize", self._wrap("inference", module.summarize, "inference.summarize_s"))
        self._patch(cli, "bootstrap_ci", self._wrap_bootstrap(cli.bootstrap_ci))
        self._patch(cli, "run_replicated", self._wrap_run_replicated(cli.run_replicated))
        self._patch(cli, "run_stopping_policy", self._wrap("policy", cli.run_stopping_policy))
        self._patch(policy, "_decide", self._wrap_decide(policy._decide))
        self._patch(cli, "main", self._wrap("cli", cli.main))
        return self

    def uninstall(self):
        global _ACTIVE
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        _ACTIVE = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer, fn, total_key=None):
        def traced(*args, **kwargs):
            out, dt = self.span(layer, fn, *args, **kwargs)
            if total_key:
                self.add(total_key, dt)
            return out

        return traced

    def _wrap_generator(self, prop):
        build = prop.fget

        def generator(stream):
            if stream._generator is not None:
                return stream._generator
            out, dt = self.span("streams", build, stream)
            self.add("streams.generators", 1)
            self.add("streams.generator_s", dt)
            return out

        return property(generator, doc=prop.__doc__)

    def _wrap_compile_stepper(self, compile_stepper):
        def traced_compile(spec):
            step = compile_stepper(spec)

            def traced_step(stage, parents, count, gen):
                out, dt = self.span("processes", step, stage, parents, count, gen)
                self.add("processes.step_calls", 1)
                self.add("processes.step_rows", count)
                self.add("processes.step_s", dt)
                return out

            return traced_step

        return traced_compile

    def _wrap_compile_reward(self, compile_reward):
        def traced_compile(spec):
            rew = compile_reward(spec)

            def traced_rew(stage, states):
                out, dt = self.span("rewards", rew, stage, states)
                self.add("rewards.calls", 1)
                self.add("rewards.s", dt)
                return out

            return traced_rew

        return traced_compile

    def _wrap_run_batch(self, run_batch):
        def traced_run_batch(k, parents, count, gen, ctx):
            outer = self._batch_depth == 0
            self._batch_depth += 1
            try:
                out, _ = self.span("estimator", run_batch, k, parents, count, gen, ctx)
            finally:
                self._batch_depth -= 1
            if outer:
                costs = out[1]
                self.add("estimator.replicates", count)
                self.add("estimator.draws", int(costs.sum()))
                if costs.size == 1:
                    c = int(costs[0])
                    self.cost_hist[c] = self.cost_hist.get(c, 0) + 1
                else:
                    for c, n in zip(*np.unique(costs, return_counts=True)):
                        self.cost_hist[int(c)] = self.cost_hist.get(int(c), 0) + int(n)
            return out

        return traced_run_batch

    def _wrap_bootstrap(self, bootstrap_ci):
        signature = inspect.signature(bootstrap_ci)

        def traced_bootstrap(*args, **kwargs):
            out, dt = self.span("inference", bootstrap_ci, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.add("inference.bootstrap_s", dt)
            self.add("inference.bootstrap_resamples", bound.arguments["resamples"])
            return out

        return traced_bootstrap

    def _wrap_decide(self, decide):
        def traced_decide(last_state, stage, fx, config, gen, ctx):
            out, _ = self.span("policy", decide, last_state, stage, fx, config, gen, ctx)
            self.add("policy.decisions", 1)
            if out[2]:  # an inner batch ran (an infinite tolerance skips it)
                self.add("policy.inner_replicates", config.inner_replicates)
            return out

        return traced_decide

    def _wrap_run_replicated(self, run_replicated):
        def traced_run_replicated(task, n_replicates, seed, *args, **kwargs):
            out, _ = self.span("parallel", run_replicated, task, n_replicates, seed, *args, **kwargs)
            samples, manifest = out[0], out[3]
            # computed, not measured: what pickle.dumps gives for each chunk's
            # arguments and result, the payloads the pool sends besides the
            # function reference
            task_bytes = result_bytes = 0
            for start in range(0, manifest.total_replicates, manifest.chunk_size):
                stop = min(start + manifest.chunk_size, manifest.total_replicates)
                task_bytes += len(pickle.dumps((task, manifest.master_seed, start, stop)))
                result_bytes += len(pickle.dumps((start, samples[start:stop], 0, 0.0)))
                self.add("parallel.chunks", 1)
            self.add("parallel.task_pickle_bytes", task_bytes)
            self.add("parallel.result_pickle_bytes", result_bytes)
            self.manifests.append(manifest)
            return out

        return traced_run_replicated

    # -- harness workers -----------------------------------------------------

    def dump(self, path):
        payload = {"self_s": self.self_s, "counts": self.counts, "cost_hist": list(self.cost_hist.items())}
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def merge_workers(self) -> bool:
        """Fold in the totals written by harness workers; False if there are none."""
        paths = sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json")))
        for path in paths:
            with open(path) as fh:
                payload = json.load(fh)
            for layer, s in payload["self_s"].items():
                self.self_s[layer] += s
            for key, value in payload["counts"].items():
                self.add(key, value)
            for c, n in payload["cost_hist"]:
                self.cost_hist[c] = self.cost_hist.get(c, 0) + n
            os.remove(path)
        return bool(paths)

    def cost_quantile(self, q: float) -> int:
        """Smallest per-replicate cost with at least a share q of replicates at or below it (0 if none)."""
        threshold = q * sum(self.cost_hist.values())
        seen = c = 0
        for c in sorted(self.cost_hist):
            seen += self.cost_hist[c]
            if seen >= threshold:
                break
        return c


def traced_run_chunk(task, master_seed, start, stop):
    """Stand-in for ``parallel._run_chunk``; in a worker it also saves that worker's totals."""
    tracer = _ACTIVE
    if os.getpid() == tracer.home_pid:
        return tracer.run_chunk(task, master_seed, start, stop)
    if tracer.pid != os.getpid():
        tracer.reset()  # a fresh fork: drop the totals and open spans copied from the parent
    out = tracer.run_chunk(task, master_seed, start, stop)
    tracer.dump(os.path.join(tracer.worker_dir, f"worker-{tracer.call_index}-{os.getpid()}.json"))
    return out
