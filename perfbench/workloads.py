"""The three workloads: inputs made from the seed, one timed call, and a correctness gate.

Each workload issues calls in a closed loop: one caller, the next call
starts when the previous one returns.  Call ``i`` gets its own master seed,
derived from the benchmark seed, so calls are independent and a run is a
function of the seed.  The gates compare the output of all calls in a run
with an exact or published reference through a z-bound; the false-alarm
rates they quote are those of the normal approximation.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from musemc import cli, estimator
from musemc.baselines import discrete_dp_oracle, gaussian_dp_oracle
from musemc.estimator import RateSchedule
from musemc.fixtures import mixing_three_stage
from musemc.processes import gaussian_iid, gbm
from musemc.rewards import basket_put, identity_reward
from musemc.streams import RandomStream

Z_POOLED = 5.0  # one gate per run on the pooled mean
Z_DECISION = 6.0  # one gate per inner batch of the stopping policy; a run makes about a thousand


def false_alarm(z: float, sides: int = 2) -> float:
    """Chance that a normal statistic lands beyond z standard errors."""
    return math.erfc(z / math.sqrt(2.0)) * sides / 2.0

# wall times, and how the harness happened to split replicates between
# workers, differ between two runs of the same seed; no other output may
_SCHEDULE_KEYS = ("wall_time_s", "worker_wall_times", "worker_replicates")


@dataclass
class Call:
    """What one call did, read back after the timed region."""

    replicates: int
    draws: int
    bytes_written: int = 0
    outputs: dict = field(default_factory=dict)  # name -> bytes that must not depend on tracing
    sample: tuple = ()  # the figures the gate pools
    peak_kib: int = 0  # peak RSS of the process tree during the call, set by the caller
    reference_s: float = 0.0  # time of the reference loop run just before the call, set by the caller


class Workload:
    name = ""
    index = 0
    harness_workers = 0  # worker processes each call starts
    episodes_per_call = 0
    # calls per second on a 2-core machine; a traced run makes a fixed number
    # of calls from it, so that its per-layer counts repeat for a given seed
    trace_calls_per_s = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = out_dir

    def call_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, self.index, i]).generate_state(1)[0])

    def specs(self):
        """(process, reward, schedule) of the instance, for the set-up warm-up."""
        raise NotImplementedError

    def prepare(self):
        os.makedirs(self.out_dir, exist_ok=True)

    def call(self, i: int):
        """The timed operation."""
        raise NotImplementedError

    def record(self, i: int) -> Call:
        raise NotImplementedError

    def check(self, calls) -> tuple[bool, str]:
        raise NotImplementedError

    def variance(self, calls) -> float:
        """Replicate variance, for the informational work-normalised variance."""
        return _pool(c.sample for c in calls)[2]


def _pool(samples):
    """Merge (n, mean, variance) groups; returns (n, mean, variance)."""
    n = 0
    mean = m2 = 0.0
    for ni, mi, vi in samples:
        total = n + ni
        delta = mi - mean
        m2 += (ni - 1) * vi + delta * delta * n * ni / total
        mean += delta * ni / total
        n = total
    return n, mean, (m2 / (n - 1) if n > 1 else 0.0)


def _strip_schedule(data):
    if isinstance(data, dict):
        return {k: _strip_schedule(v) for k, v in data.items() if k not in _SCHEDULE_KEYS}
    return data


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class GaussT3Lib(Workload):
    name = "gauss-t3-lib"
    index = 0
    trace_calls_per_s = 22
    replicates_per_call = 250

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._specs = self.specs()
        self._last = None

    def specs(self):
        return gaussian_iid(3), identity_reward(), RateSchedule.constant(0.6, 3)

    def call(self, i):
        process, reward, schedule = self._specs
        self._last = estimator.estimate_utility(
            process, reward, schedule, n_replicates=self.replicates_per_call, stream=RandomStream(self.call_seed(i))
        )

    def record(self, i):
        s = self._last
        fields = (s.n, s.mean, s.variance, s.std_error, s.total_cost)
        return Call(replicates=s.n, draws=s.total_cost, outputs={"summary": repr(fields).encode()},
                    sample=(s.n, s.mean, s.variance))

    def check(self, calls):
        n, mean, var = _pool(c.sample for c in calls)
        oracle = gaussian_dp_oracle(3)
        se = math.sqrt(var / n)
        ok = abs(mean - oracle) <= Z_POOLED * se
        return ok, (f"|mean {mean:.5f} - DP oracle {oracle:.5f}| = {abs(mean - oracle):.5f} "
                    f"<= {Z_POOLED:g} se = {Z_POOLED * se:.5f} (n={n}, two-sided false alarm {false_alarm(Z_POOLED):.1e})")


class BasketD10CliW2(Workload):
    name = "basket-d10-cli-w2"
    index = 1
    harness_workers = 2
    trace_calls_per_s = 4
    replicates_per_call = 1000
    dates = (0.0, 1.0, 2.0, 3.0)
    published, published_se = 0.985, 0.002
    _files = ("replicates.csv", "summary.json", "manifest.json")

    def specs(self):
        process = gbm(10, len(self.dates), gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=self.dates)
        return process, basket_put(100.0, 0.05, self.dates), RateSchedule.constant(0.6, len(self.dates))

    def argv(self, i, workers=2, replicates=None):
        return ["estimate", "--process", "gbm", "--dimension", "10", "--dates", "0,1,2,3", "--rates", "0.6",
                "--ci", "bootstrap", "--workers", str(workers),
                "--replicates", str(replicates or self.replicates_per_call),
                "--seed", str(self.call_seed(i)), "--out-dir", self.out_dir]

    def call(self, i):
        if cli.main(self.argv(i)) != 0:
            raise RuntimeError(f"muse estimate failed on call {i}")

    def record(self, i):
        paths = [os.path.join(self.out_dir, name) for name in self._files]
        summary = _read_json(paths[1])
        outputs = {
            "replicates.csv": _read_bytes(paths[0]),
            "summary.json": json.dumps(_strip_schedule(summary), sort_keys=True).encode(),
            "manifest.json": json.dumps(_strip_schedule(_read_json(paths[2])), sort_keys=True).encode(),
        }
        return Call(replicates=summary["n"], draws=summary["total_cost"],
                    bytes_written=sum(os.path.getsize(p) for p in paths), outputs=outputs,
                    sample=(summary["n"], summary["mean"], summary["variance"]))

    def check(self, calls):
        n, mean, var = _pool(c.sample for c in calls)
        bound = Z_POOLED * math.hypot(math.sqrt(var / n), self.published_se)
        ok = abs(mean - self.published) <= bound
        return ok, (f"|mean {mean:.4f} - published {self.published}| = {abs(mean - self.published):.4f} "
                    f"<= {Z_POOLED:g} combined se = {bound:.4f} (n={n}, two-sided false alarm {false_alarm(Z_POOLED):.1e})")


def continuation_values(process):
    """Exact C_k(x) = E[V_{k+1}(X_{k+1}) | X_k = x] of an identity-reward chain, as {k: {x: C}}."""
    support = np.asarray(process.support, dtype=float)
    value = support.copy()  # V_T(x) = x
    out = {}
    for k in range(process.horizon - 1, 0, -1):
        cont = np.asarray(process.transitions[k], dtype=float) @ value
        out[k] = dict(zip(support.tolist(), cont.tolist()))
        value = np.maximum(support, cont)
    return out


class ChainStopCli(Workload):
    name = "chain-stop-cli"
    index = 2
    trace_calls_per_s = 5
    inner_replicates = 50_000
    episodes_per_call = 4
    _files = ("episodes.csv", "policy_summary.json")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.process = mixing_three_stage()
        self.config_path = os.path.join(out_dir, "chain.json")
        self.oracle = discrete_dp_oracle(self.process, identity_reward())
        self.continuation = continuation_values(self.process)

    def specs(self):
        return self.process, identity_reward(), RateSchedule.constant(0.6, self.process.horizon)

    def prepare(self):
        super().prepare()
        p = self.process
        transitions = [list(p.transitions[0])] + [[list(row) for row in mat] for mat in p.transitions[1:]]
        config = {"process": {"kind": "UserDiscrete", "support": list(p.support), "transitions": transitions},
                  "reward": {"kind": "Identity"}}
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def argv(self, i):
        return ["stop", "--config", self.config_path, "--rates", "0.6",
                "--inner-replicates", str(self.inner_replicates), "--workers", "1",
                "--episodes", str(self.episodes_per_call), "--seed", str(self.call_seed(i)),
                "--out-dir", self.out_dir]

    def call(self, i):
        if cli.main(self.argv(i)) != 0:
            raise RuntimeError(f"muse stop failed on call {i}")

    def record(self, i):
        paths = [os.path.join(self.out_dir, name) for name in self._files]
        log = _read_bytes(paths[0])
        summary = _read_bytes(paths[1])
        rows = list(csv.DictReader(log.decode().splitlines()))
        decisions = tuple((int(r["stage"]), float(r["fx"]), float(r["y_bar"]), float(r["se"]))
                          for r in rows if r["decision"] in ("stop", "continue"))
        rewards = tuple({r["episode_id"]: float(r["realized_reward"]) for r in rows}.values())
        return Call(replicates=len(decisions) * self.inner_replicates, draws=json.loads(summary)["total_inner_cost"],
                    bytes_written=len(log) + len(summary),
                    outputs={"episodes.csv": log, "policy_summary.json": summary}, sample=(decisions, rewards))

    def check(self, calls):
        decisions = [d for c in calls for d in c.sample[0]]
        rewards = np.array([r for c in calls for r in c.sample[1]])
        misses = [d for d in decisions
                  if not abs(d[2] - self.continuation[d[0]][d[1]]) <= Z_DECISION * d[3] + 1e-12]
        se = float(rewards.std(ddof=1)) / math.sqrt(rewards.size) if rewards.size > 1 else 0.0
        ok = not misses and rewards.mean() <= self.oracle + Z_POOLED * se
        return ok, (f"{len(decisions) - len(misses)}/{len(decisions)} inner batches within {Z_DECISION:g} se of the "
                    f"exact continuation value (false alarm {false_alarm(Z_DECISION):.1e} each, "
                    f"{len(decisions) * false_alarm(Z_DECISION):.1e} for all by Bonferroni); "
                    f"policy mean reward {rewards.mean():.4f} <= DP oracle {self.oracle:.4f} + {Z_POOLED:g} se = "
                    f"{self.oracle + Z_POOLED * se:.4f} ({rewards.size} episodes, one-sided false alarm "
                    f"{false_alarm(Z_POOLED, sides=1):.1e})")

    def variance(self, calls):
        # mean within-decision variance of the inner replicates
        ses = [d[3] for c in calls for d in c.sample[0]]
        return float(np.mean(np.square(ses))) * self.inner_replicates if ses else 0.0


WORKLOADS = {w.name: w for w in (GaussT3Lib, BasketD10CliW2, ChainStopCli)}
