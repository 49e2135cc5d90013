"""Estimator-driven stopping decisions along simulated episodes.

At each stage the agent holds a realized history, re-estimates the
continuation value U_{T-k} with a fresh batch of unbiased replicates, and
stops as soon as the current reward beats the estimated continuation minus
a slack.  The slack is either a fixed tolerance or the half-width of a CLT
interval on the inner batch ("adaptive"), which concentrates the failure
probability where the inner estimate is noisy.  The horizon forces a stop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .estimator import LevelPolicy, RateSchedule, _compile_context, _run_batch
from .inference import BatchSummary, summarize
from .parallel import map_replicated
from .processes import ProcessSpec
from .rewards import RewardSpec
from .streams import RandomStream, as_generator

STOP = "stop"
CONTINUE = "continue"
FORCED = "forced"


@dataclass(frozen=True)
class PolicyConfig:
    """Inner-batch size and slack rule for the stopping decisions.

    ``tolerance`` is a fixed slack epsilon >= 0 (may be +inf, which stops
    immediately); ``None`` selects the adaptive slack z_{alpha/2} * se.
    """

    schedule: RateSchedule
    inner_replicates: int
    tolerance: float | None = None
    alpha: float = 0.05
    level_policy: LevelPolicy = LevelPolicy()

    def __post_init__(self):
        if self.inner_replicates < 1:
            raise ValueError("inner_replicates must be a positive integer")
        if self.tolerance is not None and not self.tolerance >= 0.0:
            raise ValueError("tolerance must be nonnegative (or None for adaptive)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def adaptive(self) -> bool:
        return self.tolerance is None


@dataclass(frozen=True)
class StageDecision:
    """Diagnostics for one decision point (or the forced final stop)."""

    stage: int
    fx: float
    y_bar: float
    std_error: float
    decision: str


@dataclass(frozen=True)
class PolicyOutcome:
    """One episode: where it stopped, what it collected, and why."""

    episode: int
    tau: int
    realized_reward: float
    inner_cost: int
    diagnostics: tuple[StageDecision, ...]


def decide_stop(history, stage: int, fx: float, process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, stream) -> tuple[bool, StageDecision]:
    """One decision: estimate the continuation value and compare against fx."""
    if history.stage != stage:
        raise ValueError(f"history is at stage {history.stage}, expected {stage}")
    if not 1 <= stage <= process.horizon - 1:
        raise ValueError(f"decisions happen at stages 1..{process.horizon - 1}, got {stage}")
    ctx = _compile_context(process, reward_spec, config.schedule, config.level_policy)
    last = np.asarray(history.last(), dtype=float)
    stop, decision, _ = _decide(last, stage, float(fx), config, as_generator(stream), ctx)
    return stop, decision


def _decide(last_state, stage, fx, config, gen, ctx):
    n = config.inner_replicates
    if math.isinf(config.tolerance or 0.0):
        # infinite slack: stop unconditionally, skip the inner batch
        return True, StageDecision(stage, fx, float("nan"), float("nan"), STOP), 0
    parents = np.broadcast_to(last_state, (n, last_state.size))
    values, costs, _ = _run_batch(stage, parents, n, gen, ctx)
    y_bar = float(values.mean())
    if n > 1:
        se = float(values.std(ddof=1)) / math.sqrt(n)
    else:
        se = 0.0
    eps = config.tolerance if not config.adaptive else float(ndtri(1.0 - config.alpha / 2.0)) * se
    stop = fx > y_bar - eps
    label = STOP if stop else CONTINUE
    return stop, StageDecision(stage, fx, y_bar, se, label), int(costs.sum())


def run_episode(process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, episode: int, stream: RandomStream) -> PolicyOutcome:
    """Simulate one episode under the policy.

    The path draws from substream ``(0,)`` of ``stream`` and the stage-k
    inner batch from substream ``(k,)``, so decisions never perturb the
    path and episodes are reproducible in isolation.
    """
    ctx = _compile_context(process, reward_spec, config.schedule, config.level_policy)
    horizon = process.horizon
    path_gen = stream.child(0).generator
    rew = ctx.rew

    state = ctx.step(1, None, 1, path_gen)
    inner_cost = 0
    diagnostics = []
    for stage in range(1, horizon + 1):
        fx = float(rew(stage, state)[0])
        if stage == horizon:
            diagnostics.append(StageDecision(stage, fx, float("nan"), float("nan"), FORCED))
            return PolicyOutcome(episode, stage, fx, inner_cost, tuple(diagnostics))
        stop, decision, cost = _decide(state[0], stage, fx, config, stream.child(stage).generator, ctx)
        inner_cost += cost
        diagnostics.append(decision)
        if stop:
            return PolicyOutcome(episode, stage, fx, inner_cost, tuple(diagnostics))
        state = ctx.step(stage + 1, state, 1, path_gen)
    raise AssertionError("unreachable: the horizon stage always returns")


def run_stopping_policy(process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, episodes: int, stream) -> tuple[list[PolicyOutcome], BatchSummary]:
    """Run ``episodes`` independent episodes; returns (outcomes, reward summary).

    This is the replication harness at one worker: episode ``e`` uses
    substream ``(e,)`` of ``stream``, so it agrees exactly with ``muse
    stop`` at any worker count.  The summary's cost field counts inner
    estimator draws, the real sampling bill of the policy.
    """
    if episodes < 1:
        raise ValueError("episodes must be a positive integer")
    if isinstance(stream, (int, np.integer)):
        stream = RandomStream(int(stream))
    if not isinstance(stream, RandomStream):
        raise TypeError("run_stopping_policy needs a RandomStream (or int seed) to key episodes")
    outcomes, _ = map_replicated(PolicyEpisodeTask(process, reward_spec, config), episodes, stream, workers=1)
    rewards = np.array([o.realized_reward for o in outcomes], dtype=float)
    costs = np.array([o.inner_cost for o in outcomes], dtype=np.int64)
    return outcomes, summarize(rewards, costs)


class PolicyEpisodeTask:
    """Picklable ``(episode, stream) -> PolicyOutcome`` job for the harness."""

    def __init__(self, process, reward_spec, config):
        self.process = process
        self.reward_spec = reward_spec
        self.config = config

    def __call__(self, episode, stream) -> PolicyOutcome:
        return run_episode(self.process, self.reward_spec, self.config, episode, stream)


def write_episode_log(path, outcomes) -> None:
    """Long-format CSV: one row per decision stage of each episode."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode_id", "tau", "realized_reward", "stage", "fx", "y_bar", "se", "decision"])
        for o in outcomes:
            for d in o.diagnostics:
                writer.writerow(
                    [o.episode, o.tau, repr(o.realized_reward), d.stage, repr(d.fx), repr(d.y_bar), repr(d.std_error), d.decision]
                )
