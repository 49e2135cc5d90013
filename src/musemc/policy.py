"""Estimator-driven stopping decisions along simulated episodes.

At each stage the agent holds a realized history, re-estimates the
continuation value U_{T-k} with a fresh batch of unbiased replicates, and
stops as soon as the current reward beats the estimated continuation minus
a slack.  The slack is either a fixed tolerance or the half-width of a CLT
interval on the inner batch ("adaptive"), which concentrates the failure
probability where the inner estimate is noisy.  The horizon forces a stop.

Episodes run as harness blocks (``PolicyEpisodeTask.run_block``): a
block's episodes advance together, and at each stage one row-wise
``_decide`` runs the inner batches of the episodes still running.  A single
episode (``run_episode``) is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import _MAX_GROUP, RateSchedule, _compile_context, _group_bounds, _run_batch
from .inference import BatchSummary, normal_quantile, summarize
from .parallel import map_replicated
from .processes import ProcessSpec, _history_parent, check_int
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

    def __post_init__(self):
        check_int(self.inner_replicates, "inner_replicates")
        if self.tolerance is not None and not self.tolerance >= 0.0:
            raise ValueError("tolerance must be nonnegative (or None for adaptive)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def adaptive(self) -> bool:
        return self.tolerance is None


@dataclass(frozen=True, eq=False)
class StageDecision:
    """Diagnostics for one decision point (or the forced final stop).

    A stop that ran no inner batch records ``nan`` in ``y_bar`` and
    ``std_error``; equality and hashing treat a ``nan`` field as equal to
    ``nan``, so identical decisions (and episodes) compare equal.
    """

    stage: int
    fx: float
    y_bar: float
    std_error: float
    decision: str

    def _key(self):
        fields = (self.stage, self.fx, self.y_bar, self.std_error, self.decision)
        return tuple(None if isinstance(v, float) and math.isnan(v) else v for v in fields)

    def __eq__(self, other):
        if not isinstance(other, StageDecision):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class PolicyOutcome:
    """One episode: where it stopped, what it collected, and why."""

    episode: int
    tau: int
    realized_reward: float
    inner_cost: int
    diagnostics: tuple[StageDecision, ...]


def decide_stop(history: tuple, fx: float, process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, stream) -> tuple[bool, StageDecision]:
    """One decision at stage ``len(history)``: estimate the continuation value and compare against fx."""
    last = _history_parent(process, history, first=1)
    ctx = _compile_context(process, reward_spec, config.schedule)
    stop, decisions, _ = _decide(last, len(history), np.array([float(fx)]), config, as_generator(stream), ctx)
    return bool(stop[0]), decisions[0]


def _decide(states, stage, fx, config, gen, ctx):
    """Decide at ``stage`` for the episodes whose states are the rows of ``states``.

    ``fx`` holds their rewards on the table.  The rows' inner batches draw
    from ``gen`` in row order, one ``_run_batch`` per group of
    ``_group_bounds`` under ``_MAX_GROUP`` (``max(1, _MAX_GROUP //
    inner_replicates)`` rows), so no batch is wider than the cap or one
    inner batch.  Returns (stop mask, one ``StageDecision`` per row, inner draws
    per row as a list); the last is 0 when no inner batch ran.
    """
    if math.isinf(config.tolerance or 0.0):
        # infinite slack: stop unconditionally, skip the inner batches
        nan = float("nan")
        return np.ones(fx.size, dtype=bool), [StageDecision(stage, float(f), nan, nan, STOP) for f in fx], 0
    n = config.inner_replicates
    d = states.shape[1]
    y_bar = np.empty(fx.size)
    se = np.zeros(fx.size)
    costs = np.empty(fx.size, dtype=np.int64)
    for a, b in _group_bounds(np.full(fx.size, n), _MAX_GROUP):
        # each row repeated n times; a lone row stays a view, so a wide inner batch copies nothing
        parents = np.broadcast_to(states[a:b, None], (b - a, n, d)).reshape(-1, d)
        values, batch_costs = _run_batch(stage, parents, (b - a) * n, gen, ctx)[:2]
        values = values.reshape(b - a, n)
        y_bar[a:b] = values.mean(axis=1)
        if n > 1:
            se[a:b] = values.std(axis=1, ddof=1) / math.sqrt(n)
        costs[a:b] = batch_costs.reshape(b - a, n).sum(axis=1)
        del parents, values, batch_costs  # freed before the next batch runs, so one batch is live at a time
    eps = normal_quantile(config.alpha) * se if config.adaptive else config.tolerance
    stop = fx > y_bar - eps
    decisions = [
        StageDecision(stage, float(f), float(y), float(s), STOP if halt else CONTINUE)
        for f, y, s, halt in zip(fx, y_bar, se, stop)
    ]
    return stop, decisions, costs.tolist()


def run_episode(process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, episode: int, stream: RandomStream) -> PolicyOutcome:
    """Simulate one episode under the policy: a harness block of one on ``stream``.

    The path draws from substream ``(0,)`` of ``stream`` and the stage-k
    inner batch from substream ``(k,)``, so decisions never perturb the
    path and episodes are reproducible in isolation.
    """
    return PolicyEpisodeTask(process, reward_spec, config).run_block(episode, 1, stream)[0]


def run_stopping_policy(process: ProcessSpec, reward_spec: RewardSpec, config: PolicyConfig, episodes: int, stream) -> tuple[list[PolicyOutcome], BatchSummary]:
    """Run ``episodes`` independent episodes; returns (outcomes, reward summary).

    This is the replication harness at one worker, so it agrees exactly
    with ``muse stop`` at any worker count.  The summary's cost field counts
    inner estimator draws, the real sampling bill of the policy.
    """
    outcomes, summary, _ = _run_episodes(process, reward_spec, config, episodes, stream, workers=1)
    return outcomes, summary


def _run_episodes(process, reward_spec, config, episodes, seed, workers, record=None):
    """The harness run behind ``run_stopping_policy`` and ``muse stop``.

    ``record`` becomes the manifest's ``config``.  Returns (outcomes, reward
    summary, manifest).
    """
    check_int(episodes, "episodes")
    blocks, manifest = map_replicated(PolicyEpisodeTask(process, reward_spec, config), episodes, seed, workers=workers, config=record)
    outcomes = [o for block in blocks for o in block]
    rewards = np.array([o.realized_reward for o in outcomes], dtype=float)
    costs = np.array([o.inner_cost for o in outcomes], dtype=np.int64)
    return outcomes, summarize(rewards, costs, wall_time=manifest.wall_time), manifest


class PolicyEpisodeTask:
    """Harness job: ``run_block(start, count, stream)`` runs episodes
    ``start`` .. ``start + count - 1`` together.  Forked workers inherit the
    task, so the harness never pickles it; it stays picklable because
    perfbench's tracer pickles it to size its payload counts.

    Each stage's path draws cover every row of the block, stopped or not,
    from substream ``(0,)`` of ``stream``, so a path never depends on
    decisions, the inner batch size or the tolerance.  At stage k one
    ``_decide`` runs the inner batches of the episodes still running, from
    substream ``(k,)``.
    """

    def __init__(self, process, reward_spec, config):
        self.process = process
        self.reward_spec = reward_spec
        self.config = config

    def run_block(self, start, count, stream) -> list[PolicyOutcome]:
        ctx = _compile_context(self.process, self.reward_spec, self.config.schedule)
        path_gen = stream.child(0).generator
        state = ctx.step(1, None, count, path_gen)
        running = np.arange(count)
        tau = np.zeros(count, dtype=np.int64)
        realized = np.empty(count)
        inner_cost = np.zeros(count, dtype=np.int64)
        diagnostics = [[] for _ in range(count)]
        for stage in range(1, ctx.horizon + 1):
            live = state[running]
            fx = np.asarray(ctx.rew(stage, live), dtype=float)
            if stage < ctx.horizon:
                stop, decisions, costs = _decide(live, stage, fx, self.config, stream.child(stage).generator, ctx)
                inner_cost[running] += costs
            else:  # the horizon forces a stop
                stop = np.ones(running.size, dtype=bool)
                decisions = [StageDecision(stage, float(f), float("nan"), float("nan"), FORCED) for f in fx]
            for row, decision in zip(running, decisions):
                diagnostics[row].append(decision)
            tau[running[stop]] = stage
            realized[running[stop]] = fx[stop]
            running = running[~stop]
            if running.size == 0:
                break
            state = ctx.step(stage + 1, state, count, path_gen)
        return [
            PolicyOutcome(start + j, int(tau[j]), float(realized[j]), int(inner_cost[j]), tuple(diagnostics[j]))
            for j in range(count)
        ]
