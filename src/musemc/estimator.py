"""Unbiased randomized-multilevel estimators for optimal-stopping values.

The target is U_T = sup over stopping rules of E[f(tau, X_tau)] for a
discrete-time process observed at stages 1..T.  A single replicate draws a
geometric level N, expands 2^N conditional continuations, and combines the
full average with the two half-sample averages into an antithetic
difference whose expectation telescopes across levels; dividing by the
geometric mass P(N) makes the replicate exactly unbiased with finite
expected cost.  Deeper stages recurse: each continuation sample is itself
an independent replicate of the next stage's value.

A batch of replicates expands its trees level by level and reduces them
with vectorized segment sums, so per-node Python overhead is paid per
*level*, not per sample.  One cap, ``_MAX_GROUP``, bounds the children
expanded at once: rows are expanded in index order in groups of at most
that many children, and a wider row runs in place as even-sized chunks of
the cap, so memory is bounded by the cap rather than by 2^N.  All
randomness comes from the caller's stream; one batch consumes its
generator in a fixed deterministic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inference import BatchSummary, summarize
from .parallel import run_replicated
from .processes import ProcessSpec, _history_parent, check_int, compile_stepper
from .rewards import RewardSpec, compile_reward
from .streams import as_generator

# cap on the children expanded in one batch, whether of several rows or a
# chunk of one wide row; a power of two, so a wide row's chunks stay even
_MAX_GROUP = 1 << 13


def theoretical_rate(delta_mom: float) -> float:
    """Geometric rate with provably finite variance and expected cost.

    Valid for a reward with 2 + delta_mom finite moments, 0 < delta_mom < 1/4.
    The rate always lands in (1/2, 1): far enough above 1/2 that expected
    cost r/(2r-1) is finite, close enough that the variance series converges.
    """
    if not 0.0 < delta_mom < 0.25:
        raise ValueError("delta_mom must lie in (0, 1/4)")
    exponent = (2.0 + 9.0 * delta_mom / (80.0 + 40.0 * delta_mom)) / (2.0 + delta_mom / 10.0)
    return 1.0 - 2.0 ** (-exponent)


@dataclass(frozen=True)
class RateSchedule:
    """Per-stage geometric rates; ``rates[k]`` drives the level drawn at stage k.

    A schedule for horizon T has T-1 entries (no level is drawn at the last
    stage).  All entries must lie in (1/2, 1) so every level's expected cost
    and variance stay finite.
    """

    rates: tuple[float, ...]
    source: str = "manual"
    delta_mom: float | None = None

    def __post_init__(self):
        for r in self.rates:
            if not (0.5 < r < 1.0):
                raise ValueError(f"geometric rates must lie in (1/2, 1), got {r}")

    @property
    def horizon(self) -> int:
        return len(self.rates) + 1

    @classmethod
    def constant(cls, r: float, horizon: int) -> "RateSchedule":
        check_int(horizon, "horizon")
        return cls(rates=(float(r),) * (horizon - 1))


def theoretical_rate_schedule(delta_mom: float, horizon: int) -> RateSchedule:
    """Stage-dependent schedule r_i = theoretical_rate(delta_mom * 10^(i+1-T)).

    Early stages see smaller moment budgets (their integrands stack more
    suprema), hence rates closer to 1/2.  At horizon 2 the schedule reduces
    to the single two-stage rate.
    """
    if horizon < 2:
        raise ValueError("a rate schedule needs horizon >= 2")
    rates = tuple(theoretical_rate(delta_mom * 10.0 ** (i + 1 - horizon)) for i in range(1, horizon))
    return RateSchedule(rates=rates, source="theoretical", delta_mom=delta_mom)


@dataclass(frozen=True)
class EstimatorSample:
    """One replicate: its value, the first-level draw, and the exact cost.

    ``cost`` counts base-process state draws, including the first one.
    ``biased`` marks samples drawn with the level capped at a ``max_level``.
    """

    value: float
    top_level: int
    cost: int
    biased: bool = False


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Replicates in column form: one entry per replicate in each array.

    Indexing with an int gives that replicate's ``EstimatorSample``; slicing
    gives a ``SampleBlock``.
    """

    values: np.ndarray
    top_levels: np.ndarray
    costs: np.ndarray
    biased: bool = False

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SampleBlock(self.values[i], self.top_levels[i], self.costs[i], self.biased)
        return EstimatorSample(float(self.values[i]), int(self.top_levels[i]), int(self.costs[i]), self.biased)

    @staticmethod
    def concat(blocks) -> "SampleBlock":
        """One block holding ``blocks`` end to end."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        return SampleBlock(
            np.concatenate([b.values for b in blocks]),
            np.concatenate([b.top_levels for b in blocks]),
            np.concatenate([b.costs for b in blocks]),
            blocks[0].biased,
        )


def sample_geometric_level(r: float, stream) -> int:
    """Draw N with P(N = n) = r (1-r)^n on {0, 1, 2, ...}: ``_sample_levels``
    on one uniform, in ``math`` (a one-element numpy draw costs ten times as much)."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    u = as_generator(stream).random()
    return max(0, math.ceil(math.log1p(-u) / math.log1p(-r)) - 1)


def antithetic_delta(anchor: float, values) -> float:
    """Difference between the full-average and half-average stopping values.

    ``values`` must have power-of-two length 2^n.  For n = 0 the correction
    degenerates to max(anchor, values[0]); otherwise it is
    max(anchor, mean(values)) minus the average of the same expression over
    the odd- and even-indexed halves (1-based: children 1,3,... and 2,4,...).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    m = v.size
    if m & (m - 1):
        raise ValueError(f"values length must be a power of two, got {m}")
    anchor = float(anchor)
    if m == 1:
        return max(anchor, float(v[0]))
    h = m // 2
    return float(_delta(anchor, float(v[0::2].sum()) / h, float(v[1::2].sum()) / h))


def _delta(anchor, odd_avg, even_avg):
    """max(anchor, full average) minus the mean of max(anchor, half average).

    Elementwise over arrays or scalars.  The full average is formed from
    the half-averages so that the correction is *exactly* zero when both
    halves fall weakly on one side of the anchor, not just zero up to
    rounding.
    """
    full = 0.5 * (odd_avg + even_avg)
    return np.maximum(anchor, full) - 0.5 * (np.maximum(anchor, odd_avg) + np.maximum(anchor, even_avg))


def _sample_levels(gen, r, count, max_level):
    """``count`` levels, each the least n with u * norm <= 1 - (1-r)^(n+1) for one uniform u.

    ``ceil - 1``, not ``floor``: at u = r the least n is 0, where ``floor``
    gives 1.  For r >= 1/3 these are numpy's ``Generator.geometric(r) - 1``
    draws, which read the same uniform and search for the same n.
    """
    u = gen.random(count)
    if max_level is not None:
        u *= _norm(r, max_level)
    levels = np.ceil(np.log1p(-u) / math.log1p(-r)).astype(np.int64) - 1
    np.maximum(levels, 0, out=levels)  # in place: np.clip costs half as much again per level
    if max_level is not None:
        np.minimum(levels, max_level, out=levels)
    return levels


def _norm(r, max_level):
    """The mass kept on levels 0..max_level: 1, or 1 - (1-r)^(max_level+1) under a cap."""
    if max_level is not None:
        return -math.expm1((max_level + 1) * math.log1p(-r))
    return 1.0


def _pmf(r, levels, max_level):
    """P(N = level) under the cap ``max_level`` (``None``: uncapped), evaluated in log space."""
    logp = math.log(r) + levels * math.log1p(-r) - math.log(_norm(r, max_level))
    return np.exp(logp)


@dataclass
class _Context:
    horizon: int
    rates: tuple[float, ...]
    step: Callable
    rew: Callable
    max_level: int | None = None


def _compile_context(process: ProcessSpec, reward_spec: RewardSpec, schedule: RateSchedule, max_level: int | None = None) -> _Context:
    if schedule.horizon != process.horizon:
        raise ValueError(
            f"rate schedule covers horizon {schedule.horizon} but the process has horizon {process.horizon}"
        )
    return _Context(
        horizon=process.horizon,
        rates=schedule.rates,
        max_level=max_level,
        step=compile_stepper(process),
        rew=compile_reward(reward_spec),
    )


def _run_batch(k, parents, count, gen, ctx):
    """``count`` independent stage-k replicates conditioned row-wise on ``parents``.

    Returns (values, costs, levels) arrays of length ``count``.  ``parents``
    is ``None`` only at stage 0.  Rows are expanded in index order, in
    groups of at most ``_MAX_GROUP`` children; a row wider than that is a
    group of its own and runs as several even-sized batches of
    ``_MAX_GROUP`` children.  Child sums are accumulated per row, and one
    vectorized pass turns each group's rows into their values.
    """
    x = ctx.step(k + 1, parents, count, gen)
    if k == ctx.horizon - 1:
        vals = np.asarray(ctx.rew(k + 1, x), dtype=float)
        return vals, np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64)

    anchors = np.asarray(ctx.rew(k + 1, x), dtype=float)
    r = ctx.rates[k]
    levels = _sample_levels(gen, r, count, ctx.max_level)
    m = np.int64(1) << levels
    # one pmf per level, the same float operations as per row; count >= 1
    pmf = _pmf(r, np.arange(int(levels.max()) + 1), ctx.max_level)
    leaves = k + 1 == ctx.horizon - 1  # every child then costs exactly one draw
    values = np.empty(count)
    costs = np.empty(count, dtype=np.int64)
    for a, b in _group_bounds(m, _MAX_GROUP):
        mg = m[a:b]
        batches = max(1, int(mg.sum()) // _MAX_GROUP)  # > 1 only for one wide row
        width = mg // batches  # children per row in each batch; even when batches > 1
        seg = np.repeat(np.arange(b - a), width)
        # children 1, 3, 5, ... of a row sit at the positions of its start's
        # parity, which flips after each one-child row (every other width is
        # even); an xor scan is cheaper than the cumulative sum of the widths
        one = width == 1
        odd_start = np.logical_xor.accumulate(one) ^ one
        child_parents = np.repeat(x[a:b], width, axis=0)
        tot = odd = child_cost = 0.0
        for _batch in range(batches):
            cv, cc, _ = _run_batch(k + 1, child_parents, seg.size, gen, ctx)
            tot += np.bincount(seg, weights=cv, minlength=b - a)
            # a row's odd half sums its odd children alone, from +0.0, so an
            # inf or nan even child stays out of it
            odd += np.where(
                odd_start,
                np.bincount(seg[1::2], weights=cv[1::2], minlength=b - a),
                np.bincount(seg[0::2], weights=cv[0::2], minlength=b - a),
            )
            if not leaves:
                child_cost += np.bincount(seg, weights=cc, minlength=b - a)
        # valued per group while its arrays are still in cache: one pass over
        # a 5e4-row batch took about twice as long as the per-group passes
        h = 0.5 * mg
        delta = np.where(mg == 1, np.maximum(anchors[a:b], tot), _delta(anchors[a:b], odd / h, (tot - odd) / h))
        values[a:b] = delta / pmf[levels[a:b]]
        costs[a:b] = 1 + (mg if leaves else np.rint(child_cost).astype(np.int64))
    return values, costs, levels


def _group_bounds(m, cap):
    """Split consecutive rows into groups whose child counts sum to <= cap.

    Groups are filled greedily, each with at least one row; a group ends
    before the first row whose running total would pass ``cap``.
    """
    ends = np.cumsum(m)
    if m.size == 0 or ends[-1] <= cap:
        return [(0, m.size)]
    bounds = []
    a = 0
    while a < m.size:
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + cap, side="right")))
        bounds.append((a, b))
        a = b
    return bounds


def two_stage_muse(process: ProcessSpec, reward_spec: RewardSpec, r: float, stream) -> EstimatorSample:
    """One unbiased replicate of the two-stage value U_2.

    Draws the level N first, then X_1, then the 2^N conditional second-stage
    samples in even-sized chunks of at most ``_MAX_GROUP``, and forms the
    antithetic difference around max(f(X_1), .).
    """
    ctx = _compile_context(process, reward_spec, RateSchedule((r,)))
    gen = as_generator(stream)
    level = sample_geometric_level(r, gen)
    x1 = ctx.step(1, None, 1, gen)
    anchor = float(ctx.rew(1, x1)[0])
    m = 1 << level
    if m == 1:
        cv, cc, _ = _run_batch(1, x1, 1, gen, ctx)
        delta, cost = max(anchor, float(cv[0])), 1 + int(cc[0])
    else:
        c = min(m, _MAX_GROUP)
        parents = np.broadcast_to(x1, (c, x1.shape[1]))
        tot = odd = 0.0
        cost = 1
        for _chunk in range(m // c):
            cv, cc, _ = _run_batch(1, parents, c, gen, ctx)
            tot += float(cv.sum())
            odd += float(cv[0::2].sum())  # chunks stay even, so parity survives chunking
            cost += int(cc.sum())
        h = m // 2
        delta = _delta(anchor, odd / h, (tot - odd) / h)
    return EstimatorSample(value=float(delta / _pmf(r, level, ctx.max_level)), top_level=level, cost=cost)


def multi_stage_muse(
    history: tuple,
    process: ProcessSpec,
    reward_spec: RewardSpec,
    schedule: RateSchedule,
    max_level: int | None = None,
    stream=None,
) -> EstimatorSample:
    """One replicate of the tail value U_{T-k} given a realized stage-k history.

    The history is the tuple of realized states ``(x_1, ..., x_k)``, and
    the stage k is its length.  Unbiased when ``max_level`` is
    ``None``; with levels capped at ``max_level`` the sample is flagged
    ``biased``.
    """
    if max_level is not None:
        check_int(max_level, "max_level", low=0)
    parents = _history_parent(process, history)
    ctx = _compile_context(process, reward_spec, schedule, max_level)
    v, c, lv = _run_batch(len(history), parents, 1, as_generator(stream), ctx)
    return EstimatorSample(value=float(v[0]), top_level=int(lv[0]), cost=int(c[0]), biased=max_level is not None)


def estimate_utility(
    process: ProcessSpec,
    reward_spec: RewardSpec,
    schedule: RateSchedule,
    max_level: int | None = None,
    n_replicates: int = 1,
    stream=None,
) -> BatchSummary:
    """Average ``n_replicates`` independent full-horizon replicates.

    This is the replication harness at one worker: block ``b`` of
    ``parallel.BLOCK_SIZE`` replicates runs as one batch on the substream
    at path ``(b,)`` of ``stream``, so the result is a function of the
    stream and ``n_replicates`` and matches ``muse estimate`` at any
    worker count.
    """
    task = MuseReplicateTask(process, reward_spec, schedule, max_level)
    _, values, costs, manifest = run_replicated(task, n_replicates, stream, workers=1)
    return summarize(values, costs, wall_time=manifest.wall_time)


class MuseReplicateTask:
    """Estimator job for the harness.  Forked workers inherit the task, so
    the harness never pickles it; it stays picklable because perfbench's
    tracer pickles it to size its payload counts.

    ``run_block(start, count, stream)`` runs ``count`` replicates as one
    batch on ``stream`` (the replicates are exchangeable, so ``start`` is
    not used); calling the task runs a single replicate on its stream.
    Levels are capped at ``max_level`` unless it is ``None``.
    """

    def __init__(self, process, reward_spec, schedule, max_level=None):
        if max_level is not None:
            check_int(max_level, "max_level", low=0)
        self.process = process
        self.reward_spec = reward_spec
        self.schedule = schedule
        self.max_level = max_level

    def run_block(self, start, count, stream) -> SampleBlock:
        ctx = _compile_context(self.process, self.reward_spec, self.schedule, self.max_level)
        v, c, lv = _run_batch(0, None, count, stream.generator, ctx)
        return SampleBlock(v, lv, c, self.max_level is not None)

    def __call__(self, index, stream) -> EstimatorSample:
        return self.run_block(index, 1, stream)[0]
