import math

import numpy as np
import pytest
from scipy.special import ndtri

import musemc.estimator as est
import musemc.policy as pol
from musemc.estimator import RateSchedule
from musemc.fixtures import deterministic_chain, mixing_three_stage
from musemc.parallel import BLOCK_SIZE
from musemc.policy import (
    CONTINUE,
    FORCED,
    STOP,
    PolicyConfig,
    PolicyEpisodeTask,
    StageDecision,
    decide_stop,
    run_episode,
    run_stopping_policy,
)
from musemc.processes import gaussian_iid
from musemc.rewards import identity_reward
from musemc.streams import RandomStream, derive_substream


def config(horizon, inner=50, tolerance=None, alpha=0.05):
    return PolicyConfig(schedule=RateSchedule.constant(0.6, horizon), inner_replicates=inner, tolerance=tolerance, alpha=alpha)


# ------------------------------------------------------------ single decision


def test_decide_stop_on_dominant_immediate_reward():
    chain = deterministic_chain((5.0, 1.0))
    hist = ([5.0],)
    stop, decision = decide_stop(hist, 5.0, chain, identity_reward(), config(2), derive_substream(0, (80,)))
    assert stop
    assert decision.decision == STOP
    assert decision.y_bar == 1.0  # the continuation is exactly the final value
    assert decision.std_error == 0.0


def test_decide_stop_waits_for_a_dominant_continuation():
    # continuation value 12 vs immediate 2: continue, for any of 100 seeds
    chain = deterministic_chain((2.0, 12.0))
    hist = ([2.0],)
    for seed in range(100):
        stop, decision = decide_stop(
            hist, 2.0, chain, identity_reward(), config(2, tolerance=0.5), derive_substream(seed, (81,))
        )
        assert not stop
        assert decision.decision == CONTINUE


def test_decide_stop_guards():
    chain = deterministic_chain((5.0, 1.0))
    hist = ([5.0],)
    full = hist + ([1.0],)
    with pytest.raises(ValueError):
        decide_stop(full, 1.0, chain, identity_reward(), config(2), derive_substream(0, (82,)))
    # the history is validated as multi_stage_muse validates it; an i.i.d.
    # Gaussian stepper ignores its parents, so nothing downstream would catch these
    for state in ([0.5, 1.0], [float("nan")]):
        with pytest.raises(ValueError, match="history state at stage 1"):
            decide_stop((state,), 0.5, gaussian_iid(horizon=2), identity_reward(), config(2), derive_substream(0, (82,)))


def test_row_wise_decisions_match_one_row_reductions():
    """Each row's mean and se equal the 1-d reductions of its slice of one inner batch."""
    proc = mixing_three_stage()
    cfg = config(3, inner=7)
    ctx = est._compile_context(proc, identity_reward(), cfg.schedule)
    states = np.array([[-2.0], [-1.0], [1.0], [2.0], [1.0]])
    fx = np.array([0.5, 0.0, 1.5, 1.0, -0.5])
    stop, decisions, costs = pol._decide(states, 1, fx, cfg, RandomStream(97).generator, ctx)
    values, batch_costs, _ = est._run_batch(1, (states, 7), 35, RandomStream(97).generator, ctx)
    z = float(ndtri(1.0 - cfg.alpha / 2.0))
    for i, d in enumerate(decisions):
        row = values[7 * i:7 * (i + 1)]
        assert (d.stage, d.fx) == (1, fx[i])
        assert d.y_bar == float(row.mean())
        assert d.std_error == float(row.std(ddof=1)) / math.sqrt(7)
        assert costs[i] == int(batch_costs[7 * i:7 * (i + 1)].sum())
        assert stop[i] == (fx[i] > d.y_bar - z * d.std_error)
        assert d.decision == (STOP if stop[i] else CONTINUE)
    assert set(stop.tolist()) == {True, False}


# ----------------------------------------------------------------- episodes


def test_stop_immediately_on_descending_chain():
    chain = deterministic_chain((5.0, 1.0))
    outcomes, summary = run_stopping_policy(chain, identity_reward(), config(2), 20, RandomStream(83))
    for o in outcomes:
        assert o.tau == 1
        assert o.realized_reward == 5.0
        assert len(o.diagnostics) == 1
        assert o.diagnostics[0].decision == STOP
    assert summary.mean == 5.0


def test_wait_for_the_late_peak():
    chain = deterministic_chain((1.0, 5.0))
    outcomes, summary = run_stopping_policy(chain, identity_reward(), config(2), 20, RandomStream(84))
    for o in outcomes:
        assert o.tau == 2
        assert o.realized_reward == 5.0
        assert [d.decision for d in o.diagnostics] == [CONTINUE, FORCED]
    assert summary.mean == 5.0


def test_middle_peak_three_stages():
    chain = deterministic_chain((2.0, 3.0, 1.0))
    outcomes, _ = run_stopping_policy(chain, identity_reward(), config(3, inner=2000), 50, RandomStream(85))
    for o in outcomes:
        assert o.tau == 2
        assert o.realized_reward == 3.0


def test_infinite_tolerance_stops_blind():
    proc = gaussian_iid(horizon=3)
    outcomes, _ = run_stopping_policy(proc, identity_reward(), config(3, tolerance=math.inf), 10, RandomStream(86))
    for o in outcomes:
        assert o.tau == 1
        assert o.inner_cost == 0
        assert math.isnan(o.diagnostics[0].y_bar)
        assert o.diagnostics[0].decision == STOP


def test_single_stage_horizon_always_forced():
    chain = deterministic_chain((4.0,))
    outcomes, summary = run_stopping_policy(chain, identity_reward(), config(1), 5, RandomStream(87))
    for o in outcomes:
        assert o.tau == 1
        assert o.diagnostics[0].decision == FORCED
    assert summary.mean == 4.0


def test_diagnostics_cover_exactly_the_visited_stages():
    proc = gaussian_iid(horizon=4)
    outcomes, _ = run_stopping_policy(proc, identity_reward(), config(4, inner=20), 40, RandomStream(88))
    for o in outcomes:
        assert len(o.diagnostics) == o.tau
        for stage, d in enumerate(o.diagnostics, start=1):
            assert d.stage == stage
        if o.tau == proc.horizon:
            assert o.diagnostics[-1].decision in (STOP, FORCED)
        else:
            assert o.diagnostics[-1].decision == STOP


def test_paths_do_not_depend_on_inner_batch_size():
    """Inner estimation draws must never perturb the episode's own path."""
    proc = gaussian_iid(horizon=3)
    small = [run_episode(proc, identity_reward(), config(3, inner=5), e, RandomStream(89, (e,))) for e in range(20)]
    large = [run_episode(proc, identity_reward(), config(3, inner=500), e, RandomStream(89, (e,))) for e in range(20)]
    for a, b in zip(small, large):
        assert a.diagnostics[0].fx == b.diagnostics[0].fx


def test_harness_paths_do_not_depend_on_decisions():
    """In a block, every path is drawn whatever the decisions, inner batch size or tolerance."""
    proc = gaussian_iid(horizon=3)
    runs = []
    for inner in (5, 500):
        for eps in (0.0, 0.5, 2.0):
            outcomes, _ = run_stopping_policy(
                proc, identity_reward(), config(3, inner=inner, tolerance=eps), BLOCK_SIZE + 4, RandomStream(89)
            )
            runs.append(outcomes)
    first = runs[0]
    for outcomes in runs[1:]:
        assert [o.diagnostics[0].fx for o in outcomes] == [o.diagnostics[0].fx for o in first]
        for a, b in zip(first, outcomes):  # later stages too, where both episodes got there
            for da, db in zip(a.diagnostics, b.diagnostics):
                assert da.fx == db.fx


def test_tau_is_monotone_in_tolerance():
    """For a fixed seed, a larger slack never stops later.

    A lone episode sees the same inner draws at every tolerance, so its tau
    is monotone.  In a block the stage-k inner batches share one substream
    among the episodes still running, so only the stage-1 batches (all
    episodes run there) are the same at every tolerance: an episode that
    stops at stage 1 under some slack stops there under any larger one.
    """
    proc = gaussian_iid(horizon=4)
    tolerances = (0.0, 0.5, 2.0, math.inf)
    alone, block = {}, {}
    for eps in tolerances:
        cfg = config(4, inner=40, tolerance=eps)
        alone[eps] = [run_episode(proc, identity_reward(), cfg, e, RandomStream(90, (e,))).tau for e in range(30)]
        outcomes, _ = run_stopping_policy(proc, identity_reward(), cfg, 30, RandomStream(90))
        block[eps] = [o.tau for o in outcomes]
    for small, large in zip(tolerances, tolerances[1:]):
        assert all(b <= a for a, b in zip(alone[small], alone[large]))
        assert all(b == 1 for a, b in zip(block[small], block[large]) if a == 1)
    assert all(t == 1 for t in alone[math.inf] + block[math.inf])
    assert block[0.0] != block[2.0]  # the slack does change decisions at this seed


def test_episodes_are_reproducible():
    proc = gaussian_iid(horizon=3)
    a = run_episode(proc, identity_reward(), config(3), 4, RandomStream(91, (4,)))
    b = run_episode(proc, identity_reward(), config(3), 4, RandomStream(91, (4,)))
    assert a == b


def test_forced_episodes_compare_equal_and_hash_alike():
    """A forced stop's nan diagnostics compare equal to themselves, so replays of it do."""
    proc = gaussian_iid(horizon=3)
    cfg = config(3, tolerance=0.0)
    runs = [run_episode(proc, identity_reward(), cfg, e, derive_substream(96, (e,))) for e in range(8)]
    forced = next(o for o in runs if o.diagnostics[-1].decision == FORCED)
    assert math.isnan(forced.diagnostics[-1].y_bar)
    again = run_episode(proc, identity_reward(), cfg, forced.episode, derive_substream(96, (forced.episode,)))
    assert again == forced and hash(again) == hash(forced)
    assert len({forced, again}) == 1
    last = forced.diagnostics[-1]
    assert last == StageDecision(last.stage, last.fx, float("nan"), float("nan"), FORCED)
    assert last != StageDecision(last.stage, last.fx, 0.0, float("nan"), FORCED)
    assert last != StageDecision(last.stage, last.fx, float("nan"), float("nan"), STOP)
    assert forced != runs[(runs.index(forced) + 1) % len(runs)]


def test_policy_summary_accounts_costs():
    proc = gaussian_iid(horizon=3)
    outcomes, summary = run_stopping_policy(proc, identity_reward(), config(3, inner=10), 25, RandomStream(92))
    assert summary.n == 25
    assert summary.total_cost == sum(o.inner_cost for o in outcomes)
    assert summary.mean == np.mean([o.realized_reward for o in outcomes])


def test_episode_task_matches_run_episode():
    """The harness runs block b of the episodes as one task block on substream (b,)."""
    proc = gaussian_iid(horizon=3)
    task = PolicyEpisodeTask(proc, identity_reward(), config(3))
    outcomes, _ = run_stopping_policy(proc, identity_reward(), config(3), BLOCK_SIZE + 7, RandomStream(93))
    assert [o.episode for o in outcomes] == list(range(BLOCK_SIZE + 7))
    assert task.run_block(0, BLOCK_SIZE, derive_substream(93, (0,))) == outcomes[:BLOCK_SIZE]
    assert task.run_block(BLOCK_SIZE, 7, derive_substream(93, (1,))) == outcomes[BLOCK_SIZE:]


def test_run_episode_is_a_block_of_one():
    proc = gaussian_iid(horizon=3)
    task = PolicyEpisodeTask(proc, identity_reward(), config(3, inner=30))
    taus = set()
    for e in range(12):
        direct = run_episode(proc, identity_reward(), config(3, inner=30), e, derive_substream(93, (e,)))
        assert task.run_block(e, 1, derive_substream(93, (e,))) == [direct]
        taus.add(direct.tau)
    assert taus == {1, 2, 3}


def test_policy_batches_stay_under_the_cap(monkeypatch):
    cap = 64
    monkeypatch.setattr(est, "_MAX_GROUP", cap)
    monkeypatch.setattr(pol, "_MAX_GROUP", cap)
    run_batch = pol._run_batch
    widths = []
    inners = []

    def recording(k, parents, count, gen, ctx):
        states, repeats = parents  # one state row per episode of the group, never a per-draw array
        widths.append(count)
        inners.append(repeats)
        assert states.shape == (count // repeats, proc.dimension)
        return run_batch(k, parents, count, gen, ctx)

    monkeypatch.setattr(pol, "_run_batch", recording)
    proc = gaussian_iid(horizon=3)
    for inner in (5, cap, 100):
        widths.clear()
        inners.clear()
        outcomes, _ = run_stopping_policy(proc, identity_reward(), config(3, inner=inner), 40, RandomStream(96))
        assert max(widths) <= max(cap, inner)
        assert max(widths) == max(cap // inner, 1) * inner  # full batches of whole episodes
        assert sum(widths) == inner * sum(o.tau - (o.tau == proc.horizon) for o in outcomes)
        assert inners == [inner] * len(widths)


def test_config_validation():
    sched = RateSchedule.constant(0.6, 3)
    with pytest.raises(ValueError):
        PolicyConfig(schedule=sched, inner_replicates=0)
    with pytest.raises(ValueError):
        PolicyConfig(schedule=sched, inner_replicates=10, tolerance=-0.1)
    with pytest.raises(ValueError):
        PolicyConfig(schedule=sched, inner_replicates=10, alpha=0.0)
    assert PolicyConfig(schedule=sched, inner_replicates=10).adaptive
    assert not PolicyConfig(schedule=sched, inner_replicates=10, tolerance=0.0).adaptive


def test_run_stopping_policy_guards():
    proc = gaussian_iid(horizon=2)
    with pytest.raises(ValueError):
        run_stopping_policy(proc, identity_reward(), config(2), 0, RandomStream(94))
    with pytest.raises(TypeError):
        run_stopping_policy(proc, identity_reward(), config(2), 1, None)
