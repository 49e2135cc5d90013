import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import musemc.estimator as est
from musemc.baselines import discrete_dp_oracle
from musemc.estimator import (
    EstimatorSample,
    MuseReplicateTask,
    RateSchedule,
    antithetic_delta,
    estimate_utility,
    multi_stage_muse,
    sample_geometric_level,
    theoretical_rate,
    theoretical_rate_schedule,
    two_stage_muse,
)
from musemc.fixtures import deterministic_chain, two_point_two_stage
from musemc.inference import summarize
from musemc.parallel import BLOCK_SIZE, run_replicated
from musemc.processes import EMPTY_HISTORY, gaussian_iid
from musemc.rewards import identity_reward
from musemc.streams import RandomStream, derive_substream


def stream(*path, seed=0):
    return derive_substream(seed, path)


# ------------------------------------------------------------ rate formulas


def test_theoretical_rate_frozen_values():
    # frozen from evaluating (2 + 9d/(80+40d)) / (2 + d/10) by hand
    assert abs(theoretical_rate(0.2) - 0.5000780) < 1e-7
    assert abs(theoretical_rate(0.1) - 0.5001231) < 1e-7


def test_theoretical_rate_small_moment_limit():
    assert abs(theoretical_rate(1e-9) - 0.5) < 1e-6


def test_theoretical_rate_range_on_grid():
    grid = np.linspace(1e-6, 0.25 - 1e-6, 100)
    rates = np.array([theoretical_rate(d) for d in grid])
    assert np.all(rates > 0.5)
    assert np.all(rates < 1.0)


@pytest.mark.parametrize("bad", [0.0, 0.25, -0.1, 0.3, 1.0])
def test_theoretical_rate_domain(bad):
    with pytest.raises(ValueError):
        theoretical_rate(bad)


def test_schedule_reduces_to_single_rate_at_horizon_two():
    for d in (0.01, 0.1, 0.24):
        sched = theoretical_rate_schedule(d, 2)
        assert sched.rates == (theoretical_rate(d),)


def test_schedule_entries_stay_above_half():
    for d in (0.01, 0.1, 0.24):
        for horizon in range(2, 7):
            sched = theoretical_rate_schedule(d, horizon)
            assert len(sched.rates) == horizon - 1
            assert all(0.5 < r < 1.0 for r in sched.rates)


def test_schedule_nondecreasing_for_moderate_budgets():
    # the stage budgets delta * 10^(i+1-T) grow with i, and the rate formula
    # is increasing on the small-delta side where these land
    for d in (0.01, 0.1, 0.2):
        for horizon in range(2, 7):
            rates = theoretical_rate_schedule(d, horizon).rates
            assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_schedule_metadata():
    sched = theoretical_rate_schedule(0.1, 4)
    assert sched.source == "theoretical"
    assert sched.delta_mom == 0.1
    assert sched.horizon == 4
    with pytest.raises(ValueError):
        theoretical_rate_schedule(0.1, 1)


def test_rate_schedule_validation():
    assert RateSchedule.constant(0.6, 4).rates == (0.6, 0.6, 0.6)
    assert RateSchedule.constant(0.7, 1).rates == ()
    assert RateSchedule.constant(0.7, 1).horizon == 1
    with pytest.raises(ValueError):
        RateSchedule.constant(0.5, 3)
    with pytest.raises(ValueError):
        RateSchedule.constant(1.0, 3)
    with pytest.raises(ValueError):
        RateSchedule(rates=(0.6, 0.4))
    with pytest.raises(ValueError):
        RateSchedule.constant(0.6, 0)


# --------------------------------------------------------------- level cap


def test_level_cap_must_be_a_nonnegative_int():
    proc = gaussian_iid(horizon=2)
    sched = RateSchedule.constant(0.6, 2)
    # a negative, float or bool cap raises instead of running as another cap
    for cap in (-1, 2.5, 3.0, True, False):
        with pytest.raises(ValueError, match="max_level must be an integer >= 0"):
            MuseReplicateTask(proc, identity_reward(), sched, cap)
        with pytest.raises(ValueError, match="max_level must be an integer >= 0"):
            multi_stage_muse(EMPTY_HISTORY, proc, identity_reward(), sched, cap, stream(0))


def test_truncated_pmf_renormalizes():
    mass = est._pmf(0.6, np.arange(5), 4)
    assert abs(mass.sum() - 1.0) < 1e-12
    # proportions match the untruncated law
    raw = est._pmf(0.6, np.arange(5), None)
    assert np.allclose(mass, raw / raw.sum(), rtol=1e-12)


def test_truncated_sampler_respects_cap():
    levels = est._sample_levels(stream(20).generator, 0.55, 50_000, 2)
    assert levels.min() >= 0
    assert levels.max() <= 2
    # frequencies match the renormalized pmf
    want = est._pmf(0.55, np.arange(3), 2)
    got = np.bincount(levels, minlength=3) / levels.size
    assert np.allclose(got, want, atol=0.01)


# ---------------------------------------------------------- level sampling


def test_geometric_level_distribution():
    gen = stream(21).generator
    draws = np.array([sample_geometric_level(0.6, gen) for _ in range(100_000)])
    assert draws.min() >= 0
    assert abs((draws == 0).mean() - 0.6) < 0.005
    assert abs(draws.mean() - 2.0 / 3.0) < 0.02


def test_geometric_level_powers_of_two_mean():
    """E[2^N] = r/(2r-1) = 4/3 at r = 0.8, within 5 standard errors.

    At r = 0.8, E[4^N] = r/(4r-3) = 4 is finite, so Var[2^N] = 4 - 16/9 and
    the sample mean of 1e6 draws is near normal: the bound's false-alarm
    rate is about 6e-7.  (At r <= 3/4, E[4^N] is infinite and no fixed
    tolerance on the sample mean has a stated false-alarm rate.)
    """
    r, n = 0.8, 1_000_000
    levels = est._sample_levels(stream(0, seed=5).generator, r, n, None)
    se = math.sqrt((r / (4 * r - 3) - (r / (2 * r - 1)) ** 2) / n)
    assert abs((2.0**levels).mean() - r / (2 * r - 1)) <= 5 * se


def test_geometric_level_frequencies_match_the_pmf():
    """At r = 0.6 the count of each level 0..9, and of the levels >= 10, is
    within a binomial z-bound of n p_n.  z is Bonferroni-corrected over the
    11 cells for a family-wise false-alarm rate of 1e-6 (normal approximation;
    the smallest expected count is about 100)."""
    r, n, top = 0.6, 1_000_000, 10
    levels = est._sample_levels(stream(1, seed=5).generator, r, n, None)
    counts = np.bincount(np.minimum(levels, top), minlength=top + 1)
    p = r * (1 - r) ** np.arange(top + 1.0)
    p[top] = (1 - r) ** top  # P(N >= top)
    z = np.abs(counts - n * p) / np.sqrt(n * p * (1 - p))
    assert z.max() <= stats.norm.isf(1e-6 / (2 * (top + 1)))


@pytest.mark.parametrize("r", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_batch_levels_are_numpys_geometric_draws(r):
    """The inverse CDF reads one uniform per level, as numpy's search branch
    does for r >= 1/3, and returns the same least n: the draws agree bit for
    bit and both generators end at the same position."""
    ours, theirs = stream(7, seed=31).generator, stream(7, seed=31).generator
    levels = est._sample_levels(ours, r, 1_000_000, None)
    want = theirs.geometric(r, size=1_000_000) - 1
    assert levels.dtype == np.int64
    assert np.array_equal(levels, want)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("r", [0.55, 0.6, 0.9])
def test_scalar_levels_are_numpys_geometric_draws(r):
    ours, theirs = stream(8, seed=31).generator, stream(8, seed=31).generator
    levels = [sample_geometric_level(r, ours) for _ in range(100_000)]
    want = [int(theirs.geometric(r)) - 1 for _ in range(100_000)]
    assert levels == want
    assert ours.random() == theirs.random()


def test_level_draws_at_the_cdf_ends(monkeypatch):
    """u = r draws level 0 (``ceil - 1``; ``floor`` would give 1), u = 0 draws
    0, not -1, and a truncated draw never passes the cap."""

    class Fixed:
        def __init__(self, u):
            self.u = np.asarray(u, dtype=float)

        def random(self, count=None):
            return self.u.copy() if count is not None else float(self.u[0])

    r = 0.6
    uniforms = [0.0, r, 0.5, 1.0 - 2.0**-53]
    levels = est._sample_levels(Fixed(uniforms), r, len(uniforms), None)
    assert levels.tolist() == [0, 0, 0, 40]
    monkeypatch.setattr(est, "as_generator", lambda gen: gen)
    assert [sample_geometric_level(r, Fixed([u])) for u in uniforms] == levels.tolist()
    assert est._sample_levels(Fixed(uniforms), r, len(uniforms), 2).tolist() == [0, 0, 0, 2]


def test_sample_geometric_level_domain():
    with pytest.raises(ValueError):
        sample_geometric_level(0.0, stream(22))
    with pytest.raises(ValueError):
        sample_geometric_level(1.0, stream(22))


# -------------------------------------------------------- antithetic delta


def test_delta_same_side_cancels_exactly():
    assert antithetic_delta(0.0, [1.0, 2.0, 3.0, 4.0]) == 0.0


def test_delta_split_sides():
    assert antithetic_delta(0.0, [2.0, -2.0]) == -1.0


def test_delta_level_zero_base_case():
    assert antithetic_delta(1.0, [3.0]) == 3.0
    assert antithetic_delta(4.0, [3.0]) == 4.0


def test_delta_input_validation():
    with pytest.raises(ValueError):
        antithetic_delta(0.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        antithetic_delta(0.0, [])
    with pytest.raises(ValueError):
        antithetic_delta(0.0, [[1.0, 2.0]])


@st.composite
def _delta_instances(draw):
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    vals = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
            min_size=n,
            max_size=n,
        )
    )
    anchor = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64))
    return anchor, vals


@given(_delta_instances())
@settings(max_examples=300, deadline=None)
def test_delta_dominant_anchor_gives_exact_zero(case):
    anchor, vals = case
    if len(vals) == 1:
        return
    big = max(anchor, max(vals) + 1.0)
    assert antithetic_delta(big, vals) == 0.0


@given(_delta_instances())
@settings(max_examples=300, deadline=None)
@example(case=(-6.343092305170435e-285, [0.0, -2.2172007232386065e-164]))
def test_delta_bounded_by_half_average_gap(case):
    anchor, vals = case
    if len(vals) == 1:
        return
    h = len(vals) // 2
    odd = sum(vals[0::2]) / h
    even = sum(vals[1::2]) / h
    delta = antithetic_delta(anchor, vals)
    gap = 0.5 * abs(odd - even)
    assert abs(delta) <= gap + 1e-9 * (1.0 + gap)
    if (odd >= anchor and even >= anchor) or (odd <= anchor and even <= anchor):
        # both half-averages weakly on one side of the anchor; compared one by
        # one, since the product of the two gaps can underflow to zero
        assert delta == 0.0


# --------------------------------------------------------------- two stage


def test_two_stage_constant_reward_support():
    """With f identically c, the replicate is c/r at N = 0 and exactly 0 above."""
    chain = deterministic_chain((2.5, 2.5))
    r = 0.6
    values, levels = [], []
    for i in range(4000):
        s = two_stage_muse(chain, identity_reward(), r, stream(i, seed=23))
        values.append(s.value)
        levels.append(s.top_level)
        assert s.cost == 1 + 2**s.top_level
        assert not s.biased
    values = np.array(values)
    levels = np.array(levels)
    assert np.array_equal(values == 2.5 / r, levels == 0)
    assert np.all(values[levels > 0] == 0.0)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 2.5) <= 4 * se


def test_two_stage_gaussian_unbiased():
    gen = stream(24).generator
    proc = gaussian_iid(horizon=2)
    samples = [two_stage_muse(proc, identity_reward(), 0.6, gen) for _ in range(20_000)]
    values = np.array([s.value for s in samples])
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 1.0 / math.sqrt(2.0 * math.pi)) <= 4 * se


def test_two_stage_cost_is_exactly_one_plus_children():
    gen = stream(25).generator
    proc = gaussian_iid(horizon=2)
    for _ in range(500):
        s = two_stage_muse(proc, identity_reward(), 0.7, gen)
        assert s.cost == 1 + 2**s.top_level


def test_two_stage_guards():
    with pytest.raises(ValueError):
        two_stage_muse(gaussian_iid(horizon=3), identity_reward(), 0.6, stream(26))
    with pytest.raises(ValueError):
        two_stage_muse(gaussian_iid(horizon=2), identity_reward(), 0.5, stream(26))
    with pytest.raises(ValueError):
        two_stage_muse(gaussian_iid(horizon=2), identity_reward(), 1.0, stream(26))


def _hand_replay(key, r=0.6):
    """The two-stage draws of substream ``(3, key)`` replayed by hand: (N, X_1, the 2^N leaves)."""
    gen = derive_substream(3, key).generator
    drawn = int(gen.geometric(r)) - 1
    return drawn, gen.standard_normal((1, 1))[0, 0], gen.standard_normal((1 << drawn, 1))[:, 0]


def _first_key(wanted, keys=range(10_000)):
    """The first key ``(k,)`` of ``keys``, in order, whose substream has the property ``wanted``."""
    return next((k,) for k in keys if wanted((k,)))


def _replays_exactly_at(level):
    """Does the key draw N = ``level``, with a nonzero correction and leaves whose
    total minus the odd half is exactly the even half?"""
    def wanted(key):
        drawn, anchor, leaves = _hand_replay(key)
        return (drawn == level and leaves.sum() - leaves[0::2].sum() == leaves[1::2].sum()
                and antithetic_delta(anchor, leaves) != 0.0)
    return wanted


@pytest.mark.parametrize("key, level", [(_first_key(_replays_exactly_at(level)), level) for level in (0, 2)])
def test_two_stage_replays_level_then_x1_then_leaves(key, level):
    """Replayed by hand: the level, then X_1, then the 2^N leaves, then delta / P(N).

    Each key is the first whose substream draws the level with a nonzero
    correction, and whose leaves sum so that the total minus the odd half is
    exactly the even half, so both ways of forming the halves agree and only
    the pmf's exp may move the last bit.
    """
    r = 0.6
    s = two_stage_muse(gaussian_iid(horizon=2), identity_reward(), r, derive_substream(3, key))
    drawn, anchor, leaves = _hand_replay(key, r)
    assert drawn == level
    assert leaves.sum() - leaves[0::2].sum() == leaves[1::2].sum()
    want = antithetic_delta(anchor, leaves) / math.exp(math.log(r) + level * math.log1p(-r))
    assert s.top_level == level
    assert s.cost == 1 + 2**level
    assert abs(s.value - want) <= np.spacing(abs(want))
    assert s.value != 0.0


def test_two_stage_chunked_accumulation_is_invariant(monkeypatch):
    """Splitting the leaf block into small chunks must not change the draw."""
    # the first substream whose first level draw is deep (N >= 10: 1024 leaves, 16 chunks of 64)
    key = _first_key(lambda key: sample_geometric_level(0.6, derive_substream(1, key)) >= 10, range(200_000))
    baseline = two_stage_muse(gaussian_iid(horizon=2), identity_reward(), 0.6, derive_substream(1, key))
    assert baseline.top_level >= 10
    monkeypatch.setattr(est, "_MAX_GROUP", 64)
    chunked = two_stage_muse(gaussian_iid(horizon=2), identity_reward(), 0.6, derive_substream(1, key))
    assert chunked.value == baseline.value
    assert chunked.cost == baseline.cost


# -------------------------------------------------------------- multi stage


def test_base_case_is_deterministic():
    chain = deterministic_chain((7.0,))
    sched = RateSchedule.constant(0.6, 1)
    s = multi_stage_muse(EMPTY_HISTORY, chain, identity_reward(), sched, stream=stream(27))
    assert s.value == 7.0
    assert s.cost == 1
    assert s.top_level == 0


def test_final_stage_given_history_is_deterministic():
    chain = deterministic_chain((3.0, 9.0))
    sched = RateSchedule.constant(0.6, 2)
    hist = EMPTY_HISTORY.extended([3.0])
    s = multi_stage_muse(hist, chain, identity_reward(), sched, stream=stream(28))
    assert s.value == 9.0
    assert s.cost == 1


def test_multi_stage_matches_two_stage_in_distribution():
    """At T = 2 the general recursion is the two-stage estimator."""
    proc = gaussian_iid(horizon=2)
    sched = RateSchedule.constant(0.6, 2)
    gen = stream(29).generator
    a = np.array([two_stage_muse(proc, identity_reward(), 0.6, gen).value for _ in range(100_000)])
    summary = estimate_utility(proc, identity_reward(), sched, n_replicates=100_000, stream=RandomStream(30))
    se = math.sqrt(a.var(ddof=1) / a.size + summary.std_error**2)
    assert abs(a.mean() - summary.mean) <= 5 * se


def test_multi_stage_unbiased_on_enumerable_chain():
    chain = two_point_two_stage()
    oracle = discrete_dp_oracle(chain, identity_reward())
    assert oracle == 1.0
    sched = RateSchedule.constant(0.6, 2)
    summary = estimate_utility(chain, identity_reward(), sched, n_replicates=20_000, stream=RandomStream(31))
    assert abs(summary.mean - oracle) <= 4 * summary.std_error


def test_multi_stage_constant_reward_unbiased():
    # at T = 3 the replicate support is richer than {0, c/r} (children are
    # themselves recursive estimates), but the mean must still be c
    chain = deterministic_chain((1.5, 1.5, 1.5))
    sched = RateSchedule.constant(0.6, 3)
    values = []
    for i in range(4000):
        s = multi_stage_muse(EMPTY_HISTORY, chain, identity_reward(), sched, stream=stream(i, seed=32))
        assert math.isfinite(s.value)
        assert s.cost >= 3
        values.append(s.value)
    values = np.array(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 1.5) <= 4 * se


def test_multi_stage_guards():
    proc = gaussian_iid(horizon=3)
    sched = RateSchedule.constant(0.6, 3)
    full = EMPTY_HISTORY.extended([0.0]).extended([0.0]).extended([0.0])
    with pytest.raises(ValueError):  # no level is drawn at the last stage
        multi_stage_muse(full, proc, identity_reward(), sched, stream=stream(33))
    with pytest.raises(ValueError):  # schedule horizon mismatch
        multi_stage_muse(EMPTY_HISTORY, proc, identity_reward(), RateSchedule.constant(0.6, 2), stream=stream(33))


def test_truncated_policy_flags_bias_and_fixes_cost():
    proc = gaussian_iid(horizon=4)
    sched = RateSchedule.constant(0.6, 4)
    for i in range(50):
        s = multi_stage_muse(EMPTY_HISTORY, proc, identity_reward(), sched, 0, stream(i, seed=34))
        assert s.biased
        assert s.top_level == 0
        assert s.cost == 4  # a single path: one draw per stage


def test_exact_zero_survives_chunked_reduction(monkeypatch):
    """Constant rewards cancel exactly even when child blocks are chunked.

    At T = 2 every child is the base-case constant, so the replicate value
    is c/P(N) at N = 0 and exactly zero at any deeper level -- including
    levels wide enough to go through the chunked accumulation path.
    """
    monkeypatch.setattr(est, "_MAX_GROUP", 4)
    chain = deterministic_chain((2.5, 2.5))
    sched = RateSchedule.constant(0.6, 2)
    hit_zero = hit_deep = 0
    for i in range(200):
        s = multi_stage_muse(EMPTY_HISTORY, chain, identity_reward(), sched, stream=stream(i, seed=35))
        if s.top_level == 0:
            assert s.value == 2.5 / 0.6
        else:
            assert s.value == 0.0
            hit_zero += 1
            hit_deep += s.top_level >= 3
    assert hit_zero > 0
    assert hit_deep > 0  # some replicates really went through the wide-block path


def test_tiny_batch_caps_leave_the_mean_alone(monkeypatch):
    """Forcing the chunked big-row path must not move the estimate."""
    proc = gaussian_iid(horizon=3)
    sched = RateSchedule.constant(0.6, 3)
    summary = estimate_utility(proc, identity_reward(), sched, n_replicates=4000, stream=RandomStream(36))
    monkeypatch.setattr(est, "_MAX_GROUP", 16)
    small = estimate_utility(proc, identity_reward(), sched, n_replicates=4000, stream=RandomStream(37))
    se = math.sqrt(summary.std_error**2 + small.std_error**2)
    assert abs(summary.mean - small.mean) <= 5 * se


def test_no_stepper_call_below_the_top_batch_exceeds_the_cap(monkeypatch):
    """Every expansion below the top batch draws at most _MAX_GROUP rows, wide rows included."""
    monkeypatch.setattr(est, "_MAX_GROUP", 16)
    ctx = est._compile_context(gaussian_iid(horizon=3), identity_reward(), RateSchedule.constant(0.6, 3))
    rows = []
    step = ctx.step

    def counting_step(k, parents, count, gen):
        rows.append(count)
        return step(k, parents, count, gen)

    ctx.step = counting_step
    _, _, levels = est._run_batch(0, None, 256, stream(0, seed=43).generator, ctx)
    assert (1 << int(levels.max())) > 16  # the block held a row wider than the cap
    assert rows[0] == 256
    assert max(rows[1:]) <= 16


def _record_odd_half_sums(monkeypatch, rows):
    """Run ``rows`` of children through one two-stage ``_run_batch``; check the halves it forms.

    Each row's children are drawn in order, in as many stepper calls as the
    batch makes.  The half-averages handed to ``_delta`` must match, row by
    row, the odd children (1, 3, 5, ...) summed alone from +0.0 and the
    whole row summed from +0.0, so a nan or inf even child stays out of
    the odd half.  Returns the recorded (odd, even) half-averages in row
    order.
    """
    levels = np.array([len(r).bit_length() - 1 for r in rows], dtype=np.int64)
    children = np.array([v for r in rows for v in r])
    anchors = np.zeros(len(rows))
    drawn = []

    def step(stage, parents, count, gen):
        if stage == 1:
            return anchors[:, None].copy()
        start = sum(drawn)
        drawn.append(count)
        return children[start:start + count, None].copy()

    ctx = est._Context(2, (0.6,), step, lambda stage, x: x[:, 0])
    monkeypatch.setattr(est, "_sample_levels", lambda gen, r, count, max_level: levels)
    halves = []
    delta = est._delta

    def recording_delta(anchor, odd_avg, even_avg):
        halves.append((odd_avg.copy(), even_avg.copy()))
        return delta(anchor, odd_avg, even_avg)

    monkeypatch.setattr(est, "_delta", recording_delta)
    with np.errstate(invalid="ignore", over="ignore"):
        values, _, _ = est._run_batch(0, None, len(rows), None, ctx)
        assert sum(drawn) == children.size
        tot = np.zeros(len(rows))
        odd = np.zeros(len(rows))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                tot[i] += v
                if j % 2 == 0:
                    odd[i] += v
        h = 0.5 * (np.int64(1) << levels)
        got_odd = np.concatenate([o for o, _ in halves])
        got_even = np.concatenate([e for _, e in halves])
        assert got_odd.tobytes() == (odd / h).tobytes()
        assert got_even.tobytes() == ((tot - odd) / h).tobytes()
        full = np.where(levels == 0, np.maximum(anchors, tot), delta(anchors, odd / h, (tot - odd) / h))
        assert values.tobytes() == (full / est._pmf(0.6, levels, None)).tobytes()
    return got_odd, got_even


def test_odd_half_sums_keep_signed_zeros_inf_and_nan(monkeypatch):
    """The odd-half sum equals the sum over the odd children alone, bit for bit.

    Rows of -0.0, +0.0, +-inf and nan children go through ``_run_batch``,
    with multi-child rows starting at odd positions, then at even and odd
    ones, then with a wide row that a cap of 4 splits into four batches
    (its values sum exactly, so its chunked sums must equal its row sums).
    """
    nan, inf = float("nan"), float("inf")
    odd_starts = [
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [-0.0, nan, -0.0, 1.0],
        [inf, -inf, 2.0, 3.0],
        [nan, 0.0, -0.0, 0.0, 1.0, -1.0, 0.5, nan],
        [-inf, inf, -0.0, -0.0, 1.0, 2.0, 3.0, 4.0],
        [1e308, 1e308, 1e308, -1e308],
        [-5.0, inf],
    ]
    odd, _ = _record_odd_half_sums(monkeypatch, odd_starts)
    assert np.signbit(odd[1:3]).tolist() == [False, False]  # -0.0 + -0.0 sums to +0.0
    assert not math.isnan(odd[3])  # the nan child is even
    mixed_starts = [
        [-0.0, nan],
        [-0.0, 1.0, -0.0, inf],
        [-0.0],
        [1.0],
        [0.0, -0.0],
        [inf, nan],
        [-0.0],
        [-inf, 1.0, -0.0, 2.0],
    ]
    odd, even = _record_odd_half_sums(monkeypatch, mixed_starts)
    assert np.signbit(odd[[0, 1, 4]]).tolist() == [False, False, False]
    assert math.isnan(even[0]) and not math.isnan(odd[0])
    assert odd[5] == inf and math.isnan(even[5])
    monkeypatch.setattr(est, "_MAX_GROUP", 4)
    wide = [-0.0, nan, 1.0, -0.0, -0.0, 2.0, 3.0, inf, -0.0, 4.0, 5.0, -0.0, -0.0, 6.0, 7.0, 8.0]
    odd, even = _record_odd_half_sums(monkeypatch, [[-0.0], [-0.0, 1.0], wide, [2.0, -0.0], [3.0]])
    assert odd[2] == (1.0 + 3.0 + 5.0 + 7.0) / 8 and not np.signbit(odd[2])
    assert math.isnan(even[2])


@pytest.mark.parametrize("horizon", [2, 3, 4])
@pytest.mark.parametrize("max_level", [None, 3], ids=["untruncated", "truncated"])
@pytest.mark.parametrize("cap", [None, 4], ids=["default-cap", "cap-4"])
def test_batch_costs_sum_to_the_rows_drawn(monkeypatch, horizon, max_level, cap):
    """A top batch's costs add up to every state draw its stepper made, first draws included."""
    if cap is not None:
        monkeypatch.setattr(est, "_MAX_GROUP", cap)
    ctx = est._compile_context(gaussian_iid(horizon=horizon), identity_reward(), RateSchedule.constant(0.6, horizon), max_level)
    rows = []
    step = ctx.step

    def counting_step(k, parents, count, gen):
        rows.append(count)
        return step(k, parents, count, gen)

    ctx.step = counting_step
    _, costs, levels = est._run_batch(0, None, 256, stream(horizon, seed=44).generator, ctx)
    assert int(costs.sum()) == sum(rows)
    assert levels.max() >= 3  # some rows expanded at least 8 children


def test_group_bounds_partition():
    m = np.array([1, 2, 3, 4], dtype=np.int64)
    assert est._group_bounds(m, 6) == [(0, 3), (3, 4)]
    assert est._group_bounds(m, 100) == [(0, 4)]
    covered = []
    for a, b in est._group_bounds(np.array([5, 5, 5, 5, 5], dtype=np.int64), 9):
        covered.extend(range(a, b))
    assert covered == list(range(5))


# ----------------------------------------------------------- batch estimate


def test_estimate_utility_keys_replicates_like_the_harness():
    # block b of BLOCK_SIZE replicates is one batch on substream (b,); the last block is partial
    proc = gaussian_iid(horizon=3)
    sched = RateSchedule.constant(0.6, 3)
    n = BLOCK_SIZE + 5
    summary = estimate_utility(proc, identity_reward(), sched, n_replicates=n, stream=RandomStream(38))
    ctx = est._compile_context(proc, identity_reward(), sched)
    blocks = [est._run_batch(0, None, count, derive_substream(38, (b,)).generator, ctx)
              for b, count in enumerate((BLOCK_SIZE, 5))]
    values = np.concatenate([v for v, _, _ in blocks])
    costs = np.concatenate([c for _, c, _ in blocks])
    assert summary.n == n
    assert summary.mean == summarize(values, costs).mean
    assert summary.variance == summarize(values, costs).variance
    assert summary.total_cost == int(costs.sum())
    _, harness_values, _, _ = run_replicated(MuseReplicateTask(proc, identity_reward(), sched), n, 38, workers=1)
    assert np.array_equal(harness_values, values)


def test_group_bounds_matches_the_row_loop():
    def row_loop(m, cap):
        bounds, a, acc = [], 0, 0
        for i, mi in enumerate(m):
            if acc + mi > cap and i > a:
                bounds.append((a, i))
                a, acc = i, 0
            acc += int(mi)
        bounds.append((a, m.size))
        return bounds

    rng = np.random.default_rng(44)
    for _ in range(300):
        m = np.int64(1) << rng.geometric(0.4, size=int(rng.integers(1, 60))).astype(np.int64)
        cap = int(rng.choice([1, 2, 7, 16, 64, 1 << 10]))
        assert est._group_bounds(m, cap) == row_loop(m, cap)


def test_estimate_utility_accepts_int_seed():
    proc = gaussian_iid(horizon=2)
    sched = RateSchedule.constant(0.6, 2)
    a = estimate_utility(proc, identity_reward(), sched, n_replicates=10, stream=39)
    b = estimate_utility(proc, identity_reward(), sched, n_replicates=10, stream=RandomStream(39))
    assert a.mean == b.mean


def test_estimate_utility_guards():
    proc = gaussian_iid(horizon=2)
    sched = RateSchedule.constant(0.6, 2)
    with pytest.raises(ValueError):
        estimate_utility(proc, identity_reward(), sched, n_replicates=0, stream=40)
    with pytest.raises(TypeError):
        estimate_utility(proc, identity_reward(), sched, n_replicates=1, stream=None)
    with pytest.raises(TypeError):
        estimate_utility(proc, identity_reward(), sched, n_replicates=1, stream=np.random.default_rng(0))
    with pytest.raises(TypeError):
        estimate_utility(proc, identity_reward(), sched, n_replicates=1, stream=3.7)


def test_replicate_task_matches_direct_call():
    proc = gaussian_iid(horizon=3)
    sched = RateSchedule.constant(0.6, 3)
    task = MuseReplicateTask(proc, identity_reward(), sched)
    block = task.run_block(0, 7, derive_substream(41, (2,)))
    ctx = est._compile_context(proc, identity_reward(), sched)
    values, costs, levels = est._run_batch(0, None, 7, derive_substream(41, (2,)).generator, ctx)
    assert len(block) == 7
    assert np.array_equal(block.values, values)
    assert np.array_equal(block.costs, costs)
    assert np.array_equal(block.top_levels, levels)
    assert block[3] == EstimatorSample(float(values[3]), int(levels[3]), int(costs[3]))
    # a one-replicate block is exactly one multi_stage_muse replicate
    direct = multi_stage_muse(EMPTY_HISTORY, proc, identity_reward(), sched, stream=derive_substream(41, (2,)))
    via_task = task(2, derive_substream(41, (2,)))
    assert via_task == EstimatorSample(direct.value, direct.top_level, direct.cost)


def test_replicate_task_pickles_without_context():
    import pickle

    task = MuseReplicateTask(gaussian_iid(horizon=2), identity_reward(), RateSchedule.constant(0.6, 2))
    task.run_block(0, BLOCK_SIZE, stream(42))  # a task that has run keeps no state of the run
    clone = pickle.loads(pickle.dumps(task))
    assert np.array_equal(clone.run_block(0, BLOCK_SIZE, stream(42)).values, task.run_block(0, BLOCK_SIZE, stream(42)).values)
