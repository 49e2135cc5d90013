import math
import tracemalloc

import numpy as np
import pytest

import musemc.inference as inf
from musemc.inference import (
    BOOTSTRAP_PERCENTILE,
    CLT,
    bootstrap_ci,
    clt_ci,
    normal_quantile,
    self_normalized_variance,
    summarize,
    summary_to_json,
)
from musemc.streams import RandomStream, derive_substream


# ----------------------------------------------------------------- summarize


def test_summarize_constant_batch():
    s = summarize([3.0, 3.0, 3.0], [1, 1, 1])
    assert s.mean == 3.0
    assert s.variance == 0.0
    assert s.std_error == 0.0
    assert not s.degenerate


def test_summarize_hand_example():
    s = summarize([1.0, 2.0, 3.0, 4.0], [2, 2, 2, 2])
    assert s.n == 4
    assert s.mean == 2.5
    assert s.variance == 5.0 / 3.0
    assert abs(s.std_error - 0.6454972243679028) < 1e-15
    assert s.total_cost == 8


def test_summarize_singleton_is_degenerate():
    s = summarize([7.5], [3])
    assert s.mean == 7.5
    assert s.variance == 0.0
    assert s.degenerate


def test_summarize_total_cost_is_exact():
    costs = np.array([10**12, 3, 4], dtype=np.int64)
    s = summarize([0.0, 1.0, 2.0], costs)
    assert s.total_cost == int(costs.sum())


def test_summarize_blockwise_matches_direct():
    """One two-pass reduction at every size: bit-equal to numpy's mean and ddof=1 variance."""
    for n in (10_000, 100_000):
        gen = derive_substream(0, (70,)).generator
        values = gen.standard_normal(n) * 3.0 + 1.0
        s = summarize(values, np.ones(values.size))
        assert s.mean == values.mean()
        assert s.variance == np.var(values, ddof=1)


def test_summarize_guards():
    with pytest.raises(ValueError):
        summarize([], [])
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        summarize(np.zeros((2, 2)), np.zeros((2, 2)))


def test_summarize_keeps_wall_time():
    assert summarize([1.0], [1], wall_time=2.5).wall_time == 2.5


# ------------------------------------------------------------------- CLT CI


def test_clt_ci_hand_example():
    s = summarize([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
    ci = clt_ci(s, alpha=0.05)
    assert ci.method == CLT
    assert ci.level == 0.95
    # z_{0.025} is a known constant; the interval is mean -/+ z * se
    z = 1.9599639845400545
    assert abs(ci.lo - (2.5 - z * s.std_error)) < 1e-12
    assert abs(ci.hi - (2.5 + z * s.std_error)) < 1e-12
    assert abs(ci.lo - 1.2348) < 5e-5
    assert abs(ci.hi - 3.7652) < 5e-5


def test_normal_quantile_is_the_clt_half_width():
    from scipy.special import ndtri

    assert abs(normal_quantile(0.05) - 1.9599639845400545) < 1e-15
    s = summarize([1.0, 2.0, 4.0, 8.0], [1, 1, 1, 1])
    for alpha in (0.01, 0.05, 0.32, 1.0):
        assert normal_quantile(alpha) == float(ndtri(1.0 - alpha / 2.0))
        assert clt_ci(s, alpha=alpha).hi == s.mean + normal_quantile(alpha) * s.std_error


def test_clt_ci_zero_variance():
    ci = clt_ci(summarize([2.0, 2.0], [1, 1]))
    assert ci.lo == ci.hi == 2.0
    assert ci.degenerate


def test_clt_ci_alpha_one_collapses():
    s = summarize([1.0, 2.0, 3.0], [1, 1, 1])
    ci = clt_ci(s, alpha=1.0)
    assert ci.lo == ci.hi == s.mean
    assert ci.level == 0.0


def test_clt_ci_width_scales_like_z():
    s = summarize([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
    wide = clt_ci(s, alpha=0.01)
    narrow = clt_ci(s, alpha=0.32)
    assert (wide.hi - wide.lo) > (narrow.hi - narrow.lo) > 0


def test_clt_ci_guards():
    s = summarize([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        clt_ci(s, alpha=0.0)
    with pytest.raises(ValueError):
        clt_ci(s, alpha=1.5)


# --------------------------------------------------------------- bootstrap


def _reference_bootstrap_means(values, resamples, stream):
    """Sorted resample means, re-derived block by block: block c is one (kc, n) draw on stream.child(c)."""
    ordered = np.sort(values)
    n = ordered.size
    k = max(1, inf._BLOCK // n)
    means = []
    for c in range(math.ceil(resamples / k)):
        kc = min(k, resamples - c * k)
        idx = stream.child(c).generator.integers(0, n, size=(kc, n))
        means.extend(ordered[row].mean() for row in idx)
    return np.sort(np.array(means))


def _assert_matches_reference(values, alpha, resamples, stream):
    ci = bootstrap_ci(values, alpha=alpha, resamples=resamples, stream=stream)
    means = _reference_bootstrap_means(values, resamples, stream)
    assert means.size == resamples
    lo = means[max(1, math.ceil(alpha / 2 * resamples)) - 1]
    hi = means[min(resamples, math.ceil((1 - alpha / 2) * resamples)) - 1]
    assert ci.lo == lo
    assert ci.hi == hi
    assert ci.method == BOOTSTRAP_PERCENTILE
    assert ci.lo in means and ci.hi in means  # endpoints are resample means


def test_bootstrap_matches_reference_implementation():
    """Freeze the block keying and quantile conventions against a re-derivation."""
    values = derive_substream(0, (71,)).generator.standard_normal(200)
    assert inf._BLOCK // 200 > 250  # every resample falls into block 0
    _assert_matches_reference(values, 0.1, 250, RandomStream(9, (4,)))


def test_bootstrap_partial_last_block_matches_reference():
    """n = 200 gives blocks of 327 resamples: 1000 resamples are blocks of 327, 327, 327 and 19."""
    values = derive_substream(0, (74,)).generator.standard_normal(200)
    assert inf._BLOCK // 200 == 327
    _assert_matches_reference(values, 0.05, 1000, RandomStream(9, (5,)))


def test_bootstrap_blocks_of_one_resample_keep_the_old_keying():
    """Above _BLOCK // 2 values a block is one resample, drawn as resample b's own (b,) substream always was."""
    n, resamples = 40_000, 100
    assert inf._BLOCK // n == 1
    values = derive_substream(0, (75,)).generator.standard_normal(n)
    stream = RandomStream(9, (6,))
    ci = bootstrap_ci(values, alpha=0.05, resamples=resamples, stream=stream)
    ordered = np.sort(values)
    means = np.sort([ordered[stream.child(b).generator.integers(0, n, size=n)].mean() for b in range(resamples)])
    assert ci.lo == means[math.ceil(0.025 * resamples) - 1]
    assert ci.hi == means[math.ceil(0.975 * resamples) - 1]


def test_bootstrap_memory_is_bounded_by_the_block():
    """Indices are drawn one block at a time, never as one (resamples, n) matrix (160 MB here)."""
    n = 200_000
    values = derive_substream(0, (76,)).generator.standard_normal(n)
    tracemalloc.start()
    try:
        bootstrap_ci(values, resamples=100, stream=RandomStream(9, (7,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8


def test_bootstrap_is_deterministic_and_order_free():
    gen = derive_substream(0, (72,)).generator
    values = gen.standard_normal(150)
    a = bootstrap_ci(values, stream=RandomStream(5))
    b = bootstrap_ci(values, stream=RandomStream(5))
    shuffled = values.copy()
    derive_substream(0, (73,)).generator.shuffle(shuffled)
    c = bootstrap_ci(shuffled, stream=RandomStream(5))
    assert a == b == c


def test_bootstrap_constant_values():
    ci = bootstrap_ci([4.0] * 50, stream=RandomStream(6))
    assert ci.lo == ci.hi == 4.0
    assert ci.degenerate


def test_bootstrap_coverage():
    """~95% of nominal-95% intervals over iid normal batches should cover 0."""
    hits = 0
    for rep in range(100):
        values = derive_substream(11, (rep,)).generator.standard_normal(10_000)
        ci = bootstrap_ci(values, alpha=0.05, resamples=1000, stream=RandomStream(12, (rep,)))
        hits += ci.lo <= 0.0 <= ci.hi
    assert hits >= 93


def test_bootstrap_guards():
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], stream=RandomStream(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], alpha=1.0, stream=RandomStream(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], resamples=50, stream=RandomStream(0))
    with pytest.raises(TypeError):
        bootstrap_ci([1.0, 2.0], stream=None)
    with pytest.raises(TypeError):
        bootstrap_ci([1.0, 2.0], stream=np.random.default_rng(0))


# -------------------------------------------------- self-normalized variance


def test_snv_unit_costs_equal_variance():
    values = [1.0, 2.0, 3.0, 4.0]
    assert self_normalized_variance(values, [1, 1, 1, 1]) == np.var(values, ddof=1)


def test_snv_linear_in_mean_cost():
    values = [0.5, 1.5, -2.0]
    once = self_normalized_variance(values, [2, 3, 4])
    twice = self_normalized_variance(values, [4, 6, 8])
    assert abs(twice - 2.0 * once) < 1e-12


def test_snv_singleton_and_guards():
    assert self_normalized_variance([5.0], [9]) == 0.0
    with pytest.raises(ValueError):
        self_normalized_variance([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        self_normalized_variance([], [])


# -------------------------------------------------------------------- JSON


def test_summary_to_json_schema():
    s = summarize([1.0, 2.0], [3, 4], wall_time=0.25)
    ci = clt_ci(s)
    payload = summary_to_json(s, ci)
    assert set(payload) == {
        "n",
        "mean",
        "variance",
        "std_error",
        "ci_lo",
        "ci_hi",
        "ci_method",
        "level",
        "total_cost",
        "wall_time_s",
    }
    assert payload["n"] == 2
    assert payload["mean"] == 1.5
    assert payload["ci_method"] == "clt"
    assert payload["total_cost"] == 7
    assert payload["wall_time_s"] == 0.25
