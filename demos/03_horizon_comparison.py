"""Unbiased estimator vs the two classical biased baselines.

For i.i.d. standard normals the stopping value solves a one-dimensional
backward recursion, u <- u*Phi(u) + phi(u), so an exact oracle is available
at every horizon.  Two familiar Monte Carlo baselines bracket the problem:

  MC1  averages max_k X_k over sample paths -- it ignores that a stopping
       rule cannot look ahead, so it overshoots systematically;
  MC2  runs backward induction on simulated k-ary trees -- the max over
       finite inner batches pushes it high as well (less so, at a cost).

The randomized-level estimator has no such gap: its error shrinks like
1/sqrt(replicates) around the oracle at every horizon.  The table below
makes the separation visible at desk scale.
"""

import math

from musemc import (
    RandomStream,
    RateSchedule,
    TreeSpec,
    derive_substream,
    estimate_utility,
    gaussian_dp_oracle,
    gaussian_iid,
    identity_reward,
    mc1_estimate,
    mc2_estimate,
)

HORIZONS = (2, 3, 4, 5)
N_REPLICATES = 20_000
MC1_PATHS = 100_000
TREES = 1000
ARITY = 5


def run() -> None:
    reward = identity_reward()
    print(f"{'T':>2} {'oracle':>8} {'muse':>8} {'muse err':>9} {'mc1 bias':>9} {'mc2 bias':>9}")
    for horizon in HORIZONS:
        process = gaussian_iid(horizon)
        oracle = gaussian_dp_oracle(horizon)
        summary = estimate_utility(
            process,
            reward,
            RateSchedule.constant(0.6, horizon),
            n_replicates=N_REPLICATES,
            stream=RandomStream(300 + horizon),
        )
        mc1 = mc1_estimate(process, reward, MC1_PATHS, derive_substream(301, (horizon,)))
        mc2 = mc2_estimate(
            process, reward, TreeSpec(arity=ARITY, forest_size=TREES),
            derive_substream(302, (horizon,)),
        )
        z = (summary.mean - oracle) / summary.std_error
        print(
            f"{horizon:>2} {oracle:>8.4f} {summary.mean:>8.4f} "
            f"{summary.mean - oracle:>+8.4f}{'':1}{mc1 - oracle:>+9.4f} {mc2 - oracle:>+9.4f}"
            f"   (muse z = {z:+.2f})"
        )
    print()
    print(f"mc1 paths = {MC1_PATHS}, mc2 = {TREES} trees of arity {ARITY}.")
    print("mc1/mc2 biases are stable positive offsets; the unbiased column is noise around zero.")
    print(f"(for reference, E[max of 3 normals] = 3/(2*sqrt(pi)) = {3 / (2 * math.sqrt(math.pi)):.4f}, "
          f"which is what mc1 actually estimates at T = 3)")


if __name__ == "__main__":
    run()
