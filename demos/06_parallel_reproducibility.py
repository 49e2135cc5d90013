"""Bit-reproducible replication, sequential or parallel.

Unbiased replicates are embarrassingly parallel: averages over workers need
no synchronization or bias correction.  The harness cuts a run into blocks
of BLOCK_SIZE replicates and keys block b to the substream (b,) of a single
master seed, running each block as one vectorized batch.  The numbers a
replicate sees depend only on its index, the block size and the run
length -- not on which worker claimed its block, or the worker count.
This script runs the same 2 000-replicate job three ways and checks the
per-replicate values agree to the last bit, then shows the run manifest
that records everything needed to reproduce the batch, block size
included.
"""

import numpy as np

from musemc import (
    MuseReplicateTask,
    RateSchedule,
    RunManifest,
    gaussian_iid,
    identity_reward,
    run_replicated,
)

N_REPLICATES = 2_000
SEED = 77


def run() -> None:
    task = MuseReplicateTask(gaussian_iid(3), identity_reward(), RateSchedule.constant(0.6, 3))

    runs = {}
    for workers in (1, 2, 4):
        _, values, costs, _ = run_replicated(task, N_REPLICATES, SEED, workers=workers)
        runs[workers] = values
        print(f"workers={workers}: mean {values.mean():.6f}, total cost {int(costs.sum())}")

    same_12 = bool(np.array_equal(runs[1], runs[2]))
    same_14 = bool(np.array_equal(runs[1], runs[4]))
    print(f"\nper-replicate values identical across worker counts: "
          f"1 vs 2 -> {same_12}, 1 vs 4 -> {same_14}")

    _, _, _, manifest = run_replicated(task, N_REPLICATES, SEED, workers=2)
    assert isinstance(manifest, RunManifest)
    print("\nrun manifest (what a pinned rerun needs):")
    for key, value in manifest.to_json().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    run()
