import json
import os

import numpy as np
import pytest

from musemc.estimator import MuseReplicateTask, RateSchedule
from musemc.fixtures import two_point_two_stage
from musemc.parallel import (
    BLOCK_SIZE,
    ReplicateError,
    map_replicated,
    resolve_workers,
    run_replicated,
)
from musemc.rewards import identity_reward
from musemc.streams import derive_substream


def fixture_task():
    return MuseReplicateTask(two_point_two_stage(), identity_reward(), RateSchedule.constant(0.6, 2))


class EchoTask:
    """Picklable block task returning (index, draw) per item -- enough to audit keying."""

    def run_block(self, start, count, stream):
        return list(zip(range(start, start + count), stream.generator.random(count).tolist()))


class FailAt:
    def __init__(self, bad_index):
        self.bad_index = bad_index

    def run_block(self, start, count, stream):
        if start <= self.bad_index < start + count:
            raise ValueError("synthetic divergence")
        return list(range(start, start + count))


def test_results_are_ordered_and_keyed_by_index():
    n = 2 * BLOCK_SIZE + 3
    results, manifest = map_replicated(EchoTask(), n, seed=17, workers=1, chunk_size=3)
    assert [len(block) for block in results] == [BLOCK_SIZE, BLOCK_SIZE, 3]
    for b, block in enumerate(results):
        draws = derive_substream(17, (b,)).generator.random(len(block)).tolist()
        assert block == list(zip(range(b * BLOCK_SIZE, b * BLOCK_SIZE + len(block)), draws))
    assert manifest.total_replicates == n
    assert manifest.chunk_size == BLOCK_SIZE  # a request is rounded up to whole blocks
    assert manifest.block_size == BLOCK_SIZE


def test_single_and_multi_worker_agree_exactly():
    n = 2 * BLOCK_SIZE + 3
    a, _ = map_replicated(EchoTask(), n, seed=5, workers=1)
    b, _ = map_replicated(EchoTask(), n, seed=5, workers=2, chunk_size=1)
    assert a == b


def test_chunk_size_never_changes_results():
    task = fixture_task()
    n = 2 * BLOCK_SIZE + 3
    base, _, _, manifest = run_replicated(task, n, seed=6, workers=1, chunk_size=1)
    assert manifest.chunk_size == BLOCK_SIZE  # chunks hold whole blocks
    for chunk in (BLOCK_SIZE + 1, 2 * BLOCK_SIZE, n, None):
        again, _, _, manifest = run_replicated(task, n, seed=6, workers=1, chunk_size=chunk)
        assert manifest.chunk_size % BLOCK_SIZE == 0
        assert np.array_equal(again.values, base.values)
        assert np.array_equal(again.top_levels, base.top_levels)
        assert np.array_equal(again.costs, base.costs)


def test_estimator_task_parallel_equals_sequential():
    task = fixture_task()
    n = 2 * BLOCK_SIZE + 3
    samples, values1, costs1, _ = run_replicated(task, n, seed=8, workers=1)
    _, values2, costs2, _ = run_replicated(task, n, seed=8, workers=2, chunk_size=5)
    assert np.array_equal(values1, values2)
    assert np.array_equal(costs1, costs2)
    assert costs1.sum() > 0
    # block b is one batch of BLOCK_SIZE replicates (3 in the last) on substream (b,)
    assert len(samples) == n
    for b, count in enumerate((BLOCK_SIZE, BLOCK_SIZE, 3)):
        block = task.run_block(b * BLOCK_SIZE, count, derive_substream(8, (b,)))
        assert np.array_equal(values1[b * BLOCK_SIZE:b * BLOCK_SIZE + count], block.values)
        assert np.array_equal(costs1[b * BLOCK_SIZE:b * BLOCK_SIZE + count], block.costs)


def test_workers_env_wins(monkeypatch):
    monkeypatch.setenv("MUSE_WORKERS", "3")
    assert resolve_workers(8) == 3
    assert resolve_workers(None) == 3
    monkeypatch.setenv("MUSE_WORKERS", "")
    assert resolve_workers(2) == 2
    monkeypatch.delenv("MUSE_WORKERS")
    assert resolve_workers(2) == 2
    assert resolve_workers(None) == (os.cpu_count() or 1)
    assert resolve_workers(0) == 1


def test_fail_fast_reports_the_replicate_index():
    with pytest.raises(ReplicateError) as err:
        map_replicated(FailAt(BLOCK_SIZE + 13), 2 * BLOCK_SIZE, seed=0, workers=1)
    assert err.value.index == BLOCK_SIZE  # the first index of the failing block
    assert "in block 1" in str(err.value)
    assert "synthetic divergence" in str(err.value)


def test_fail_fast_reports_the_first_replicate_of_the_block():
    with pytest.raises(ReplicateError) as err:
        map_replicated(FailAt(5), BLOCK_SIZE + 1, seed=0, workers=1)
    assert err.value.index == 0
    assert "in block 0" in str(err.value)


def test_a_stream_root_keys_items_below_its_path():
    results, _ = map_replicated(EchoTask(), 4, seed=derive_substream(17, (3,)), workers=1)
    assert [draw for _, draw in results[0]] == derive_substream(17, (3, 0)).generator.random(4).tolist()


def test_fail_fast_across_processes():
    with pytest.raises(ReplicateError) as err:
        map_replicated(FailAt(BLOCK_SIZE + 3), 4 * BLOCK_SIZE, seed=0, workers=2, chunk_size=1)
    assert err.value.index == BLOCK_SIZE


def test_replicate_error_survives_pickling():
    import pickle

    err = pickle.loads(pickle.dumps(ReplicateError(7, "boom")))
    assert err.index == 7
    assert "boom" in str(err)


def test_manifest_accounting(tmp_path):
    task = fixture_task()
    blocks, manifest = map_replicated(task, 12, seed=3, workers=1, config={"note": "fixture"})
    assert len(blocks) == 1 and len(blocks[0]) == 12
    assert manifest.master_seed == 3
    assert manifest.block_size == BLOCK_SIZE
    assert sum(manifest.worker_replicates.values()) == 12
    assert manifest.wall_time >= 0.0
    assert all(t >= 0.0 for t in manifest.worker_wall_times.values())
    assert manifest.config == {"note": "fixture"}

    out = tmp_path / "manifest.json"
    manifest.save(out)
    payload = json.loads(out.read_text())
    assert payload["total_replicates"] == 12
    assert payload["workers"] == 1
    assert payload["block_size"] == BLOCK_SIZE
    assert payload["config"] == {"note": "fixture"}


def test_single_replicate_run():
    results, manifest = map_replicated(EchoTask(), 1, seed=2, workers=1)
    assert len(results) == 1 and len(results[0]) == 1
    assert manifest.total_replicates == 1
    assert sum(manifest.worker_replicates.values()) == 1


def test_map_replicated_guards():
    with pytest.raises(ValueError):
        map_replicated(EchoTask(), 0, seed=0)
    with pytest.raises(ValueError):
        map_replicated(EchoTask(), 5, seed=0, chunk_size=-2)
    with pytest.raises(TypeError):  # a float seed is not truncated to an int
        map_replicated(EchoTask(), 10, 3.7, workers=1)


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs at least 4 cores to measure speedup")
def test_parallel_speedup():
    task = MuseReplicateTask(two_point_two_stage(), identity_reward(), RateSchedule.constant(0.6, 2))
    import time

    t0 = time.perf_counter()
    run_replicated(task, 20_000, seed=9, workers=1)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_replicated(task, 20_000, seed=9, workers=4)
    quad = time.perf_counter() - t0
    assert serial / quad >= 2.0
