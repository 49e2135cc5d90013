import json
import multiprocessing
import os
import time

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


@pytest.fixture(autouse=True)
def _no_process_left_behind():
    """Every run, passing or failing, joins each process it started."""
    yield
    assert multiprocessing.active_children() == []


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


class SlowFailFirst:
    """Block 0 fails after a pause; block 2 fails at once."""

    def run_block(self, start, count, stream):
        if start == 0:
            time.sleep(0.5)
            raise ValueError("slow failure")
        if start == 2 * BLOCK_SIZE:
            raise ValueError("fast failure")
        return list(range(start, start + count))


class MarkThenFailFirst:
    """Leaves a marker file per block it starts; block 0 fails at once, the others take a while."""

    def __init__(self, directory):
        self.directory = directory

    def run_block(self, start, count, stream):
        (self.directory / f"block-{start // BLOCK_SIZE}").touch()
        if start == 0:
            raise ValueError("first block fails")
        time.sleep(0.5)
        return list(range(start, start + count))


class SlowFirstFailAt:
    """Block 0 takes a while; the given blocks fail at once."""

    def __init__(self, bad_blocks):
        self.bad_blocks = bad_blocks

    def run_block(self, start, count, stream):
        if start == 0:
            time.sleep(0.3)
        if start // BLOCK_SIZE in self.bad_blocks:
            raise ValueError("synthetic divergence")
        return list(range(start, start + count))


class PidPerItem:
    """Returns the pid of the process that ran each item; blocks can be made to take a while."""

    def __init__(self, pause=0.0):
        self.pause = pause

    def run_block(self, start, count, stream):
        time.sleep(self.pause)
        return [os.getpid()] * count


class PidPerItemSlowFirst(PidPerItem):
    """``PidPerItem`` whose block 0 takes a while."""

    def run_block(self, start, count, stream):
        if start == 0:
            time.sleep(0.3)
        return super().run_block(start, count, stream)


class MarkOnce:
    """Creates one marker file per block, and fails if its block's marker already exists."""

    def __init__(self, directory):
        self.directory = directory

    def run_block(self, start, count, stream):
        (self.directory / f"block-{start // BLOCK_SIZE}").open("x").close()
        return list(range(start, start + count))


class ExitInChildAt:
    """The block holding ``bad_index`` ends its process with exit code 3 when that is not the calling process."""

    def __init__(self, bad_index):
        self.bad_index = bad_index
        self.home = os.getpid()

    def run_block(self, start, count, stream):
        if start <= self.bad_index < start + count and os.getpid() != self.home:
            os._exit(3)
        return list(range(start, start + count))


def test_results_are_ordered_and_keyed_by_index():
    n = 2 * BLOCK_SIZE + 3
    results, manifest = map_replicated(EchoTask(), n, seed=17, workers=1)
    assert [len(block) for block in results] == [BLOCK_SIZE, BLOCK_SIZE, 3]
    for b, block in enumerate(results):
        draws = derive_substream(17, (b,)).generator.random(len(block)).tolist()
        assert block == list(zip(range(b * BLOCK_SIZE, b * BLOCK_SIZE + len(block)), draws))
    assert manifest.total_replicates == n
    assert manifest.chunk_size == BLOCK_SIZE  # every worker claims one block at a time
    assert manifest.block_size == BLOCK_SIZE


def test_single_and_multi_worker_agree_exactly():
    n = 2 * BLOCK_SIZE + 3
    a, _ = map_replicated(EchoTask(), n, seed=5, workers=1)
    b, _ = map_replicated(EchoTask(), n, seed=5, workers=2)
    assert a == b


def test_estimator_task_parallel_equals_sequential():
    task = fixture_task()
    n = 2 * BLOCK_SIZE + 3
    samples, values1, costs1, _ = run_replicated(task, n, seed=8, workers=1)
    _, values2, costs2, _ = run_replicated(task, n, seed=8, workers=2)
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
    for bad in ("0", "-3", "two", "1.5"):
        monkeypatch.setenv("MUSE_WORKERS", bad)
        with pytest.raises(ValueError, match="MUSE_WORKERS must be a positive integer"):
            resolve_workers(2)


def test_fractional_worker_counts_are_refused_not_truncated(monkeypatch):
    monkeypatch.delenv("MUSE_WORKERS", raising=False)
    for bad in (2.5, 1.0, True, -1):
        with pytest.raises(ValueError, match="workers must be an integer >= 0"):
            resolve_workers(bad)
    monkeypatch.setenv("MUSE_WORKERS", "3")  # a bad request fails even where the environment wins
    with pytest.raises(ValueError, match="workers must be an integer >= 0"):
        resolve_workers(2.5)
    for bad in (1.7, 2.0, True):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            map_replicated(EchoTask(), 5, seed=0, workers=bad)
    results, manifest = map_replicated(EchoTask(), 5, seed=0, workers=np.int64(1))
    assert manifest.workers == 1 and len(results[0]) == 5


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
        map_replicated(FailAt(BLOCK_SIZE + 3), 4 * BLOCK_SIZE, seed=0, workers=2)
    assert err.value.index == BLOCK_SIZE


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_run_reports_its_earliest_failing_block(workers):
    """Block 2 fails first in time, but block 0 is the earliest failing block."""
    with pytest.raises(ReplicateError) as err:
        map_replicated(SlowFailFirst(), 4 * BLOCK_SIZE, seed=0, workers=workers)
    assert err.value.index == 0
    assert "slow failure" in str(err.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_not_started_when_a_block_fails_never_run(tmp_path, workers):
    """Blocks are claimed in order, so the blocks that ran before the failure stopped the run are a prefix."""
    with pytest.raises(ReplicateError) as err:
        map_replicated(MarkThenFailFirst(tmp_path), 16 * BLOCK_SIZE, seed=0, workers=workers)
    assert err.value.index == 0
    started = sorted(int(p.name.split("-")[1]) for p in tmp_path.iterdir())
    assert started == list(range(len(started)))
    assert started == [0] if workers == 1 else 1 <= len(started) <= workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_worker_claims_a_chunk_once_a_block_has_failed(tmp_path, workers):
    """Block 0 fails at once and every other block takes a while: each worker starts at most one block."""
    with pytest.raises(ReplicateError) as err:
        map_replicated(MarkThenFailFirst(tmp_path), 16 * BLOCK_SIZE, seed=0, workers=workers)
    assert err.value.index == 0
    assert len(list(tmp_path.iterdir())) <= workers


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_that_dies_fails_the_run_at_its_chunk(workers):
    with pytest.raises(ReplicateError) as err:
        map_replicated(ExitInChildAt(5), 4 * BLOCK_SIZE, seed=0, workers=workers)
    assert err.value.index == 0
    assert "exited with code 3" in str(err.value)


def test_more_workers_than_cores_claim_every_chunk_exactly_once(tmp_path):
    """Eight workers race for 64 blocks; a lost update on the counter would run a block twice or never."""
    results, manifest = map_replicated(MarkOnce(tmp_path), 64 * BLOCK_SIZE, seed=0, workers=8)
    assert results == [list(range(a, a + BLOCK_SIZE)) for a in range(0, 64 * BLOCK_SIZE, BLOCK_SIZE)]
    assert len(list(tmp_path.iterdir())) == 64
    assert sum(manifest.worker_replicates.values()) == 64 * BLOCK_SIZE


@pytest.mark.parametrize("n, by_caller", [(10, [False]), (3 * BLOCK_SIZE, [False, True, True])])
def test_the_caller_takes_every_chunk_the_pool_has_not_started_but_the_first(n, by_caller):
    """The child starts on block 0, which takes a while, and the caller claims every later block."""
    results, _ = map_replicated(PidPerItemSlowFirst(), n, seed=0, workers=2)
    assert [set(block) == {os.getpid()} for block in results] == by_caller


@pytest.mark.parametrize("workers, chunks", [(2, 1), (2, 16), (3, 16)])
def test_the_caller_is_one_of_the_workers_unless_the_run_is_one_chunk(workers, chunks):
    results, manifest = map_replicated(PidPerItem(pause=0.02), chunks * BLOCK_SIZE, seed=0, workers=workers)
    pids = {pid for block in results for pid in block}
    assert (os.getpid() in pids) == (chunks > 1)
    assert len(pids) <= workers
    assert len(manifest.worker_replicates) == len(pids)
    assert sum(manifest.worker_replicates.values()) == chunks * BLOCK_SIZE


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failure_in_the_last_chunk_reports_its_block(workers):
    n = 4 * BLOCK_SIZE + 3
    with pytest.raises(ReplicateError) as err:
        map_replicated(FailAt(4 * BLOCK_SIZE + 1), n, seed=0, workers=workers)
    assert err.value.index == 4 * BLOCK_SIZE
    assert "in block 4" in str(err.value)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_earliest_of_two_failing_blocks_is_reported_while_the_first_runs_on(workers):
    """The first child is held up on block 0 while the caller runs on; block 4 fails before block 7 can."""
    with pytest.raises(ReplicateError) as err:
        map_replicated(SlowFirstFailAt((4, 7)), 8 * BLOCK_SIZE, seed=0, workers=workers)
    assert err.value.index == 4 * BLOCK_SIZE
    assert "in block 4" in str(err.value)


def test_replicate_error_survives_pickling():
    import pickle

    err = pickle.loads(pickle.dumps(ReplicateError(7, "boom")))
    assert err.index == 7
    assert "boom" in str(err)


def test_manifest_accounting():
    task = fixture_task()
    blocks, manifest = map_replicated(task, 12, seed=3, workers=1, config={"note": "fixture"})
    assert len(blocks) == 1 and len(blocks[0]) == 12
    assert manifest.master_seed == 3
    assert manifest.block_size == BLOCK_SIZE
    assert sum(manifest.worker_replicates.values()) == 12
    assert manifest.wall_time >= 0.0
    assert all(t >= 0.0 for t in manifest.worker_wall_times.values())
    assert manifest.config == {"note": "fixture"}

    payload = json.loads(json.dumps(manifest.to_json()))
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
    # a bool or float count raises instead of running as another count
    for n in (0, True, 2.5):
        with pytest.raises(ValueError, match="n_replicates must be an integer >= 1"):
            map_replicated(EchoTask(), n, seed=0)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            map_replicated(EchoTask(), 5, seed=0, workers=workers)
    with pytest.raises(TypeError):  # a float seed is not truncated to an int
        map_replicated(EchoTask(), 10, 3.7, workers=1)


def test_the_pool_starts_no_more_processes_than_there_are_chunks(monkeypatch):
    """One child per block after the first, at most, and one for a one-block run."""
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def counted_start(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted_start)
    small, manifest = map_replicated(EchoTask(), 10, seed=4, workers=64)
    assert len(starts) == 1
    assert manifest.workers == 64
    assert small == map_replicated(EchoTask(), 10, seed=4, workers=1)[0]
    three, manifest = map_replicated(EchoTask(), 3 * BLOCK_SIZE, seed=4, workers=64)
    assert len(starts) == 1 + 2
    assert manifest.workers == 64
    assert three == map_replicated(EchoTask(), 3 * BLOCK_SIZE, seed=4, workers=1)[0]


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
