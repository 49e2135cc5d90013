"""Deterministic multi-process replication harness.

A run is rooted at one stream (a master seed, or any ``RandomStream``) and
keys its work to children of that root in blocks: block ``b`` covers items
``b * BLOCK_SIZE`` up to the next block or the end of the run, draws from
substream ``(b,)``, and runs as one ``task.run_block(start, count, stream)``
call.  Estimator replicates (``MuseReplicateTask``) and policy episodes
(``PolicyEpisodeTask``) are both such block tasks.  The merged output is a
function of the seed and ``BLOCK_SIZE`` alone -- bit-identical for any
worker count.  Work is dealt in contiguous chunks of whole blocks, and each
chunk's results are kept at its position.  Above one worker the calling
process is one of the workers: it and a pool of the others (one process
per chunk at most) take chunks in order, the caller each chunk after the
first that the pool has not started.  A failing block aborts the run: the
run reports the first index of the earliest failing block, the same at
every worker count, and chunks not yet started never run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field

from .streams import as_stream, check_int

BLOCK_SIZE = 256  # items per keyed block
DEFAULT_CHUNK = 64  # cap on the blocks in a chunk
WORKERS_ENV = "MUSE_WORKERS"


class ReplicateError(RuntimeError):
    """A block task raised; carries the first index of the failing block."""

    def __init__(self, index: int, detail: str = ""):
        self.index = int(index)
        self.detail = detail
        message = f"replicate {self.index} failed"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        return (ReplicateError, (self.index, self.detail))


@dataclass
class RunManifest:
    """Audit record of one harness run, serializable to JSON.

    ``block_size`` is the number of items keyed to one substream.
    """

    master_seed: int
    total_replicates: int
    workers: int
    chunk_size: int
    block_size: int = BLOCK_SIZE
    wall_time: float = 0.0
    worker_wall_times: dict = field(default_factory=dict)
    worker_replicates: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = asdict(self)
        out["wall_time_s"] = out.pop("wall_time")
        return out


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the MUSE_WORKERS environment variable wins, then the
    explicit request, then the machine's CPU count.  An explicit request
    must be an integer >= 0 (0 means one worker), whatever the environment."""
    if requested is not None:
        check_int(requested, "workers", low=0)
    env = os.environ.get(WORKERS_ENV)
    if env is not None and env.strip():
        if not env.strip().lstrip("+-").isdigit() or int(env) < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env.strip()}")
        return int(env)
    if requested is not None:
        return max(1, int(requested))
    return os.cpu_count() or 1


def _run_chunk(task, master_seed, start, stop):
    """Run the blocks covering items ``start..stop-1``; returns (results, pid, seconds).

    ``master_seed`` is the run's root: an int seed or a ``RandomStream``.
    ``start`` is a multiple of ``BLOCK_SIZE``, and there is one result per
    block.
    """
    t0 = time.perf_counter()
    root = as_stream(master_seed)
    out = []
    for a in range(start, stop, BLOCK_SIZE):
        block = a // BLOCK_SIZE
        try:
            out.append(task.run_block(a, min(BLOCK_SIZE, stop - a), root.child(block)))
        except Exception as exc:  # noqa: BLE001 - reported with the block's first index
            raise ReplicateError(a, f"in block {block}: {type(exc).__name__}: {exc}") from exc
    return out, os.getpid(), time.perf_counter() - t0


def map_replicated(task, n_replicates: int, seed, workers: int | None = None, config: dict | None = None):
    """Run ``task`` over items 0..n-1; returns (results, manifest).

    ``seed`` is an int or the ``RandomStream`` the run is rooted at.  Block
    ``b`` is one ``task.run_block(start_b, count_b, stream_b)`` call, and
    ``results`` holds one result per block, in block order.  If any block
    raises, the run raises the ``ReplicateError`` of the earliest failing
    block, at every worker count, and chunks not yet started never run.
    An explicit ``workers`` is taken as given; ``None`` defers to
    ``resolve_workers``.  Above one worker the caller is a worker too, and
    the pool holds ``min(workers - 1, chunks)`` processes; a one-chunk run
    still goes to the pool.  The manifest records the requested ``workers``.
    ``task`` must be picklable when more than one worker is used.
    """
    check_int(n_replicates, "n_replicates")
    root = as_stream(seed)
    if workers is None:
        workers = resolve_workers()
    try:
        check_int(workers, "workers")
    except ValueError:
        raise ValueError(f"workers must be a positive integer, got {workers!r}") from None
    # chunks of whole blocks: small enough that workers stay busy, large
    # enough to amortize dispatch
    blocks = -(-n_replicates // BLOCK_SIZE)
    chunk = BLOCK_SIZE * max(1, min(DEFAULT_CHUNK, -(-blocks // (4 * workers))))
    spans = [(start, min(start + chunk, n_replicates)) for start in range(0, n_replicates, chunk)]
    t0 = time.perf_counter()

    if workers == 1:
        chunks = [_run_chunk(task, root, start, stop) for start, stop in spans]
    else:
        # the caller is one of the workers: a fork-started pool of the others
        # forks all of its processes at the first submit
        with ProcessPoolExecutor(max_workers=min(workers - 1, len(spans))) as pool:
            futures = [pool.submit(_run_chunk, task, root, start, stop) for start, stop in spans]
            # the caller takes, in order, each chunk after the first that the
            # pool has not started (cancel() is atomic with the pool marking a
            # chunk running), so the started chunks are always a prefix, as
            # at one worker; it takes none once a chunk has failed
            for j in range(1, len(spans)):
                if any(fut.done() and fut.exception() for fut in futures[:j]):
                    break
                if not futures[j].cancel():
                    continue  # started by the pool
                futures[j] = Future()
                try:
                    futures[j].set_result(_run_chunk(task, root, *spans[j]))
                except Exception as exc:  # noqa: BLE001 - raised below in chunk order
                    futures[j].set_exception(exc)
                    break
            wait(futures, return_when=FIRST_EXCEPTION)
            for fut in futures:
                fut.cancel()  # a no-op on chunks already started or run here
            # a chunk is left cancelled only once the run has failed, and the
            # earliest failure in chunk order raises here
            chunks = [fut.result() for fut in futures if not fut.cancelled()]

    results = []
    worker_times: dict[int, float] = {}
    worker_counts: dict[int, int] = {}
    for (start, stop), (out, pid, seconds) in zip(spans, chunks):
        results += out
        worker_times[pid] = worker_times.get(pid, 0.0) + seconds
        worker_counts[pid] = worker_counts.get(pid, 0) + stop - start
    pids = sorted(worker_times)
    manifest = RunManifest(
        master_seed=root.master_seed,
        total_replicates=n_replicates,
        workers=workers,
        chunk_size=chunk,
        wall_time=time.perf_counter() - t0,
        worker_wall_times={f"worker-{rank}": worker_times[pid] for rank, pid in enumerate(pids)},
        worker_replicates={f"worker-{rank}": worker_counts[pid] for rank, pid in enumerate(pids)},
        config=dict(config or {}),
    )
    return results, manifest


def run_replicated(task, n_replicates: int, seed, workers: int | None = None, config: dict | None = None):
    """``map_replicated`` for estimator tasks; returns (samples, values, costs, manifest).

    The task is a block task whose blocks are ``SampleBlock`` columns;
    ``samples`` is their concatenation, one entry per replicate.
    """
    blocks, manifest = map_replicated(task, n_replicates, seed, workers=workers, config=config)
    samples = blocks[0].concat(blocks)
    return samples, samples.values, samples.costs, manifest
