"""Deterministic multi-process replication harness.

A run is rooted at one stream (a master seed, or any ``RandomStream``) and
keys its work to children of that root.  A plain task runs item by item,
item ``i`` on substream ``(i,)``.  A block task (one with a ``run_block``
method, such as ``MuseReplicateTask``) runs whole blocks: block ``b``
covers replicates ``b * BLOCK_SIZE`` up to the next block or the end of the
run, and draws from substream ``(b,)``.  Either way the merged output is a
function of the seed (and ``BLOCK_SIZE``) alone -- bit-identical for any
worker count or chunk size.  Work is dealt to a process pool in contiguous
chunks of whole units; a failing unit aborts the run and reports its first
index.
"""

from __future__ import annotations

import os
import time
import json
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .streams import RandomStream, derive_substream

BLOCK_SIZE = 256  # replicates per keyed block of a block task
DEFAULT_CHUNK = 64  # cap on the units (items or blocks) in an automatic chunk
WORKERS_ENV = "MUSE_WORKERS"


class ReplicateError(RuntimeError):
    """A replicate task raised; carries the failing replicate index."""

    def __init__(self, index: int, detail: str = ""):
        self.index = int(index)
        self.detail = detail
        message = f"replicate {self.index} failed"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        return (ReplicateError, (self.index, self.detail))


@dataclass(frozen=True)
class SeedSpec:
    """Root seed of a run; unit ``i`` (an item or a block) draws from substream ``(i,)``."""

    master_seed: int

    def stream_for(self, index: int):
        return derive_substream(self.master_seed, (index,))


@dataclass
class RunManifest:
    """Audit record of one harness run, serializable to JSON.

    ``block_size`` is the number of replicates keyed to one substream: 1
    for a plain task, ``BLOCK_SIZE`` for a block task.
    """

    master_seed: int
    total_replicates: int
    workers: int
    chunk_size: int
    block_size: int = 1
    wall_time: float = 0.0
    worker_wall_times: dict = field(default_factory=dict)
    worker_replicates: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "total_replicates": self.total_replicates,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "block_size": self.block_size,
            "wall_time_s": self.wall_time,
            "worker_wall_times": self.worker_wall_times,
            "worker_replicates": self.worker_replicates,
            "config": self.config,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the MUSE_WORKERS environment variable wins, then the
    explicit request, then the machine's CPU count."""
    env = os.environ.get(WORKERS_ENV)
    if env is not None and env.strip():
        return max(1, int(env))
    if requested is not None:
        return max(1, int(requested))
    return os.cpu_count() or 1


def _unit_size(task) -> int:
    return BLOCK_SIZE if hasattr(task, "run_block") else 1


def _root(seed) -> RandomStream:
    if isinstance(seed, RandomStream):
        return seed
    if isinstance(seed, SeedSpec):
        return RandomStream(seed.master_seed)
    return RandomStream(int(seed))


def _run_chunk(task, master_seed, start, stop):
    """Run the units covering items ``start..stop-1``; returns (start, results, pid, seconds).

    ``master_seed`` is the run's root: an int seed or a ``RandomStream``.
    ``start`` is a multiple of the task's unit size, and there is one
    result per unit.
    """
    t0 = time.perf_counter()
    root = _root(master_seed)
    size = _unit_size(task)
    out = []
    for a in range(start, stop, size):
        stream = root.child(a // size)
        try:
            out.append(task(a, stream) if size == 1 else task.run_block(min(size, stop - a), stream))
        except Exception as exc:  # noqa: BLE001 - reported with the replicate index
            where = "" if size == 1 else f"in block {a // size}: "
            raise ReplicateError(a, f"{where}{type(exc).__name__}: {exc}") from exc
    return start, out, os.getpid(), time.perf_counter() - t0


def _chunk_size(n: int, workers: int, size: int, requested: int | None) -> int:
    """Items per chunk: a whole number of units, a request rounded up to one."""
    if requested:
        if requested < 1:
            raise ValueError("chunk_size must be a positive integer")
        return size * -(-int(requested) // size)
    # small enough that workers stay busy, large enough to amortize dispatch
    units = -(-n // size)
    return size * max(1, min(DEFAULT_CHUNK, -(-units // (4 * workers))))


def map_replicated(task, n_replicates: int, seed, workers: int | None = None, chunk_size: int | None = None, config: dict | None = None):
    """Run ``task`` over items 0..n-1; returns (results, manifest).

    ``seed`` is an int, a ``SeedSpec`` or the ``RandomStream`` the run is
    rooted at.  A plain task is called as ``task(i, stream_i)`` and gives
    one result per item; a block task is called as
    ``task.run_block(count, stream_b)`` and gives one result per block.
    Results are ordered by index regardless of completion order.
    An explicit ``workers`` is taken as given; ``None`` defers to
    ``resolve_workers``.  ``task`` must be picklable when more than one
    worker is used.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be a positive integer")
    root = _root(seed)
    workers = max(1, int(workers)) if workers is not None else resolve_workers()
    size = _unit_size(task)
    chunk = _chunk_size(n_replicates, workers, size, chunk_size)

    starts = list(range(0, n_replicates, chunk))
    results: list = [None] * -(-n_replicates // size)
    filled = np.zeros(len(results), dtype=bool)
    worker_times: dict[int, float] = {}
    worker_counts: dict[int, int] = {}
    t0 = time.perf_counter()

    def absorb(start, out, pid, elapsed):
        first = start // size
        last = first + len(out)
        if filled[first:last].any():
            raise RuntimeError(f"replicates {start}..{start + chunk - 1} merged twice")
        results[first:last] = out
        filled[first:last] = True
        worker_times[pid] = worker_times.get(pid, 0.0) + elapsed
        worker_counts[pid] = worker_counts.get(pid, 0) + min(start + chunk, n_replicates) - start

    if workers == 1:
        for start in starts:
            absorb(*_run_chunk(task, root, start, min(start + chunk, n_replicates)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, task, root, start, min(start + chunk, n_replicates))
                for start in starts
            ]
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for fut in done:
                    exc = fut.exception()
                    if exc is not None:
                        for other in pending:
                            other.cancel()
                        raise exc
                    absorb(*fut.result())

    if not filled.all():
        missing = int(np.flatnonzero(~filled)[0]) * size
        raise RuntimeError(f"replicate {missing} was never produced")

    pids = sorted(worker_times)
    manifest = RunManifest(
        master_seed=root.master_seed,
        total_replicates=n_replicates,
        workers=workers,
        chunk_size=chunk,
        block_size=size,
        wall_time=time.perf_counter() - t0,
        worker_wall_times={f"worker-{rank}": worker_times[pid] for rank, pid in enumerate(pids)},
        worker_replicates={f"worker-{rank}": worker_counts[pid] for rank, pid in enumerate(pids)},
        config=dict(config or {}),
    )
    if sum(manifest.worker_replicates.values()) != n_replicates:
        raise RuntimeError("per-worker replicate counts do not sum to the requested total")
    return results, manifest


def run_replicated(task, n_replicates: int, seed, workers: int | None = None, chunk_size: int | None = None, config: dict | None = None):
    """``map_replicated`` for estimator tasks; returns (samples, values, costs, manifest).

    The task is a block task whose blocks are ``SampleBlock`` columns;
    ``samples`` is their concatenation, one entry per replicate.
    """
    blocks, manifest = map_replicated(task, n_replicates, seed, workers=workers, chunk_size=chunk_size, config=config)
    samples = blocks[0].concat(blocks)
    return samples, samples.values, samples.costs, manifest
