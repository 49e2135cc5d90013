"""Deterministic multi-process replication harness.

A run is rooted at one stream (a master seed, or any ``RandomStream``) and
keys its work to children of that root in blocks: block ``b`` covers items
``b * BLOCK_SIZE`` up to the next block or the end of the run, draws from
substream ``(b,)``, and runs as one ``task.run_block(start, count, stream)``
call.  Estimator replicates (``MuseReplicateTask``) and policy episodes
(``PolicyEpisodeTask``) are both such block tasks.  The merged output is a
function of the seed and ``BLOCK_SIZE`` alone -- bit-identical for any
worker count.  The block is the one unit of work, and each block's result
is kept at its position.  At one worker the caller runs the blocks in
order.  Above one worker the calling process is one of the workers, beside
forked children (one per block after the first, at most): the first child
starts on block 0, and each worker then claims the next block, one at a
time, from one shared counter.  A failing block aborts the run: it pushes
the counter past the last block, so no worker starts another, and the run
reports the first index of the earliest failing block, the same at every
worker count.  A child that dies without reporting makes the run raise at
the earliest block left without a result.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field

from .streams import BIT_GENERATOR, as_stream, check_int

BLOCK_SIZE = 256  # items per keyed block
WORKERS_ENV = "MUSE_WORKERS"
_FORK = multiprocessing.get_context("fork")  # children inherit the task and the loaded modules; only results are pickled


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

    ``block_size`` is the number of items keyed to one substream.  Workers
    claim one block at a time, so ``chunk_size`` always equals it.
    ``bit_generator`` names the numpy bit generator that drew every number.
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
    bit_generator: str = BIT_GENERATOR.__name__

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
    """Run the block covering items ``start..stop-1``; returns (result, pid, seconds).

    ``master_seed`` is the run's root: an int seed or a ``RandomStream``.
    ``start`` is a multiple of ``BLOCK_SIZE``, and ``stop - start`` is at
    most ``BLOCK_SIZE``.
    """
    t0 = time.perf_counter()
    block = start // BLOCK_SIZE
    try:
        out = task.run_block(start, stop - start, as_stream(master_seed).child(block))
    except Exception as exc:  # noqa: BLE001 - reported with the block's first index
        raise ReplicateError(start, f"in block {block}: {type(exc).__name__}: {exc}") from exc
    return out, os.getpid(), time.perf_counter() - t0


def _work(task, root, spans, claims, first=None, send=None):
    """One harness worker: run block ``first`` if given, then claim blocks in
    order from the shared counter ``claims`` until it runs past the last (a
    failure pushes it there).  Returns, or sends down ``send`` as a child
    exits, ``{block: _run_chunk's return or the exception it raised}``."""
    done, j = {}, first
    while True:
        if j is None:
            with claims.get_lock():
                j = claims.value
                claims.value += 1
            if j >= len(spans):
                break
        try:
            done[j] = _run_chunk(task, root, *spans[j])
        except Exception as exc:  # noqa: BLE001 - raised by the caller in block order
            done[j] = exc
            claims.value = len(spans)
        j = None
    if send is not None:
        send.send(done)
    return done


def map_replicated(task, n_replicates: int, seed, workers: int | None = None, config: dict | None = None):
    """Run ``task`` over items 0..n-1; returns (results, manifest).

    ``seed`` is an int or the ``RandomStream`` the run is rooted at.  Block
    ``b`` is one ``task.run_block(start_b, count_b, stream_b)`` call, and
    ``results`` holds one result per block, in block order.  Every worker
    claims one block at a time.  If any block raises, the run raises the
    ``ReplicateError`` of the earliest failing block, at every worker count,
    and no worker starts a block after it.  An explicit ``workers`` is taken
    as given; ``None`` defers to ``resolve_workers``.  Above one worker the
    caller is a worker too, beside ``min(workers - 1, max(1, blocks - 1))``
    forked children; a one-block run still goes to a child.  A child that
    dies raises a ``ReplicateError`` at the first index of the earliest
    block left without a result, naming its pid and exit code.  The
    manifest records the requested ``workers``, and its ``chunk_size`` is
    ``BLOCK_SIZE``.  Block results must be picklable when more than one
    worker is used.
    """
    check_int(n_replicates, "n_replicates")
    root = as_stream(seed)
    if workers is None:
        workers = resolve_workers()
    try:
        check_int(workers, "workers")
    except ValueError:
        raise ValueError(f"workers must be a positive integer, got {workers!r}") from None
    spans = [(start, min(start + BLOCK_SIZE, n_replicates)) for start in range(0, n_replicates, BLOCK_SIZE)]
    t0 = time.perf_counter()

    if workers == 1:
        blocks = [_run_chunk(task, root, start, stop) for start, stop in spans]
    else:
        claims = _FORK.Value("q", 1)  # the first child starts on block 0; each worker, the caller too, claims the rest
        children, lost = [], []
        try:
            for k in range(min(workers - 1, max(1, len(spans) - 1))):
                receive, send = _FORK.Pipe(duplex=False)
                child = _FORK.Process(target=_work, args=(task, root, spans, claims, 0 if k == 0 else None, send))
                child.start()
                send.close()
                children.append((child, receive))
            done = _work(task, root, spans, claims)
            for child, receive in children:
                try:
                    done.update(receive.recv())
                except EOFError:  # the child died before it could send
                    child.join()
                    lost.append(f"worker process {child.pid} exited with code {child.exitcode}")
        finally:
            claims.value = len(spans)  # on any way out, no worker claims another block
            for child, receive in children:
                receive.close()
                child.join()
                child.close()
        # a claimed block always runs, so the blocks started are a prefix and
        # the earliest failure in block order is the one one worker would meet
        blocks = [done.get(j) for j in range(len(spans))]
        for (start, _), out in zip(spans, blocks):
            if not isinstance(out, tuple):  # a block that failed, or that a dead child took
                raise out or ReplicateError(start, "; ".join(lost))

    results = []
    worker_times: dict[int, float] = {}
    worker_counts: dict[int, int] = {}
    for (start, stop), (out, pid, seconds) in zip(spans, blocks):
        results.append(out)
        worker_times[pid] = worker_times.get(pid, 0.0) + seconds
        worker_counts[pid] = worker_counts.get(pid, 0) + stop - start
    pids = sorted(worker_times)
    manifest = RunManifest(
        master_seed=root.master_seed,
        total_replicates=n_replicates,
        workers=workers,
        chunk_size=BLOCK_SIZE,
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
