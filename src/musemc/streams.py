"""Reproducible, splittable random streams for parallel Monte Carlo.

A stream is identified by a 64-bit master seed plus an integer derivation
path.  The pair is hashed into a counter-based Philox generator through
numpy's ``SeedSequence``, so any stream can be reconstructed from its key
alone -- independent of execution order, worker count, or which process
asks for it.  The harness keys block ``b`` of a run's items (estimator
replicates or policy episodes) to path ``(b,)`` below the run's root.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["RandomStream", "derive_substream"]


class RandomStream:
    """A keyed random stream: ``(master_seed, path) -> generator``.

    Distinct paths give statistically independent streams.  Deriving a
    child appends indices to the path, so derivation composes: deriving
    ``a`` and then ``b`` from the result is the same stream as deriving
    ``(a, b)`` directly from the root.
    """

    __slots__ = ("master_seed", "path", "_generator")

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        if master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        self.master_seed = int(master_seed)
        self.path = tuple(int(p) for p in path)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """numpy generator backing this stream (built lazily, then cached)."""
        if self._generator is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

    def child(self, *indices: int) -> "RandomStream":
        """Derive the substream keyed by ``path + indices``."""
        return RandomStream(self.master_seed, self.path + indices)

    def __repr__(self) -> str:
        return f"RandomStream(master_seed={self.master_seed}, path={self.path})"


def derive_substream(master_seed: int, path: Iterable[int]) -> RandomStream:
    """Build the stream keyed by ``(master_seed, path)``.

    The same key always yields a stream producing the same draws, which is
    what makes runs bit-reproducible across worker counts.
    """
    return RandomStream(master_seed, tuple(path))


def as_generator(stream) -> np.random.Generator:
    """Accept a RandomStream, a numpy Generator, or an int seed."""
    if isinstance(stream, RandomStream):
        return stream.generator
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, (int, np.integer)):
        return RandomStream(int(stream)).generator
    raise TypeError(f"expected RandomStream, numpy Generator, or int seed, got {type(stream)!r}")
