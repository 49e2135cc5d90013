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
import numpy.random  # noqa: F401 - loaded at import, so forked workers inherit it instead of loading it at their first draw

__all__ = ["RandomStream", "as_stream", "derive_substream"]


def check_int(value, name: str, low: int = 1) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``low`` (a float or bool is not truncated)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_keys(data, allowed, what: str) -> None:
    """Raise a ValueError naming each key of ``data`` outside ``allowed``, so a misspelled key is not dropped."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, sorted(unknown)))}")


def check_recorded(data, spec, what: str) -> None:
    """Raise a ValueError naming the first field of ``data`` (other than its kind) whose value ``spec`` does not
    record, so a field the kind ignores is not dropped; lists and tuples compare alike."""
    for key, given in data.items():
        recorded = getattr(spec, key)
        if key != "kind" and _as_tuples(given) != _as_tuples(recorded):
            raise ValueError(f"{what} field {key!r} is {given!r}, but the {spec.kind} spec records {recorded!r}")


def _as_tuples(value):
    return tuple(map(_as_tuples, value)) if isinstance(value, (list, tuple)) else value


class RandomStream:
    """A keyed random stream: ``(master_seed, path) -> generator``.

    Distinct paths give statistically independent streams.  Deriving a
    child appends indices to the path, so derivation composes: deriving
    ``a`` and then ``b`` from the result is the same stream as deriving
    ``(a, b)`` directly from the root.  The seed and every path key are
    nonnegative integers; a float or bool raises ``ValueError`` instead of
    being truncated.
    """

    __slots__ = ("master_seed", "path", "_generator")

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        check_int(master_seed, "master_seed", low=0)
        for p in path:
            check_int(p, "path key", low=0)
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


def as_stream(seed) -> RandomStream:
    """The stream a seed names: an int seed is the root stream of that master
    seed, and a ``RandomStream`` is itself.  Anything else (a float, a numpy
    ``Generator``) raises ``TypeError``; nothing is truncated to an int."""
    if isinstance(seed, RandomStream):
        return seed
    if isinstance(seed, (int, np.integer)):
        return RandomStream(seed)
    raise TypeError(f"expected an int seed or a RandomStream, got {type(seed).__name__}")


def as_generator(stream) -> np.random.Generator:
    """A numpy ``Generator`` passes through; otherwise ``as_stream(stream).generator``."""
    if isinstance(stream, np.random.Generator):
        return stream
    return as_stream(stream).generator
