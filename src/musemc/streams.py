"""Reproducible, splittable random streams for parallel Monte Carlo.

A stream is identified by a 64-bit master seed plus an integer derivation
path.  numpy's ``SeedSequence`` hashes the pair into the initial state of a
``PCG64DXSM`` bit generator (``BIT_GENERATOR``), so any stream can be
reconstructed from its key alone -- independent of execution order, worker
count, or which process asks for it.  Distinct keys give independent streams
because the hash decorrelates their states, not because of any property of
the bit generator; numpy recommends PCG64DXSM for large parallel runs, and
it draws uniforms over twice as fast as Philox.  The harness keys block
``b`` of a run's items (estimator replicates or policy episodes) to path
``(b,)`` below the run's root.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable

import numpy as np
import numpy.random  # noqa: F401 - loaded at import, so forked workers inherit it instead of loading it at their first draw

__all__ = ["BIT_GENERATOR", "RandomStream", "as_stream", "derive_substream"]

BIT_GENERATOR = np.random.PCG64DXSM  # the bit generator behind every stream; each manifest records its name


def check_int(value, name: str, low: int = 1) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``low`` (a float or bool is not truncated)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_keys(data, allowed, what: str) -> None:
    """Raise a ValueError naming each key of ``data`` outside ``allowed``, so a misspelled key is not dropped."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, sorted(unknown)))}")


def spec_from_dict(data, spec_cls, builders, noun: str):
    """Build a ``spec_cls`` from a ``noun``'s ("process" or "reward") JSON-style config object.

    The kind, lowercased and stripped to letters and digits, picks a builder
    of ``data`` from ``builders``.  A non-object, a missing or unknown kind, an
    unknown key, a missing required field, a field of the wrong type, and a
    given field whose value the spec does not record (one the kind ignores,
    say) are each a ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config {noun!r} must be a JSON object, got {type(data).__name__}")
    if "kind" not in data:
        raise ValueError(f"{noun} config requires a 'kind' field")
    check_keys(data, [f.name for f in fields(spec_cls)], f"{noun} config")
    kind = data["kind"]
    build = builders.get("".join(ch for ch in kind.lower() if ch.isalnum())) if isinstance(kind, str) else None
    if build is None:
        raise ValueError(f"unknown {noun} kind {kind!r}")
    try:
        spec = build(data)
    except KeyError as exc:  # a field the kind requires
        raise ValueError(f"{noun} config requires a {exc.args[0]!r} field") from None
    except TypeError as exc:  # a list where a number goes, a number where a list goes
        raise ValueError(f"{noun} config has a field of the wrong type: {exc}") from None

    def plain(value):
        return tuple(map(plain, value)) if isinstance(value, (list, tuple)) else value

    for key, given in data.items():
        recorded = getattr(spec, key)
        if key != "kind" and plain(given) != plain(recorded):
            raise ValueError(f"{noun} config field {key!r} is {given!r}, but the {spec.kind} spec records {recorded!r}")
    return spec


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
            self._generator = np.random.Generator(BIT_GENERATOR(seq))
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
