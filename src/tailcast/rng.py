"""Splittable deterministic random streams.

A stream is identified by (seed, stream id). Identical identifiers always
produce bit-identical draw sequences; distinct ids give statistically
independent generators. Substreams extend the identifier with extra indices,
so work units (prediction points, replicates) can be keyed by index rather
than by scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_fields

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Identifier of a reproducible random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        check_fields(self)
        for key in ("seed", "stream"):
            if not 0 <= getattr(self, key) <= _MASK64:
                raise DomainError(f"{key} must fit in 64 bits", key=key)

    def generator(self, *path: int) -> np.random.Generator:
        """Fresh generator for this stream, optionally extended by sub-indices.

        Each call returns a new generator starting from the same state, so
        a consumer owns its draw sequence end to end.
        """
        key = (self.stream,) + tuple(int(p) for p in path)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a Generator, or an int seed; return a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"cannot make a Generator from {type(rng).__name__}")
