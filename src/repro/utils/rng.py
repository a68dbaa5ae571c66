"""Deterministic random-number management.

Every stochastic decision in the reproduction flows from a single integer
seed. Components never share a generator: each named component receives
its own :class:`numpy.random.Generator` derived with ``SeedSequence.spawn``
semantics, so adding a new consumer never perturbs the random streams of
existing ones (a requirement for bit-reproducible experiment sweeps).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["spawn_rng", "RngPool"]


def _stable_key_entropy(key: str) -> int:
    """Map a string key to a stable 64-bit integer.

    Python's builtin ``hash`` is salted per process, so it cannot be used
    for reproducible streams; we use BLAKE2 instead.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def spawn_rng(seed: int, key: str) -> np.random.Generator:
    """Create an independent generator for ``(seed, key)``.

    The same pair always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, _stable_key_entropy(key)])
    return np.random.default_rng(ss)


class RngPool:
    """A registry of named generators derived from one root seed.

    Example
    -------
    >>> pool = RngPool(seed=7)
    >>> a = pool.get("worker/0/data")
    >>> b = pool.get("worker/1/data")
    >>> a is pool.get("worker/0/data")   # cached
    True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, key: str) -> np.random.Generator:
        """Return the (cached) generator for ``key``."""
        gen = self._cache.get(key)
        if gen is None:
            gen = spawn_rng(self._seed, key)
            self._cache[key] = gen
        return gen
