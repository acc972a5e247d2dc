"""Seeded randomness with named substreams.

Every source of randomness in a simulation (network delays, protocol coin
flips, attacker choices, VRF seeds) draws from its own substream derived from
the single configuration seed.  Substreams are keyed by name, so adding a new
consumer never perturbs the draws seen by existing ones — experiment results
stay reproducible across library versions that add features.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 over the pair, so children are statistically independent and
    stable across platforms and Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RandomSource:
    """Factory for named, reproducible random substreams.

    Example:
        >>> source = RandomSource(seed=7)
        >>> delays = source.numpy("network.delay")
        >>> coins = source.python("protocol.coin")
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._issued: dict[str, int] = {}

    def child_seed(self, name: str) -> int:
        """The derived seed for substream ``name`` (always the same value)."""
        if name not in self._issued:
            self._issued[name] = derive_seed(self.seed, name)
        return self._issued[name]

    def numpy(self, name: str) -> np.random.Generator:
        """A fresh numpy :class:`~numpy.random.Generator` for ``name``."""
        return np.random.default_rng(self.child_seed(name))

    def python(self, name: str) -> random.Random:
        """A fresh :class:`random.Random` for ``name``."""
        return random.Random(self.child_seed(name))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, streams={len(self._issued)})"
