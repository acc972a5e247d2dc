"""Message-delay distributions.

The paper's network module assigns each message a ``delay`` variable sampled
from a configurable distribution — "such as a Gaussian distribution or a
Poisson distribution, which can easily be changed to simulate various types
of networks" (§III-A4).  This module provides those distributions behind a
single :class:`DelaySampler` interface plus a :class:`DelayModel` that adds
the bounding and GST semantics of the three network models (§II-B).

All delays are milliseconds.  Samplers draw from a numpy
:class:`~numpy.random.Generator` owned by the caller so the whole network is
one named random substream.  A sampler implements one method,
``sample_batch``; the model draws :data:`BLOCK` raw delays at a time, bounds
them once, and serves single and batched requests from that one stream in
the order they are made.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..core.config import NetworkConfig
from ..core.errors import ConfigurationError


#: Raw delays a :class:`DelayModel` draws from its sampler per refill.
BLOCK = 1024


class DelaySampler(ABC):
    """Draws transit delays, any number per call."""

    @abstractmethod
    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Return ``size`` finite delay samples in milliseconds as a float64
        vector (unbounded, may be <= 0; bounding is the :class:`DelayModel`'s
        job).

        Contract: drawing ``a`` samples and then ``b`` returns the ``a + b``
        samples one call would, so the model may draw in blocks of any size.
        numpy's ``Generator`` methods with a ``size`` argument behave so.
        """

    def describe(self) -> str:
        return type(self).__name__


class ConstantDelay(DelaySampler):
    """Every message takes exactly ``value`` ms (ideal lab network)."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def describe(self) -> str:
        return f"constant({self.value})"


class UniformDelay(DelaySampler):
    """Uniform on ``[mean - spread, mean + spread]`` with
    ``spread = std * sqrt(3)`` so that mean/std match the configuration."""

    def __init__(self, mean: float, std: float) -> None:
        self.mean = float(mean)
        self.spread = float(std) * float(np.sqrt(3.0))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.mean - self.spread, self.mean + self.spread, size)

    def describe(self) -> str:
        return f"uniform(mean={self.mean}, spread={self.spread:.1f})"


class NormalDelay(DelaySampler):
    """Gaussian N(mean, std) — the paper's default workload family."""

    def __init__(self, mean: float, std: float) -> None:
        self.mean = float(mean)
        self.std = float(std)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size)

    def describe(self) -> str:
        return f"normal({self.mean}, {self.std})"


class LogNormalDelay(DelaySampler):
    """Log-normal with the *target* mean/std (heavy-tailed WAN-like links).

    The underlying normal parameters are solved from the requested moments:
    ``sigma^2 = ln(1 + (std/mean)^2)``, ``mu = ln(mean) - sigma^2 / 2``.
    """

    def __init__(self, mean: float, std: float) -> None:
        if mean <= 0:
            raise ConfigurationError("lognormal mean must be > 0")
        ratio = (std / mean) ** 2 if mean else 0.0
        self.sigma = float(np.sqrt(np.log1p(ratio)))
        self.mu = float(np.log(mean) - self.sigma**2 / 2.0)
        self.mean = float(mean)
        self.std = float(std)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size)

    def describe(self) -> str:
        return f"lognormal(mean={self.mean}, std={self.std})"


class ExponentialDelay(DelaySampler):
    """Exponential with the given mean (memoryless congestion model)."""

    def __init__(self, mean: float, std: float = 0.0) -> None:
        if mean <= 0:
            raise ConfigurationError("exponential mean must be > 0")
        self.mean = float(mean)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean, size)

    def describe(self) -> str:
        return f"exponential(mean={self.mean})"


class PoissonDelay(DelaySampler):
    """Poisson-distributed integer delays with the given mean."""

    def __init__(self, mean: float, std: float = 0.0) -> None:
        if mean <= 0:
            raise ConfigurationError("poisson mean must be > 0")
        self.mean = float(mean)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.mean, size).astype(np.float64)

    def describe(self) -> str:
        return f"poisson(mean={self.mean})"


_FACTORIES: dict[str, Callable[[float, float], DelaySampler]] = {
    "constant": lambda mean, std: ConstantDelay(mean),
    "uniform": UniformDelay,
    "normal": NormalDelay,
    "lognormal": LogNormalDelay,
    "exponential": ExponentialDelay,
    "poisson": PoissonDelay,
}


def available_distributions() -> list[str]:
    """Names accepted by ``NetworkConfig.distribution``."""
    return sorted(_FACTORIES)


def register_distribution(name: str, factory: Callable[[float, float], DelaySampler]) -> None:
    """Register a custom distribution under ``name``.

    ``factory`` receives ``(mean, std)`` from the network configuration.
    Re-registering an existing name raises, to protect reproducibility of
    published configurations.
    """
    if name in _FACTORIES:
        raise ConfigurationError(f"delay distribution {name!r} already registered")
    _FACTORIES[name] = factory


def make_sampler(config: NetworkConfig) -> DelaySampler:
    """Build the sampler described by ``config``."""
    try:
        factory = _FACTORIES[config.distribution]
    except KeyError:
        raise ConfigurationError(
            f"unknown delay distribution {config.distribution!r}; "
            f"available: {available_distributions()}"
        ) from None
    return factory(config.mean, config.std)


class DelayModel:
    """Applies network-model semantics on top of a raw sampler.

    * ``min_delay`` floors every sample (progress guarantee);
    * ``max_delay`` caps samples, yielding the bounded behaviour of
      synchronous / partially-synchronous networks;
    * before ``gst``, samples are multiplied by ``pre_gst_factor`` and the
      cap is *not* applied — the unstable phase of a partially-synchronous
      network.

    Raw delays come from the sampler :data:`BLOCK` at a time, and each block
    is bounded once into two rows: the delays a draw gets before GST and
    after it.  A draw takes the next position of the row for its ``now``, so
    the generator — which the model alone consumes — is read in exactly the
    order draws are made, whatever mix of single and batched requests makes
    them.
    """

    def __init__(self, config: NetworkConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.sampler = make_sampler(config)
        self._rng = rng
        self._gst = config.gst
        # The bounded block (row 0 before GST, row 1 after), each row as a
        # list of plain floats once a single draw reads it (converting
        # costs more than drawing, and batch-only models never need it),
        # and the next position.
        self._block = np.empty((2, 0))
        self._rows: list[list[float] | None] = [None, None]
        self._pos = self._end = 0

    def _refill(self, size: int) -> None:
        """Keep the unread tail and append ``max(size, BLOCK)`` fresh draws,
        bounded once: the one place the bound rule is written."""
        fresh = max(size, BLOCK)
        raw = np.asarray(self.sampler.sample_batch(self._rng, fresh), dtype=np.float64)
        if raw.shape != (fresh,) or not np.isfinite(raw).all():
            raise ConfigurationError(
                f"delay distribution {self.config.distribution!r} drew {raw.size} "
                f"values ({raw.size - np.count_nonzero(np.isfinite(raw))} not "
                f"finite) where {fresh} finite delays were asked for"
            )
        config = self.config
        capped = raw if config.max_delay is None else np.minimum(raw, config.max_delay)
        bounded = np.maximum((raw * config.pre_gst_factor, capped), config.min_delay)
        self._block = np.concatenate((self._block[:, self._pos:], bounded), axis=1)
        self._rows = [None, None]
        self._pos, self._end = 0, self._block.shape[1]

    def sample_delay(self, now: float) -> float:
        """One bounded delay for a message entering the network at ``now``."""
        pos = self._pos
        if pos == self._end:
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        regime = 0 if now < self._gst else 1
        row = self._rows[regime]
        if row is None:
            row = self._rows[regime] = self._block[regime].tolist()
        return row[pos]

    def sample_delays(self, now: float, size: int) -> np.ndarray:
        """``size`` bounded delays for messages entering the network at
        ``now``: the next ``size`` draws of the :meth:`sample_delay` stream,
        as a fresh float64 array.  A broadcast prices its whole star or
        overlay with one call."""
        pos = self._pos
        if pos + size > self._end:
            self._refill(size)
            pos = 0
        self._pos = pos + size
        return self._block[0 if now < self._gst else 1, pos:pos + size].copy()

    def describe(self) -> str:
        bound = self.config.max_delay
        regime = "async" if bound is None else f"bounded<= {bound}"
        return f"{self.sampler.describe()} [{regime}, gst={self.config.gst}]"
