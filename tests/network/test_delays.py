"""Tests for delay distributions and the delay model."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SimulationConfig, run_simulation
from repro.cli import main
from repro.core.config import NetworkConfig
from repro.core.errors import ConfigurationError
from repro.network.delays import (
    BLOCK,
    ConstantDelay,
    DelayModel,
    DelaySampler,
    ExponentialDelay,
    LogNormalDelay,
    NormalDelay,
    PoissonDelay,
    UniformDelay,
    available_distributions,
    make_sampler,
    register_distribution,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSamplers:
    def test_constant(self, rng):
        assert ConstantDelay(100.0).sample_batch(rng, 10).tolist() == [100.0] * 10

    @pytest.mark.parametrize(
        "cls", [UniformDelay, NormalDelay, LogNormalDelay]
    )
    def test_mean_and_std_match_target(self, cls, rng):
        samples = cls(200.0, 40.0).sample_batch(rng, 20_000)
        assert samples.mean() == pytest.approx(200.0, rel=0.05)
        assert samples.std() == pytest.approx(40.0, rel=0.10)

    def test_exponential_mean(self, rng):
        samples = ExponentialDelay(150.0).sample_batch(rng, 20_000)
        assert samples.mean() == pytest.approx(150.0, rel=0.05)

    def test_poisson_mean_and_integrality(self, rng):
        samples = PoissonDelay(30.0).sample_batch(rng, 5_000)
        assert samples.dtype == np.float64
        assert samples.mean() == pytest.approx(30.0, rel=0.1)
        assert (samples == np.round(samples)).all()

    def test_lognormal_requires_positive_mean(self):
        with pytest.raises(ConfigurationError):
            LogNormalDelay(0.0, 10.0)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ConfigurationError):
            ExponentialDelay(0.0)

    def test_describe_mentions_parameters(self):
        assert "250" in NormalDelay(250.0, 50.0).describe()


class TestRegistry:
    def test_builtins_available(self):
        names = available_distributions()
        for name in ("constant", "uniform", "normal", "lognormal", "exponential", "poisson"):
            assert name in names

    def test_make_sampler_from_config(self):
        sampler = make_sampler(NetworkConfig(distribution="lognormal", mean=100, std=20))
        assert isinstance(sampler, LogNormalDelay)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sampler(NetworkConfig(distribution="no-such"))

    def test_register_custom_and_reject_duplicates(self):
        register_distribution("test-fixed-7", lambda mean, std: ConstantDelay(7.0))
        sampler = make_sampler(NetworkConfig(distribution="test-fixed-7", mean=1.0))
        assert sampler.sample_batch(np.random.default_rng(0), 2).tolist() == [7.0, 7.0]
        with pytest.raises(ConfigurationError):
            register_distribution("test-fixed-7", lambda mean, std: ConstantDelay(8.0))


class TestDelayModel:
    def test_min_delay_floor(self, rng):
        config = NetworkConfig(distribution="normal", mean=5.0, std=100.0, min_delay=2.0)
        model = DelayModel(config, rng)
        assert all(model.sample_delay(0.0) >= 2.0 for _ in range(500))

    def test_max_delay_cap(self, rng):
        config = NetworkConfig(mean=100.0, std=500.0, max_delay=150.0)
        model = DelayModel(config, rng)
        assert all(model.sample_delay(0.0) <= 150.0 for _ in range(500))

    def test_unbounded_when_no_cap(self, rng):
        config = NetworkConfig(mean=100.0, std=100.0)
        model = DelayModel(config, rng)
        assert max(model.sample_delay(0.0) for _ in range(2_000)) > 300.0

    def test_pre_gst_inflation(self, rng):
        config = NetworkConfig(
            distribution="constant", mean=100.0, std=0.0,
            gst=1_000.0, pre_gst_factor=10.0, max_delay=120.0,
        )
        model = DelayModel(config, rng)
        # Before GST: inflated and NOT capped.
        assert model.sample_delay(0.0) == 1000.0
        # After GST: normal and capped.
        assert model.sample_delay(1_000.0) == 100.0

    def test_describe_mentions_regime(self):
        config = NetworkConfig(max_delay=500.0)
        model = DelayModel(config, np.random.default_rng(0))
        assert "bounded" in model.describe()
        unbounded = DelayModel(NetworkConfig(), np.random.default_rng(0))
        assert "async" in unbounded.describe()


class _HalfNormal(DelaySampler):
    """A custom sampler: like every sampler, it defines ``sample_batch`` only."""

    def sample_batch(self, rng, size):
        return np.abs(rng.normal(40.0, 25.0, size))


register_distribution("test-half-normal", lambda mean, std: _HalfNormal())

#: Every built-in distribution and one custom sampler.
DISTRIBUTIONS = [
    "constant", "uniform", "normal", "lognormal", "exponential", "poisson",
    "test-half-normal",
]


def _config(distribution: str, max_delay: float | None = None) -> NetworkConfig:
    return NetworkConfig(
        distribution=distribution, mean=50.0, std=30.0, min_delay=20.0,
        max_delay=max_delay, gst=1_000.0, pre_gst_factor=3.0,
    )


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_a_sampler_splits_its_stream_anywhere(distribution):
    """``sample_batch(rng, a)`` then ``sample_batch(rng, b)`` is
    ``sample_batch(rng', a + b)``: the contract drawing in blocks rests on."""
    sampler = make_sampler(_config(distribution))
    for a, b in ((0, 3), (1, 1), (5, BLOCK - 5), (BLOCK, BLOCK + 1)):
        split, whole = np.random.default_rng(11), np.random.default_rng(11)
        drawn = sampler.sample_batch(split, a).tolist() + sampler.sample_batch(split, b).tolist()
        assert drawn == sampler.sample_batch(whole, a + b).tolist()


class TestBatchEqualsScalar:
    """``sample_delays(now, k)`` is k successive ``sample_delay(now)`` bit
    for bit: both take the next draws of one stream."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("max_delay", [None, 60.0])
    @pytest.mark.parametrize("now", [0.0, 5_000.0])  # before and after GST
    def test_batch_draw_is_the_scalar_sequence(self, distribution, max_delay, now):
        config = _config(distribution, max_delay)
        scalar = DelayModel(config, np.random.default_rng(7))
        batch = DelayModel(config, np.random.default_rng(7))
        # Interleaved sizes (0 and 1 included, one crossing a block): the
        # stream position after a batch must equal the position after as
        # many scalar draws.
        for size in (5, 0, 1, BLOCK + 127, 3):
            expected = [scalar.sample_delay(now) for _ in range(size)]
            drawn = batch.sample_delays(now, size)
            assert drawn.dtype == np.float64
            assert drawn.tolist() == expected
            assert (now + drawn).tolist() == [now + delay for delay in expected]
        assert batch.sample_delay(now) == scalar.sample_delay(now)


def _expected(config: NetworkConfig, seed: int, requests: list[tuple]) -> list:
    """What ``requests`` must draw, in plain Python: one direct
    ``sample_batch`` of their total, bounded one value at a time."""
    sizes = [1 if size is None else size for _now, size in requests]
    drawn = make_sampler(config).sample_batch(np.random.default_rng(seed), sum(sizes))
    raw = iter(drawn.tolist())
    out: list = []
    for (now, size), count in zip(requests, sizes):
        delays = []
        for delay in islice(raw, count):
            if now < config.gst:
                delay *= config.pre_gst_factor
            elif config.max_delay is not None and delay > config.max_delay:
                delay = config.max_delay
            delays.append(delay if delay > config.min_delay else config.min_delay)
        out.append(delays[0] if size is None else delays)
    return out


#: ``(now, None)`` is one ``sample_delay``, ``(now, k)`` one ``sample_delays``
#: of k; ``now`` falls before or after the GST of ``_config``.
REQUESTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 5_000.0]),
        st.sampled_from([None, None, None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK]),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    distribution=st.sampled_from(DISTRIBUTIONS),
    max_delay=st.sampled_from([None, 60.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    requests=REQUESTS,
)
# A refill must keep the unread tail of the old block.
@example(distribution="normal", max_delay=None, seed=0,
         requests=[(5_000.0, BLOCK - 1), (5_000.0, 2)])
def test_property_single_and_batched_draws_are_one_stream(
    distribution, max_delay, seed, requests
):
    config = _config(distribution, max_delay)
    model = DelayModel(config, np.random.default_rng(seed))
    for (now, size), expected in zip(requests, _expected(config, seed, requests)):
        if size is None:
            delay = model.sample_delay(now)
            assert type(delay) is float and delay == expected
        else:
            delays = model.sample_delays(now, size)
            assert delays.dtype == np.float64 and delays.tolist() == expected


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=1e4),
    std=st.floats(min_value=0.0, max_value=1e3),
    now=st.floats(min_value=0, max_value=1e6),
)
def test_property_delays_respect_floor(mean, std, now):
    config = NetworkConfig(mean=mean, std=std, min_delay=1.0)
    model = DelayModel(config, np.random.default_rng(0))
    for _ in range(20):
        assert model.sample_delay(now) >= 1.0


class _NaNAbove60(DelaySampler):
    """Hostile input: NaN for every draw above 60 ms."""

    def sample_batch(self, rng, size):
        delays = rng.normal(50.0, 10.0, size)
        delays[delays > 60.0] = np.nan
        return delays


class _OneShort(DelaySampler):
    """Hostile input: one delay fewer than asked for."""

    def sample_batch(self, rng, size):
        return np.full(size - 1, 50.0)


register_distribution("test-nan-above-60", lambda mean, std: _NaNAbove60())
register_distribution("test-one-short", lambda mean, std: _OneShort())


class TestHostileSampler:
    """A sampler's output is checked where it enters the model.  A NaN
    delay used to reach the queue (pbft n=4 seed 1 still reported
    termination, with NaN-keyed entries left in the heap)."""

    @pytest.mark.parametrize("distribution", ["test-nan-above-60", "test-one-short"])
    def test_a_bad_block_is_a_configuration_error(self, distribution):
        config = SimulationConfig(
            protocol="pbft", n=4, seed=1, network=NetworkConfig(distribution=distribution)
        )
        with pytest.raises(ConfigurationError, match=f"delay distribution '{distribution}' drew"):
            run_simulation(config)

    def test_a_bad_block_is_one_cli_error_line(self, capsys):
        code = main(["run", "--protocol", "pbft", "-n", "4", "--seed", "1",
                     "--distribution", "test-nan-above-60"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: delay distribution 'test-nan-above-60' drew")
