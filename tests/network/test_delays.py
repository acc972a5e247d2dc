"""Tests for delay distributions and the delay model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NetworkConfig
from repro.core.errors import ConfigurationError
from repro.network.delays import (
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
        sampler = ConstantDelay(100.0)
        assert all(sampler.sample(rng) == 100.0 for _ in range(10))

    @pytest.mark.parametrize(
        "cls", [UniformDelay, NormalDelay, LogNormalDelay]
    )
    def test_mean_and_std_match_target(self, cls, rng):
        sampler = cls(200.0, 40.0)
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(200.0, rel=0.05)
        assert samples.std() == pytest.approx(40.0, rel=0.10)

    def test_exponential_mean(self, rng):
        sampler = ExponentialDelay(150.0)
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(150.0, rel=0.05)

    def test_poisson_mean_and_integrality(self, rng):
        sampler = PoissonDelay(30.0)
        samples = [sampler.sample(rng) for _ in range(5_000)]
        assert np.mean(samples) == pytest.approx(30.0, rel=0.1)
        assert all(s == int(s) for s in samples)

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
        assert sampler.sample(np.random.default_rng(0)) == 7.0
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
    """A custom sampler that only defines the scalar draw."""

    def sample(self, rng):
        return abs(rng.normal(40.0, 25.0))


register_distribution("test-half-normal", lambda mean, std: _HalfNormal())


class TestBatchEqualsScalar:
    """``sample_delays(now, k)`` is k successive ``sample_delay(now)`` bit
    for bit — the contract that lets a broadcast draw its delays in one
    batch without moving a single fingerprint."""

    @pytest.mark.parametrize(
        "distribution",
        ["constant", "uniform", "normal", "lognormal", "exponential", "poisson",
         "test-half-normal"],
    )
    @pytest.mark.parametrize("max_delay", [None, 60.0])
    @pytest.mark.parametrize("now", [0.0, 5_000.0])  # before and after GST
    def test_batch_draw_is_the_scalar_sequence(self, distribution, max_delay, now):
        config = NetworkConfig(
            distribution=distribution, mean=50.0, std=30.0, min_delay=20.0,
            max_delay=max_delay, gst=1_000.0, pre_gst_factor=3.0,
        )
        scalar = DelayModel(config, np.random.default_rng(7))
        batch = DelayModel(config, np.random.default_rng(7))
        # Interleaved sizes (0 and 1 included): the stream position after a
        # batch must equal the position after as many scalar draws.
        for size in (5, 0, 1, 127, 3):
            expected = [scalar.sample_delay(now) for _ in range(size)]
            drawn = batch.sample_delays(now, size)
            assert drawn.dtype == np.float64
            assert drawn.tolist() == expected
            assert (now + drawn).tolist() == [now + delay for delay in expected]
        assert batch.sample_delay(now) == scalar.sample_delay(now)


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
