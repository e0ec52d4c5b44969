"""Unit tests for the fault injectors."""

import pytest

from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import BurstFaultInjector, TransientFaultInjector
from repro.protocol.channel import Channel
from repro.sim.rng import RngStream


class TestTransientFaultInjector:
    def test_fault_free_medium(self, rng):
        injector = TransientFaultInjector(
            BitErrorRateModel(ber_channel_a=0.0), rng)
        assert not any(injector(Channel.A, 1000, t) for t in range(100))
        assert injector.injected == 0
        assert injector.consulted == 100

    def test_observed_rate_matches_ber(self):
        ber = 1e-3
        bits = 1000
        expected = 1.0 - (1.0 - ber) ** bits  # ~0.632
        injector = TransientFaultInjector(
            BitErrorRateModel(ber_channel_a=ber), RngStream(3, "inj"))
        hits = sum(injector(Channel.A, bits, t) for t in range(5000))
        assert abs(hits / 5000 - expected) < 0.03
        assert injector.observed_rate() == pytest.approx(hits / 5000)

    def test_deterministic_per_seed(self):
        def pattern(seed):
            injector = TransientFaultInjector(
                BitErrorRateModel(ber_channel_a=1e-2),
                RngStream(seed, "det"))
            return [injector(Channel.A, 50, t) for t in range(100)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_channels_draw_independently(self):
        injector = TransientFaultInjector(
            BitErrorRateModel(ber_channel_a=1e-2), RngStream(3, "chan"))
        a = [injector(Channel.A, 50, t) for t in range(200)]
        b = [injector(Channel.B, 50, t) for t in range(200)]
        assert a != b

    def test_channel_a_unchanged_by_channel_b_traffic(self):
        def channel_a_pattern(with_b_traffic):
            injector = TransientFaultInjector(
                BitErrorRateModel(ber_channel_a=1e-2),
                RngStream(11, "iso"))
            out = []
            for t in range(100):
                if with_b_traffic:
                    injector(Channel.B, 50, t)
                out.append(injector(Channel.A, 50, t))
            return out

        assert channel_a_pattern(False) == channel_a_pattern(True)

    def test_observed_rate_empty(self, rng):
        injector = TransientFaultInjector(
            BitErrorRateModel(ber_channel_a=0.0), rng)
        assert injector.observed_rate() == 0.0


class TestBurstFaultInjector:
    def test_validation(self, rng, fault_free):
        with pytest.raises(ValueError):
            BurstFaultInjector(fault_free, rng, burst_ber=1.0)
        with pytest.raises(ValueError):
            BurstFaultInjector(fault_free, rng, burst_rate_per_ms=-1.0)
        with pytest.raises(ValueError):
            BurstFaultInjector(fault_free, rng, burst_length_mt=0)

    def test_no_bursts_no_faults(self, rng, fault_free):
        injector = BurstFaultInjector(fault_free, rng,
                                      burst_rate_per_ms=0.0)
        assert not any(injector(Channel.A, 1000, t * 100)
                       for t in range(200))

    def test_bursts_cluster_in_time(self):
        injector = BurstFaultInjector(
            BitErrorRateModel(ber_channel_a=0.0),
            RngStream(3, "burst"),
            burst_ber=0.01,           # nearly certain corruption in burst
            burst_rate_per_ms=0.5,
            burst_length_mt=1000,
        )
        outcomes = [injector(Channel.A, 2000, t * 50) for t in range(2000)]
        hits = sum(outcomes)
        assert hits > 10
        # Correlation check: a hit is much more likely right after a hit
        # than unconditionally (bursty, not memoryless).
        follow = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        follow_rate = follow / max(1, hits)
        assert follow_rate > hits / len(outcomes)

    def test_observed_rate(self, rng, fault_free):
        injector = BurstFaultInjector(fault_free, rng,
                                      burst_rate_per_ms=0.0)
        injector(Channel.A, 1000, 0)
        assert injector.observed_rate() == 0.0


class TestBatchDrawOrder:
    """The batch oracle must replay the scalar consult order exactly."""

    def test_batch_matches_scalar_per_channel(self):
        model = BitErrorRateModel(ber_channel_a=0.05)
        # Long enough to exercise the numpy batch path, not just the
        # small-batch scalar shortcut inside bernoulli_batch.
        bits = [128, 336, 64, 336, 200, 128, 64, 336] * 3
        scalar = TransientFaultInjector(model, RngStream(4, "experiment"))
        expected = {
            channel: [scalar(channel, b, i) for i, b in enumerate(bits)]
            for channel in (Channel.A, Channel.B)
        }
        batched = TransientFaultInjector(model, RngStream(4, "experiment"))
        for channel in (Channel.A, Channel.B):
            assert batched.batch(channel, bits) == expected[channel]
        assert batched.consulted == scalar.consulted
        assert batched.injected == scalar.injected

    def test_batch_matches_interleaved_scalar_consults(self):
        """Slot-major interleaving across channels (the interpreter's
        consult order) equals two per-channel batches (the vectorized
        engine's order) -- the core soundness claim of the batch split."""
        model = BitErrorRateModel(ber_channel_a=0.08, ber_channel_b=0.02)
        bits = [128, 336, 64, 200, 336, 64]
        scalar = TransientFaultInjector(model, RngStream(9, "experiment"))
        seen = {Channel.A: [], Channel.B: []}
        for i, b in enumerate(bits):  # interleaved, A then B per slot
            seen[Channel.A].append(scalar(Channel.A, b, i))
            seen[Channel.B].append(scalar(Channel.B, b, i))
        batched = TransientFaultInjector(model, RngStream(9, "experiment"))
        assert batched.batch(Channel.A, bits) == seen[Channel.A]
        assert batched.batch(Channel.B, bits) == seen[Channel.B]

    def test_empty_batch_consumes_nothing(self):
        model = BitErrorRateModel(ber_channel_a=0.05)
        injector = TransientFaultInjector(model, RngStream(6, "experiment"))
        assert injector.batch(Channel.A, []) == []
        reference = TransientFaultInjector(model, RngStream(6, "experiment"))
        assert injector(Channel.A, 128, 0) == reference(Channel.A, 128, 0)
