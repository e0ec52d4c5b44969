"""Unit tests for the fault injectors."""

import itertools
import pickle

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


class TableModel:
    """A BER stand-in whose failure probability is looked up by bits,
    so a test can feed the injector any probability sequence."""

    def __init__(self, probabilities):
        self._probabilities = dict(enumerate(probabilities))

    def failure_probability(self, channel, bits):
        return self._probabilities[bits]


def scalar_reference(seed, scope, channel, probabilities):
    """The scalar ``bernoulli`` loop on the channel's private stream."""
    stream = RngStream(seed, scope).split(f"faults/{channel.value}")
    return [stream.bernoulli(p) for p in probabilities]


class TestFaultColumnDrawOrder:
    """Pin the exact draw order of the per-channel fault column.

    The column is only trace-equivalent to scalar Bernoulli draws
    because these hold bit for bit; each gets its own regression here,
    so a numpy upgrade or refactor that silently breaks one fails
    loudly:

    1. every consult equals ``RngStream.bernoulli`` on the channel's
       stream, however the consults split into ``__call__`` and
       ``batch`` and wherever they cross a column block;
    2. degenerate probabilities (0.0 / 1.0) consume no uniform;
    3. the two channels' columns never perturb each other.
    """

    PROBS = (0.5, 0.0, 0.25, 1.0, 0.75, 0.5, 0.0, 0.9, 0.1, 0.5, 1.0,
             0.33)

    def injector(self, seed, scope, probabilities=PROBS):
        return TransientFaultInjector(TableModel(probabilities),
                                      RngStream(seed, scope))

    def test_batch_matches_scalar_loop(self):
        # 30x the pattern: ~230 draws, most of one column block.
        bits = list(range(len(self.PROBS))) * 30
        probabilities = [self.PROBS[b] for b in bits]
        injector = self.injector(99, "order")
        assert injector.batch(Channel.A, bits) == scalar_reference(
            99, "order", Channel.A, probabilities)

    def test_short_batch_matches_scalar_loop(self):
        bits = list(range(len(self.PROBS)))
        injector = self.injector(99, "order")
        assert injector.batch(Channel.A, bits) == scalar_reference(
            99, "order", Channel.A, self.PROBS)

    def test_golden_sequence(self):
        """The literal sequences for a pinned seed: any drift fails."""
        bits = list(range(len(self.PROBS)))
        expected_a = [True, False, True, True, True, False, False, True,
                      False, True, True, True]
        expected_b = [False, False, False, True, True, True, False, True,
                      False, True, True, False]
        batched = self.injector(2026, "draw-order-golden")
        assert batched.batch(Channel.A, bits) == expected_a
        assert batched.batch(Channel.B, bits) == expected_b
        scalar = self.injector(2026, "draw-order-golden")
        assert [scalar(Channel.A, b, 0) for b in bits] == expected_a
        # The scalar Bernoulli sequence on the unsplit scope, pinned
        # since the batched draw path was introduced.
        stream = RngStream(2026, "draw-order-golden")
        assert [stream.bernoulli(p) for p in self.PROBS] == [
            True, False, True, True, True, False, False, True, False,
            False, True, True]

    def test_mixed_consults_cross_block_boundaries(self):
        """Scalar and batched consults share one column: any split of
        the consult sequence, across several refills, gives the scalar
        loop's verdicts."""
        pattern = list(range(len(self.PROBS)))
        bits = pattern * 70  # ~540 draws: two refills
        injector = self.injector(5, "mixed")
        verdicts = []
        position = 0
        for size in itertools.cycle((1, 37, 0, 1, 1, 120, 3)):
            if position >= len(bits):
                break
            chunk = bits[position:position + size]
            if size == 1:
                verdicts.append(injector(Channel.A, chunk[0], position))
            else:
                verdicts.extend(injector.batch(Channel.A, chunk))
            position += len(chunk)
        assert verdicts == scalar_reference(
            5, "mixed", Channel.A, [self.PROBS[b] for b in bits])
        assert injector.consulted == len(bits)
        assert injector.injected == sum(verdicts)

    def test_degenerate_probabilities_consume_no_draw(self):
        """0.0/1.0 consults answer without advancing the column."""
        degenerate = self.injector(7, "degenerate",
                                   probabilities=(0.0, 0.5, 1.0))
        plain = self.injector(7, "degenerate",
                              probabilities=(0.0, 0.5, 1.0))
        mixed = [2, 1, 0, 1, 0, 2, 2, 1, 1, 0, 1]
        verdicts = degenerate.batch(Channel.A, mixed)
        assert [v for b, v in zip(mixed, verdicts) if b == 0] == \
            [False] * mixed.count(0)
        assert [v for b, v in zip(mixed, verdicts) if b == 2] == \
            [True] * mixed.count(2)
        draws = [v for b, v in zip(mixed, verdicts) if b == 1]
        assert draws == plain.batch(Channel.A, [1] * len(draws))
        # Both columns now stand at the same uniform.
        assert degenerate(Channel.A, 1, 0) == plain(Channel.A, 1, 0)

    def test_interleaved_channels_do_not_perturb_each_other(self):
        """Consult order across channels never changes either channel's
        own sequence -- the property that lets the vectorized engine
        batch per channel."""
        bits = [1, 4, 9, 11, 0, 2, 5] * 50
        probabilities = [self.PROBS[b] for b in bits]
        injector = self.injector(11, "inter")
        seen = {Channel.A: [], Channel.B: []}
        for start in range(0, len(bits), 25):
            chunk = bits[start:start + 25]
            for b in chunk[:5]:
                seen[Channel.A].append(injector(Channel.A, b, 0))
                seen[Channel.B].append(injector(Channel.B, b, 0))
            seen[Channel.B].extend(injector.batch(Channel.B, chunk[5:]))
            seen[Channel.A].extend(injector.batch(Channel.A, chunk[5:]))
        for channel in (Channel.A, Channel.B):
            assert seen[channel] == scalar_reference(
                11, "inter", channel, probabilities)

    def test_pickled_mid_column_resumes_identically(self):
        bits = list(range(len(self.PROBS))) * 25
        injector = self.injector(13, "resume")
        injector.batch(Channel.A, bits)  # ~190 draws into the column
        injector(Channel.B, 0, 0)
        clone = pickle.loads(pickle.dumps(injector))
        for channel in (Channel.A, Channel.B):
            assert clone.batch(channel, bits * 2) == \
                injector.batch(channel, bits * 2)
        assert clone.consulted == injector.consulted
        assert clone.injected == injector.injected

    @pytest.mark.parametrize("probability", (-0.1, 1.5))
    def test_probability_validated_on_entry(self, probability):
        injector = self.injector(1, "validate",
                                 probabilities=(0.5, probability))
        assert injector.batch(Channel.A, [0]) in ([True], [False])
        with pytest.raises(ValueError, match="probability must be in"):
            injector.batch(Channel.A, [1])
        with pytest.raises(ValueError, match="probability must be in"):
            injector(Channel.B, 1, 0)
