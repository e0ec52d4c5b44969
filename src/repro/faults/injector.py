"""Seeded transient-fault injectors.

The segment engines consult a fault oracle ``(channel, bits, time) ->
corrupted?`` for every transmission.  Two oracles are provided:

- :class:`TransientFaultInjector` -- independent per-frame Bernoulli
  corruption at ``p = 1 - (1 - BER)^bits``; the memoryless model the
  paper's probability analysis (Theorem 1) assumes.
- :class:`BurstFaultInjector` -- a two-state Gilbert-Elliott-style model
  where interference arrives in bursts; used by the robustness tests to
  check that CoEfficient's reliability margin survives correlated faults
  that violate Theorem 1's independence assumption.

Each channel draws from its own split of the experiment's RNG stream, so
channel A's fault pattern is unchanged when channel B's traffic changes
-- a property the A/B comparison experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.faults.ber import BitErrorRateModel, frame_failure_probability
from repro.protocol.channel import Channel
from repro.sim.rng import RngStream

__all__ = ["TransientFaultInjector", "BurstFaultInjector"]


#: Uniforms each channel's fault column draws ahead at a time.  Cached
#: campaign results carry their injector, column included, so the block
#: stays small.
_COLUMN_BLOCK = 256


class TransientFaultInjector:
    """Independent per-frame Bernoulli corruption.

    Each channel's verdicts come from a column of uniforms drawn ahead,
    :data:`_COLUMN_BLOCK` at a time, from that channel's private stream.
    A consult with failure probability ``p`` strictly between 0 and 1
    takes the next uniform ``u`` and reports corruption iff ``u < p``;
    ``p`` of 0 or 1 takes none.  That is exactly the sequence
    :meth:`~repro.sim.rng.RngStream.bernoulli` calls on the stream would
    give, since one ``uniforms(k)`` draw equals ``k`` scalar draws.

    Args:
        model: The BER environment.
        rng: Experiment RNG stream; split per channel internally.
    """

    def __init__(self, model: BitErrorRateModel, rng: RngStream) -> None:
        self._model = model
        self._streams: Dict[str, RngStream] = {
            "A": rng.split("faults/A"),
            "B": rng.split("faults/B"),
        }
        # channel name -> {bits: failure probability}.  The BER model is
        # immutable for the injector's lifetime, so the memo never goes
        # stale; each probability is validated once, on entry.
        self._probability_memo: Dict[str, Dict[int, float]] = {
            "A": {}, "B": {},
        }
        # channel name -> (drawn uniforms, index of the next unused one)
        self._columns: Dict[str, List[float]] = {"A": [], "B": []}
        self._cursors: Dict[str, int] = {"A": 0, "B": 0}
        self.injected = 0
        self.consulted = 0

    @property
    def model(self) -> BitErrorRateModel:
        """The BER environment in force."""
        return self._model

    def __call__(self, channel: Channel, bits: int, time_mt: int) -> bool:
        """Fault oracle: does this transmission get corrupted?"""
        return self._verdicts(channel.value, (bits,))[0]

    def batch(self, channel: Channel, bits_list: Sequence[int]) -> List[bool]:
        """Batched fault oracle for one channel, draw-order compatible.

        Equivalent to consulting ``__call__`` once per entry of
        ``bits_list`` in order on ``channel``: both read the same
        per-channel column.  Because each channel owns an independent
        stream and column, interleaving consults of the *other* channel
        does not perturb this channel's sequence, which is what lets the
        vectorized engine split a cycle's slot-major consult order into
        two per-channel batches.

        Args:
            channel: The channel all transmissions share.
            bits_list: Total frame bits per transmission, consult order.

        Returns:
            One corruption verdict per transmission, in order.

        Raises:
            ValueError: The BER model gave a failure probability outside
                ``[0, 1]`` (checked once per bit count).
        """
        return self._verdicts(channel.value, bits_list)

    def _verdicts(self, name: str, bits_list: Sequence[int]) -> List[bool]:
        """Consult channel ``name``'s column once per entry, in order."""
        memo = self._probability_memo[name]
        column = self._columns[name]
        cursor = self._cursors[name]
        verdicts = []
        append = verdicts.append
        for bits in bits_list:
            probability = memo.get(bits)
            if probability is None:
                probability = self._model.failure_probability(name, bits)
                if not 0.0 <= probability <= 1.0:
                    raise ValueError(
                        f"probability must be in [0, 1], got {probability}")
                memo[bits] = probability
            if 0.0 < probability < 1.0:
                if cursor == len(column):
                    column = self._streams[name].uniforms(_COLUMN_BLOCK)
                    cursor = 0
                append(column[cursor] < probability)
                cursor += 1
            else:
                append(probability == 1.0)
        self._columns[name] = column
        self._cursors[name] = cursor
        self.consulted += len(verdicts)
        self.injected += sum(verdicts)
        return verdicts

    def observed_rate(self) -> float:
        """Fraction of consulted transmissions corrupted so far."""
        return self.injected / self.consulted if self.consulted else 0.0


@dataclass
class _BurstState:
    """Mutable per-channel Gilbert-Elliott state."""

    in_burst: bool = False
    burst_until_mt: int = -1


class BurstFaultInjector:
    """Correlated (bursty) transient faults.

    The channel alternates between a *good* state with the nominal BER
    and a *burst* state with an elevated BER.  Bursts start at rate
    ``burst_rate_per_ms`` and last ``burst_length_mt`` macroticks --
    modelling ignition interference or EMC events that corrupt several
    consecutive frames.

    Args:
        model: Nominal (good-state) BER environment.
        rng: Experiment RNG stream.
        burst_ber: BER during a burst (e.g. 1e-3).
        burst_rate_per_ms: Expected burst starts per millisecond.
        burst_length_mt: Burst duration in macroticks.
        macrotick_us: Macrotick length (to convert the burst rate).
    """

    def __init__(self, model: BitErrorRateModel, rng: RngStream,
                 burst_ber: float = 1e-3, burst_rate_per_ms: float = 0.01,
                 burst_length_mt: int = 500,
                 macrotick_us: float = 1.0) -> None:
        if not 0.0 <= burst_ber < 1.0:
            raise ValueError(f"burst BER must be in [0, 1), got {burst_ber}")
        if burst_rate_per_ms < 0:
            raise ValueError("burst rate must be >= 0")
        if burst_length_mt <= 0:
            raise ValueError("burst length must be positive")
        self._model = model
        self._burst_ber = burst_ber
        self._burst_start_probability_per_mt = (
            burst_rate_per_ms * macrotick_us / 1000.0
        )
        self._burst_length_mt = burst_length_mt
        self._streams: Dict[str, RngStream] = {
            "A": rng.split("burst-faults/A"),
            "B": rng.split("burst-faults/B"),
        }
        self._states: Dict[str, _BurstState] = {
            "A": _BurstState(), "B": _BurstState(),
        }
        self._last_time: Dict[str, int] = {"A": 0, "B": 0}
        self.injected = 0
        self.consulted = 0

    def __call__(self, channel: Channel, bits: int, time_mt: int) -> bool:
        """Fault oracle with burst-state evolution."""
        self.consulted += 1
        name = channel.value
        stream = self._streams[name]
        state = self._states[name]

        # Evolve the burst state over the time elapsed since last consult.
        elapsed = max(0, time_mt - self._last_time[name])
        self._last_time[name] = time_mt
        if state.in_burst and time_mt >= state.burst_until_mt:
            state.in_burst = False
        if not state.in_burst and elapsed > 0:
            start_probability = min(
                1.0, self._burst_start_probability_per_mt * elapsed
            )
            if stream.bernoulli(start_probability):
                state.in_burst = True
                state.burst_until_mt = time_mt + self._burst_length_mt

        ber = self._burst_ber if state.in_burst \
            else self._model.ber_for(name)
        corrupted = stream.bernoulli(frame_failure_probability(ber, bits))
        if corrupted:
            self.injected += 1
        return corrupted

    def observed_rate(self) -> float:
        """Fraction of consulted transmissions corrupted so far."""
        return self.injected / self.consulted if self.consulted else 0.0
