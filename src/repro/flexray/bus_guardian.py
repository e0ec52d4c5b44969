"""Bus guardian and the babbling-idiot fault.

A TDMA bus has one catastrophic single-node failure mode the BER model
cannot express: a *babbling idiot* -- a node whose controller fails in a
way that transmits at arbitrary times, colliding with everyone's slots
and taking the whole channel down.  FlexRay's defence is the **bus
guardian** (spec chapter 9): an independent device between the
controller and the bus driver that knows the schedule and only enables
the transmitter during the node's own slots, containing the babble to
the slots the faulty node legitimately owns.

:class:`BabblingIdiotScenario` is a fault-oracle wrapper implementing
both sides:

- guardian *disabled*: while the faulty node babbles, every transmission
  on the affected channels collides (duty-cycled by
  ``babble_duty``) -- the catastrophic case;
- guardian *enabled*: only transmissions in slots the faulty node owns
  are corrupted -- the contained case, where the cluster keeps running
  minus the faulty node's own traffic.

The tests and the fault-injection example quantify the difference.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.protocol.channel import Channel
from repro.protocol.contracts import FaultOracle
from repro.protocol.cycle import CycleLayout
from repro.flexray.params import FlexRayParams
from repro.protocol.schedule import ScheduleTable
from repro.sim.rng import RngStream

__all__ = ["BabblingIdiotScenario"]


def _clean_medium(channel: Channel, bits: int, time_mt: int) -> bool:
    return False


class BabblingIdiotScenario:
    """Fault oracle for a babbling node, with optional guardian.

    Args:
        params: Cluster configuration.
        table: The static schedule (slot ownership source).
        faulty_node: Producer ECU index of the babbling node.
        start_mt: When the babble begins.
        guardian: Whether the faulty node's bus guardian is present.
        babble_duty: Fraction of the time the faulty transmitter is
            actually driving the bus while babbling (collisions are
            drawn per transmission attempt).
        channels: Channels physically reachable by the faulty node
            (defaults to both).
        rng: Stream for the duty-cycle draws.
        inner: Underlying transient oracle consulted when the babble
            does not hit.
    """

    def __init__(
        self,
        params: FlexRayParams,
        table: ScheduleTable,
        faulty_node: int,
        start_mt: int = 0,
        guardian: bool = True,
        babble_duty: float = 1.0,
        channels: Optional[Set[Channel]] = None,
        rng: Optional[RngStream] = None,
        inner: FaultOracle = _clean_medium,
    ) -> None:
        if faulty_node < 0:
            raise ValueError("faulty_node must be >= 0")
        if start_mt < 0:
            raise ValueError("start_mt must be >= 0")
        if not 0.0 <= babble_duty <= 1.0:
            raise ValueError("babble_duty must be in [0, 1]")
        self._params = params
        self._layout = CycleLayout(params)
        self._table = table
        self._faulty_node = faulty_node
        self._start = start_mt
        self._guardian = guardian
        self._duty = babble_duty
        self._channels = channels if channels is not None \
            else {Channel.A, Channel.B}
        self._rng = (rng or RngStream(0, "babbling-idiot")).split("duty")
        self._inner = inner
        self.collisions = 0
        # Slots owned by the faulty node, per channel (any cycle).
        self._owned: Dict[Channel, Set[int]] = {}
        for channel in (Channel.A, Channel.B):
            owned = {
                assignment.slot_id
                for assignment in table.assignments(channel)
                if assignment.frame.producer_ecu == faulty_node
            }
            self._owned[channel] = owned

    def owned_slots(self, channel: Channel) -> Set[int]:
        """Static slots the faulty node owns on a channel."""
        return set(self._owned.get(channel, set()))

    def _slot_of(self, time_mt: int) -> Optional[int]:
        """Static slot ID containing a time, or ``None`` (dynamic/NIT)."""
        in_cycle = time_mt % self._params.gd_cycle_mt
        if in_cycle >= self._params.static_segment_mt:
            return None
        return in_cycle // self._params.gd_static_slot_mt + 1

    def __call__(self, channel: Channel, bits: int, time_mt: int) -> bool:
        """Fault oracle; see class docstring for the two regimes."""
        if time_mt >= self._start and channel in self._channels:
            if self._guardian:
                # Contained: only the faulty node's own slots carry its
                # garbage (its controller output is corrupt even there).
                slot = self._slot_of(time_mt)
                if slot is not None and slot in self._owned[channel]:
                    self.collisions += 1
                    return True
            else:
                # Uncontained: the babble collides with everything the
                # transmitter is driving over.
                if self._duty >= 1.0 or self._rng.bernoulli(self._duty):
                    self.collisions += 1
                    return True
        return self._inner(channel, bits, time_mt)
