"""The bundled workload names the CLI, runner and service accept."""

from repro.protocol.signal import SignalSet
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.synthetic import synthetic_signals

__all__ = ["bundled_periodic"]


def bundled_periodic(name: str, count: int = 20, seed: int = 42) -> SignalSet:
    """The periodic signal set a bundled workload name stands for.

    ``bbw``/``acc`` are the case studies; ``synthetic`` is ``count``
    seeded synthetic signals with payloads up to 216 bits.
    """
    if name == "bbw":
        return bbw_signals()
    if name == "acc":
        return acc_signals()
    if name == "synthetic":
        return synthetic_signals(count, seed=seed, max_size_bits=216)
    raise ValueError(f"unknown workload {name!r}")
