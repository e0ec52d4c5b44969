"""Workload generators.

- :mod:`repro.workloads.bbw` -- the Brake-By-Wire case study, message
  parameters regenerated verbatim from the paper's Table II;
- :mod:`repro.workloads.acc` -- the Adaptive Cruise Controller case
  study, Table III verbatim;
- :mod:`repro.workloads.synthetic` -- the synthetic static test cases of
  Section IV-A (periods 5-50 ms, deadlines 1-20 ms, seeded);
- :mod:`repro.workloads.sae` -- the SAE J2056/1-style aperiodic message
  set (30 messages, 50 ms period and deadline, IDs mapped after the
  static slots).
"""

from repro.protocol.signal import SignalSet
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals
from repro.workloads.uunifast import uunifast_signals, uunifast_utilizations

__all__ = [
    "acc_signals",
    "bbw_signals",
    "bundled_periodic",
    "sae_aperiodic_signals",
    "synthetic_signals",
    "uunifast_signals",
    "uunifast_utilizations",
]


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
