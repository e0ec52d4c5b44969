"""CoEfficient: cooperative and efficient real-time scheduling for
time-triggered automotive communications.

A from-scratch reproduction of Hua, Rao, Liu & Feng (ICDCS 2014): a
cycle-accurate cluster simulator for time-triggered rounds (dual
channels, TDMA static segment, minislot-arbitrated dynamic segment), a
BER-based transient-fault model, the CoEfficient scheduler (cooperative
dual-channel scheduling, selective slack stealing, differentiated
retransmission against an IEC 61508 reliability goal), and the FSPEC /
static-only / dynamic-priority baselines it is evaluated against.

The scheduling core (:mod:`repro.protocol`) is protocol-neutral;
concrete protocols plug in as backends -- FlexRay
(:mod:`repro.flexray`, the paper's platform) and time-triggered
Ethernet (:mod:`repro.ttethernet`) -- resolved by name through
:func:`repro.protocol.backend.get_backend`.

Quickstart::

    from repro.experiments.runner import run_experiment
    from repro.flexray.params import paper_dynamic_preset
    from repro.workloads.sae import sae_aperiodic_signals
    from repro.workloads.synthetic import synthetic_signals

    result = run_experiment(
        params=paper_dynamic_preset(minislots=100),
        scheduler="coefficient",
        periodic=synthetic_signals(20, max_size_bits=216),
        aperiodic=sae_aperiodic_signals(),
        ber=1e-7,
        duration_ms=500.0,
    )
    print(result.row())
"""

__version__ = "1.1.0"
