"""Alias of :mod:`repro.protocol.signal` for the benchmark harness.

The engine's signal model lives in :mod:`repro.protocol.signal`, and
every module and test imports it from there.  This one re-export is
kept only because ``perfbench/wl_engine.py`` imports ``Signal`` and
``SignalSet`` from ``repro.flexray.signal``; delete it together with
that import the next time the benchmark harness changes.
"""

from repro.protocol.signal import *  # noqa: F401,F403
from repro.protocol.signal import __all__  # noqa: F401
