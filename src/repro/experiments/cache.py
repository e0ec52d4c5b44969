"""Content-addressed on-disk cache for campaign seed runs.

A campaign seed run is a pure function of ``(scheduler, seed,
experiment kwargs)``: the simulator is deterministic, so the same
configuration always reproduces the same :class:`ExperimentResult` and
the same deterministic observability snapshot.  That makes seed runs
safely cacheable -- repeated sweeps (iterating on a figure, re-running
a campaign with more seeds, CI re-runs) skip every seed they have
already simulated.

Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the SHA-256 of
a canonical JSON fingerprint of the configuration (plus a format
version *and* the installed ``repro`` release, so entries invalidate
across releases instead of silently serving results produced under
older simulation semantics).  Entries are written atomically (temp
file + ``os.replace``) so a crashed or concurrent writer can never
leave a torn entry; an entry that fails to load or validate is treated
as a miss and overwritten -- but a *present-yet-unloadable* file is
surfaced (``cache.corrupt_entries`` counter plus a warning) so
operators can tell disk rot from ordinary cold misses.  A cached entry
stores the full result *and* the per-seed
:class:`~repro.obs.snapshot.ObsSnapshot` (when the producing run
collected one), so a warm-cache campaign merges byte-identical
deterministic counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.protocol.signal import SignalSet
from repro.obs.observability import NULL_OBS, ObsLike
from repro.obs.snapshot import ObsSnapshot

__all__ = ["CACHE_VERSION", "CacheEntry", "CampaignCache",
           "cache_key", "config_key", "fingerprint", "run_key"]

#: Bump on any change to the cached payload shape or to simulation
#: semantics that should invalidate old entries wholesale.  Version 2:
#: trace records became named tuples.  Version 3: a trace pickles as
#: primitive per-field columns.  Version 4: a trace's per-instance state
#: is a tuple of primitives (plus a chunk map) instead of a dataclass.
#: Version 5: a ``PendingFrame`` the cached policy still queues is a
#: named tuple, which an entry pickled from the dataclass cannot build.
#: Version 6: the cached CoEfficient policy keeps its soft-aperiodic pool
#: as per-frame lists (``_soft_pool``) instead of one heap.
CACHE_VERSION = 6


def fingerprint(value: object) -> object:
    """Canonical, JSON-able description of one configuration value.

    Dataclasses (``SegmentGeometry``, ``Signal`` ...) decompose into their
    fields, signal sets into their ordered signals, floats into their
    exact ``repr`` (so 0.1 and 0.1000000000000001 differ), and anything
    unrecognized falls back to ``repr`` -- a conservative choice that
    can only cause spurious misses, never false hits between genuinely
    different configurations.
    """
    if isinstance(value, SignalSet):
        return {"__signal_set__": value.name,
                "signals": [fingerprint(s) for s in value]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        described = {"__dataclass__": type(value).__name__,
                     "fields": fingerprint(dataclasses.asdict(value))}
        # Backend identity: two protocols' geometries must never
        # fingerprint identically, even if their field values (or even
        # class names, in a pathological backend) coincide.
        protocol = getattr(value, "protocol", None)
        if isinstance(protocol, str):
            described["__protocol__"] = protocol
        return described
    if isinstance(value, Mapping):
        return {str(key): fingerprint(val)
                for key, val in sorted(value.items(),
                                       key=lambda item: str(item[0]))}
    if isinstance(value, (list, tuple)):
        return [fingerprint(item) for item in value]
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return {"__repr__": repr(value)}


def _package_version() -> str:
    """The installed ``repro`` release (lazy: avoids an import cycle)."""
    from repro import __version__

    return __version__


def cache_key(scheduler: str, seed: int,
              experiment_kwargs: Mapping[str, object]) -> str:
    """SHA-256 content key of one seed run's full configuration.

    The key covers the package release alongside ``CACHE_VERSION``:
    simulation semantics may change between releases without anyone
    remembering to bump the cache format, and a stale hit would
    silently mix results from two different simulators.  It also names
    the *protocol backend* explicitly (read off the ``params`` value),
    so runs of different backends can never collide even if their
    remaining configuration is identical.
    """
    payload = {
        "version": CACHE_VERSION,
        "repro_version": _package_version(),
        "protocol": _protocol_of(experiment_kwargs),
        "scheduler": scheduler,
        "seed": seed,
        "kwargs": fingerprint(experiment_kwargs),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _protocol_of(experiment_kwargs: Mapping[str, object]) -> Optional[str]:
    """Backend identity of a run's geometry (``None`` when paramless)."""
    protocol = getattr(experiment_kwargs.get("params"), "protocol", None)
    return protocol if isinstance(protocol, str) else None


def _strip_engine_mode(experiment_kwargs: Mapping[str, object],
                       ) -> Mapping[str, object]:
    return {key: value for key, value in experiment_kwargs.items()
            if key != "engine_mode"}


def run_key(scheduler: str, seed: int,
            experiment_kwargs: Mapping[str, object]) -> str:
    """Engine-independent content key of one run.

    Same fingerprint as :func:`cache_key` with ``engine_mode`` stripped
    from the kwargs first: the three engines are trace-equivalent by
    contract, so the same configuration simulated under any of them is
    the *same run*.  The result store keys runs this way, which is what
    lets it line digests from different engines up against each other.
    """
    return cache_key(scheduler, seed, _strip_engine_mode(experiment_kwargs))


def config_key(scheduler: str,
               experiment_kwargs: Mapping[str, object]) -> str:
    """Seed- and engine-independent key of one campaign configuration.

    Two campaigns over the same workload/scheduler/parameters share this
    key even when run with different seed lists, which is the facet the
    result store groups campaigns by.
    """
    payload = {
        "version": CACHE_VERSION,
        "repro_version": _package_version(),
        "protocol": _protocol_of(experiment_kwargs),
        "scheduler": scheduler,
        "kwargs": fingerprint(_strip_engine_mode(experiment_kwargs)),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One cached seed run: the result plus its obs snapshot (if any)."""

    result: object
    snapshot: Optional[ObsSnapshot]


class CampaignCache:
    """Filesystem-backed store of completed campaign seed runs.

    Args:
        root: Cache directory (created if missing).
        obs: Observability context; corrupt-entry detections increment
            ``cache.corrupt_entries`` on it.
    """

    def __init__(self, root: str, obs: ObsLike = NULL_OBS) -> None:
        self.root = root
        self._obs = obs
        os.makedirs(root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def key_for(self, scheduler: str, seed: int,
                experiment_kwargs: Mapping[str, object]) -> str:
        return cache_key(scheduler, seed, experiment_kwargs)

    def load(self, key: str, need_obs: bool = False) -> Optional[CacheEntry]:
        """Fetch an entry, or ``None`` on miss.

        ``need_obs=True`` demands a stored observability snapshot: an
        entry produced by an unobserved run cannot serve an observed
        campaign (its counters would silently vanish from the
        aggregate), so it reads as a miss and gets re-simulated.

        A file that exists but cannot be unpickled is still a miss --
        the seed is simply re-simulated and the entry overwritten --
        but the event is surfaced (``cache.corrupt_entries`` counter,
        ``RuntimeWarning``): torn writes are prevented by the atomic
        store, so an unloadable entry means disk rot, an external
        writer, or a class whose shape changed since the entry was
        written (its pickled state no longer fits: ``TypeError``),
        which operators should know about.  Entries from other
        :data:`CACHE_VERSION` s or other code versions load fine and
        are *valid* misses, not corruption.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None  # an ordinary cold miss
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError) as error:
            self._note_corrupt(path, repr(error))
            return None
        if not isinstance(payload, dict) or "result" not in payload:
            self._note_corrupt(
                path, f"unexpected payload {type(payload).__name__}")
            return None
        if payload.get("version") != CACHE_VERSION:
            return None  # another format version: a valid miss
        snapshot = payload.get("snapshot")
        if need_obs and snapshot is None:
            return None
        return CacheEntry(result=payload["result"], snapshot=snapshot)

    def _note_corrupt(self, path: str, detail: str) -> None:
        """Surface one unloadable-entry event (counter + warning)."""
        if self._obs.enabled:
            self._obs.inc("cache.corrupt_entries")
        warnings.warn(
            f"campaign cache entry {path} is unreadable and will be "
            f"re-simulated ({detail}); check the cache volume for "
            f"corruption", RuntimeWarning, stacklevel=3)

    def store(self, key: str, result: object,
              snapshot: Optional[ObsSnapshot]) -> None:
        """Atomically persist one seed run under its content key."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"version": CACHE_VERSION, "result": result,
                   "snapshot": snapshot}
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                         suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
