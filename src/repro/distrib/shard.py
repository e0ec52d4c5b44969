"""Shard child processes of the sharded admission service.

Each shard is a full :class:`~repro.service.server.AdmissionService`
restricted to the channels rendezvous hashing assigned to it: its own
:class:`~repro.service.ledger.SlackLedger` per owned channel, its own
request batcher, its own reconciliation loop.  Its only client is the
router, which sends each pass's releases and ``admit_batch`` lines in
pass order on one connection; the shard answers a connection one line
at a time, so its passes are the router's passes restricted to its
channels.  Shards are spawned (not
forked -- the router runs a live event loop) from a picklable kwargs
spec, rebuild the verified setup themselves, bind an ephemeral port on
loopback and report it back through a pipe.  Lifecycle is plain POSIX:
SIGTERM drains a shard exactly like the single-process service.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import sys
from typing import Dict, List, Optional

from repro.service.config import ServiceSetup, load_service_setup

__all__ = ["ShardProcess", "ShardSpec", "restrict_setup"]

#: Seconds a freshly spawned shard gets to import, verify its setup,
#: bind and report its port before the spawn counts as failed.
SPAWN_TIMEOUT_S = 60.0


def restrict_setup(setup: ServiceSetup,
                   channels: List[str]) -> ServiceSetup:
    """A copy of ``setup`` holding only the given channels' task sets.

    A shard owning no channels is legal (more shards than channels):
    it serves an empty ledger map and rejects every admit as unknown.
    """
    unknown = sorted(set(channels) - set(setup.channel_tasks))
    if unknown:
        raise ValueError(f"unknown channels {unknown}; "
                         f"setup has {sorted(setup.channel_tasks)}")
    return dataclasses.replace(
        setup,
        channel_tasks={channel: setup.channel_tasks[channel]
                       for channel in sorted(channels)})


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)spawn one shard, picklable.

    Attributes:
        index: Shard index (stable across restarts; the rendezvous
            hash routes on it).
        channels: Channel labels this shard owns.
        setup_kwargs: Keyword arguments for
            :func:`~repro.service.config.load_service_setup`; the
            child rebuilds the setup itself so nothing non-picklable
            crosses the process boundary.
        queue_limit/batch_limit/request_timeout_s/reconcile_every:
            Passed straight to the shard's ``AdmissionService``.
    """

    index: int
    channels: tuple
    setup_kwargs: Dict[str, object]
    queue_limit: int = 1024
    batch_limit: int = 256
    request_timeout_s: float = 5.0
    reconcile_every: int = 64


def _shard_main(spec: ShardSpec, conn) -> None:
    """Child entry point: serve the restricted setup until SIGTERM."""
    import asyncio

    from repro.service.server import AdmissionService

    try:
        setup = load_service_setup(**spec.setup_kwargs)  # type: ignore[arg-type]
        setup = restrict_setup(setup, list(spec.channels))
    except Exception as error:  # noqa: BLE001 - report, then die
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        raise SystemExit(1) from error

    async def main() -> None:
        service = AdmissionService(
            setup,
            queue_limit=spec.queue_limit,
            batch_limit=spec.batch_limit,
            request_timeout_s=spec.request_timeout_s,
            reconcile_every=spec.reconcile_every)
        host, port = await service.start(host="127.0.0.1", port=0)
        service.install_signal_handlers()
        conn.send(("ready", port))
        conn.close()
        print(f"repro shard {spec.index}: listening on {host}:{port} "
              f"(channels {','.join(spec.channels) or '-'})",
              file=sys.stderr, flush=True)
        await service.wait_closed()

    asyncio.run(main())


class ShardProcess:
    """Handle on one spawned shard child.

    ``spawn()`` blocks until the child reports its bound port (or
    fails); the router calls it from an executor thread so restarts do
    not stall the event loop.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.port: Optional[int] = None
        self._process: Optional[multiprocessing.Process] = None

    def spawn(self, timeout_s: float = SPAWN_TIMEOUT_S) -> int:
        """Start the child; returns the bound port.

        Raises:
            RuntimeError: When the child fails setup or does not report
                a port within ``timeout_s``.
        """
        if self._process is not None:
            raise RuntimeError(f"shard {self.spec.index} already spawned")
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_shard_main, args=(self.spec, child_conn),
            name=f"repro-shard-{self.spec.index}", daemon=True)
        process.start()
        child_conn.close()
        self._process = process
        try:
            if not parent_conn.poll(timeout_s):
                raise RuntimeError(
                    f"shard {self.spec.index}: no port report within "
                    f"{timeout_s:.0f}s")
            status, value = parent_conn.recv()
        except (EOFError, OSError) as error:
            self.terminate()
            raise RuntimeError(
                f"shard {self.spec.index}: died during spawn") from error
        finally:
            parent_conn.close()
        if status != "ready":
            self.terminate()
            raise RuntimeError(f"shard {self.spec.index}: {value}")
        self.port = int(value)
        return self.port

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def terminate(self, grace_s: float = 5.0) -> None:
        """SIGTERM (graceful drain), escalate to SIGKILL after grace."""
        process = self._process
        if process is None:
            return
        if process.is_alive() and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        process.join(grace_s)
        if process.is_alive():
            process.kill()
            process.join(1.0)
        self._process = None
        self.port = None
