"""Pipelining asyncio client for the admission service.

One TCP connection, many requests in flight: the client assigns each
request a unique ``id``, a background reader task matches response
lines back to their futures, and callers simply ``await`` their reply.
Responses the server emits without an id (replies to raw/malformed
lines sent via :meth:`ServiceClient.send_raw`) land in
:attr:`ServiceClient.unmatched`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional

from repro.service.protocol import MAX_LINE_BYTES, encode_response

__all__ = ["ServiceClient"]

#: Longest reply line the client reads.  A reply echoes its request's
#: fields and adds a verdict to each, so the reply to a full
#: ``admit_batch`` line outgrows ``MAX_LINE_BYTES``; this bound does not.
REPLY_LIMIT_BYTES = 16 * MAX_LINE_BYTES


class ServiceClient:
    """JSON-lines client; create via :meth:`connect`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[str, asyncio.Future] = {}
        self._sequence = 0
        #: Responses that carried no (matchable) id, in arrival order.
        self.unmatched: List[Dict[str, object]] = []
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        """Open a connection to a running service."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=REPLY_LIMIT_BYTES)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(response, dict):
                    continue
                request_id = response.get("id")
                future = self._pending.pop(request_id, None) \
                    if isinstance(request_id, str) else None
                if future is not None and not future.done():
                    future.set_result(response)
                elif future is None:
                    self.unmatched.append(response)
        finally:
            # Connection gone: fail whatever is still waiting.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(
                        "service connection closed"))
            self._pending.clear()

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request and await its response.

        An ``id`` is assigned automatically when absent.
        """
        payload = dict(payload)
        if "id" not in payload:
            self._sequence += 1
            payload["id"] = f"c{self._sequence}"
        request_id = str(payload["id"])
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        # A dead reader already failed (and cleared) every pending
        # future; one registered after that point would hang forever.
        if self._reader_task.done() and not future.done():
            self._pending.pop(request_id, None)
            raise ConnectionError("service connection closed")
        try:
            self._writer.write(encode_response(payload))  # line framing
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(request_id, None)
            raise
        return await future

    async def send_raw(self, line: bytes) -> None:
        """Send raw bytes (tests: malformed-line isolation)."""
        self._writer.write(line)
        await self._writer.drain()

    async def admit(self, channel: str, arrival: int, execution: int,
                    deadline: int,
                    name: Optional[str] = None) -> Dict[str, object]:
        """Admission-test one hard aperiodic request."""
        payload: Dict[str, object] = {
            "op": "admit", "channel": channel, "arrival": arrival,
            "execution": execution, "deadline": deadline,
        }
        if name is not None:
            payload["name"] = name
        return await self.request(payload)

    async def admit_batch(
            self,
            requests: List[Dict[str, object]]) -> Dict[str, object]:
        """Admission-test many requests in one line (positional replies)."""
        return await self.request(
            {"op": "admit_batch", "requests": list(requests)})

    async def release(self, channel: str, name: str) -> Dict[str, object]:
        """Release a previously admitted task."""
        return await self.request(
            {"op": "release", "channel": channel, "name": name})

    async def stats(self) -> Dict[str, object]:
        """Fetch service stats."""
        return await self.request({"op": "stats"})

    async def ping(self) -> Dict[str, object]:
        """Liveness probe."""
        return await self.request({"op": "ping"})

    async def plan_retransmission(self, messages: Dict[str, Dict[str, float]],
                                  rho: float) -> Dict[str, object]:
        """Run the Theorem-1 planner server-side."""
        return await self.request(
            {"op": "plan_retransmission", "messages": messages,
             "rho": rho})

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            # A torn connection's read error is already reflected in
            # the failed pending futures; close() itself stays quiet.
            pass
