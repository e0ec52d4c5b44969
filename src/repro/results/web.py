"""``repro web``: read-only HTTP explorer over a result store.

A minimal asyncio HTTP/1.1 layer (stdlib only, same style as the
JSON-lines admission service in :mod:`repro.service.server`) that
serves the datasette-pattern read path over :class:`ResultStore`:
paginated, filterable JSON endpoints for campaigns, per-seed runs,
cross-engine-mode trace-digest diffs, metric tables, verify reports
and obs snapshots.

The response contract every endpoint honours:

- the body is **canonical JSON** (:mod:`repro.results.canonical`):
  two fetches of the same resource return *identical bytes*;
- ``ETag`` is the SHA-256 content digest of the body, so a client
  sending ``If-None-Match`` gets a bodyless ``304 Not Modified`` and a
  plain re-fetch gets the same ETag back with the same bytes -- the
  store's immutable content-addressed rows make responses infinitely
  cacheable;
- list endpoints share one pagination envelope: ``rows``, ``count``
  (rows in this page), ``total`` (rows matching the filter),
  ``limit``, ``offset`` and ``next_offset`` (``null`` on the last
  page);
- errors are canonical JSON too (``{"error": ..., "path": ...}``,
  the path as sent) with 400/404/405 status codes; a query parameter
  the route does not take is a 400 that names it.

The server opens the store read-only: it can watch a database that a
campaign is still writing into (WAL readers never block the writer)
and can never corrupt it.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qsl, unquote

from repro.obs.observability import NULL_OBS, ObsLike
from repro.results.canonical import canonical_json_bytes, content_digest
from repro.results.store import LISTINGS, RUN_METRIC_COLUMNS, ResultStore

__all__ = ["MAX_REQUEST_BYTES", "MAX_PAGE_LIMIT", "ROUTES",
           "ResultsWebService", "serve_web"]

#: Longest accepted request head (request line + headers).
MAX_REQUEST_BYTES = 16384

#: Hard ceiling on ``limit``; larger requests are clamped, not erred.
MAX_PAGE_LIMIT = 500


#: Every route, in the order ``/`` lists them, and what answers it: a
#: listing of :data:`~repro.results.store.LISTINGS` by name (paged, and
#: filtered by that listing's filters only), or the :class:`ResultStore`
#: method that looks the ``<id>`` up.
ROUTES: Tuple[Tuple[str, Union[str, Callable[..., Optional[object]]]],
              ...] = (
    ("/campaigns", "campaigns"),
    ("/campaigns/<id>", ResultStore.campaign),
    ("/campaigns/<id>/runs", "campaign_runs"),
    ("/runs/<id>", ResultStore.run),
    ("/digests/diff", "digest_diff"),
    ("/metrics/<name>", "metrics"),
    ("/verify/reports", "verify_reports"),
    ("/verify/reports/<id>", ResultStore.verify_report),
    ("/snapshots", "snapshots"),
)

#: SQLite binds integers as signed 64-bit.
_INT64 = range(-2 ** 63, 2 ** 63)


class _BadRequest(ValueError):
    """A malformed query parameter; becomes a canonical 400."""


def _value(params: Mapping[str, str], name: str, kind: type,
           default: object) -> object:
    raw = params.get(name)
    if raw is None:
        return default
    if kind is str:
        return raw
    if kind is bool:
        return raw not in ("0", "false", "no")
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _BadRequest(f"query parameter {name}={raw!r} is not "
                          f"{noun}") from None
    if kind is int and value not in _INT64:
        raise _BadRequest(f"query parameter {name}={raw!r} is outside "
                          f"the signed 64-bit range")
    if kind is float and not math.isfinite(value):
        raise _BadRequest(f"query parameter {name}={raw!r} is not a "
                          f"finite number")
    return value


def _known(params: Mapping[str, str], names: Tuple[str, ...]) -> None:
    """Reject the first query parameter that is not in ``names``."""
    for name in params:
        if name not in names:
            raise _BadRequest(
                f"unknown query parameter {name!r}; this route takes "
                f"{', '.join(names) or 'none'}")


def _parse(params: Mapping[str, str],
           filters: Mapping[str, Tuple[type, str]],
           ) -> Tuple[int, int, Dict[str, object]]:
    """The one query-parameter parser: ``(limit, offset, filters)``."""
    _known(params, ("limit", "offset", *filters))
    limit = _value(params, "limit", int, 50)
    offset = _value(params, "offset", int, 0)
    assert isinstance(limit, int) and isinstance(offset, int)
    if limit < 1 or offset < 0:
        raise _BadRequest(
            f"limit must be >= 1 and offset >= 0, got limit={limit} "
            f"offset={offset}")
    return (min(limit, MAX_PAGE_LIMIT), offset,
            {name: _value(params, name, kind, None)
             for name, (kind, _clause) in filters.items()})


def _envelope(rows: List[Dict[str, object]], total: int, limit: int,
              offset: int) -> Dict[str, object]:
    next_offset = offset + limit if offset + limit < total else None
    return {"rows": rows, "count": len(rows), "total": total,
            "limit": limit, "offset": offset,
            "next_offset": next_offset}


class ResultsWebService:
    """Serve one result store over HTTP (GET-only, read-only).

    Args:
        store: An open (typically read-only) :class:`ResultStore`.
        obs: Observability context; request traffic lands on it as
            ``web.requests``, ``web.not_modified``, ``web.errors``.
    """

    def __init__(self, store: ResultStore, obs: ObsLike = NULL_OBS) -> None:
        self.store = store
        self._obs = obs
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = asyncio.Event()

    # -- lifecycle (same shape as service.server.AdmissionService) -----

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("web service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            limit=MAX_REQUEST_BYTES + 2)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    def install_signal_handlers(self) -> None:
        """Stop cleanly on SIGTERM/SIGINT (POSIX event loops)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await self._read_head(reader)
                if head is None:
                    break
                keep_alive = await self._answer(head, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        if len(head) > MAX_REQUEST_BYTES:
            raise asyncio.LimitOverrunError("request head too long",
                                            len(head))
        return head

    async def _answer(self, head: bytes,
                      writer: asyncio.StreamWriter) -> bool:
        if self._obs.enabled:
            self._obs.inc("web.requests")
        try:
            request_line, headers = self._parse_head(head)
            method, target = request_line
        except ValueError:
            await self._send(writer, 400,
                             {"error": "malformed request"}, {}, False)
            return False
        keep_alive = headers.get("connection", "keep-alive") != "close"
        if method != "GET":
            await self._send(writer, 405,
                             {"error": f"method {method} not allowed",
                              "path": target}, headers, keep_alive)
            return keep_alive
        path, _, query = target.partition("?")
        params = dict(parse_qsl(query, keep_blank_values=True))
        try:
            body = self._route(path, params)
        except _BadRequest as error:
            if self._obs.enabled:
                self._obs.inc("web.errors")
            await self._send(writer, 400,
                             {"error": str(error), "path": path},
                             headers, keep_alive)
            return keep_alive
        if body is None:
            if self._obs.enabled:
                self._obs.inc("web.errors")
            await self._send(writer, 404,
                             {"error": "not found", "path": path},
                             headers, keep_alive)
            return keep_alive
        await self._send(writer, 200, body, headers, keep_alive)
        return keep_alive

    @staticmethod
    def _parse_head(head: bytes,
                    ) -> Tuple[Tuple[str, str], Dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"bad request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return (parts[0], parts[1]), headers

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    body: object, headers: Mapping[str, str],
                    keep_alive: bool) -> None:
        payload = canonical_json_bytes(body) + b"\n"
        etag = f'"{content_digest(body)}"'
        reasons = {200: "OK", 304: "Not Modified", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed"}
        if status == 200 and headers.get("if-none-match") == etag:
            if self._obs.enabled:
                self._obs.inc("web.not_modified")
            status, payload = 304, b""
        head = [f"HTTP/1.1 {status} {reasons[status]}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
                f"ETag: {etag}",
                "Cache-Control: no-cache",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        writer.write("\r\n".join(head).encode("ascii") + b"\r\n\r\n"
                     + payload)
        await writer.drain()

    # -- routing -------------------------------------------------------

    def _route(self, path: str,
               params: Mapping[str, str]) -> Optional[object]:
        """Resolve one GET to a JSON-able body, or ``None`` for 404.

        ``path`` is the target's path as sent: it is split at ``/``
        first and each segment percent-decoded after, so an encoded
        ``%2F`` stays inside its segment.
        """
        head, *segments = path.split("/")
        if segments[-1:] == [""]:
            segments.pop()  # "/" itself, or one trailing slash
        if head or "" in segments:  # not "/"-rooted, or "//" inside
            return None
        segments = [unquote(segment) for segment in segments]
        if not segments:
            _known(params, ())
            return {"store": self.store.path,
                    "tables": self.store.counts(),
                    "endpoints": [pattern for pattern, _ in ROUTES],
                    "metrics": list(RUN_METRIC_COLUMNS)}
        for pattern, target in ROUTES:
            parts = pattern.split("/")[1:]
            if len(parts) != len(segments) or any(
                    part != segment and not part.startswith("<")
                    for part, segment in zip(parts, segments)):
                continue
            key = next((segment for part, segment in zip(parts, segments)
                        if part.startswith("<")), None)
            if not isinstance(target, str):
                _known(params, ())
                return target(self.store, key)
            return self._listing(target, key, params)
        return None

    def _listing(self, name: str, key: Optional[str],
                 params: Mapping[str, str]) -> Optional[object]:
        listing = LISTINGS[name]
        try:
            listing.check(key)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        limit, offset, filters = _parse(params, listing.filters)
        page = self.store.page(name, key, limit, offset, **filters)
        if page is None:
            return None
        body = _envelope(*page, limit, offset)
        if listing.columns:
            body["metric"] = key
        return body


async def serve_web(store_path: str, host: str = "127.0.0.1",
                    port: int = 8478,
                    obs: ObsLike = NULL_OBS) -> ResultsWebService:
    """Run the web explorer until SIGTERM/SIGINT stops it.

    Returns:
        The stopped service (its counters are still readable).
    """
    store = ResultStore(store_path, obs=obs, read_only=True)
    service = ResultsWebService(store, obs=obs)
    bound_host, bound_port = await service.start(host=host, port=port)
    service.install_signal_handlers()
    counts = store.counts()
    print(f"repro web: listening on {bound_host}:{bound_port} "
          f"(store {store_path}, {counts['campaigns']} campaigns, "
          f"{counts['runs']} runs)",
          file=sys.stderr, flush=True)
    try:
        await service.wait_closed()
    finally:
        store.close()
    return service
