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
- errors are canonical JSON too (``{"error": ..., "path": ...}``)
  with 400/404/405 status codes.

The server opens the store read-only: it can watch a database that a
campaign is still writing into (WAL readers never block the writer)
and can never corrupt it.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.obs import NULL_OBS, ObsLike
from repro.results.canonical import canonical_json_bytes, content_digest
from repro.results.store import RUN_METRIC_COLUMNS, ResultStore

__all__ = ["MAX_REQUEST_BYTES", "MAX_PAGE_LIMIT", "ResultsWebService",
           "serve_web"]

#: Longest accepted request head (request line + headers).
MAX_REQUEST_BYTES = 16384

#: Hard ceiling on ``limit``; larger requests are clamped, not erred.
MAX_PAGE_LIMIT = 500


class _BadRequest(ValueError):
    """A malformed query parameter; becomes a canonical 400."""


def _int_param(params: Mapping[str, str], name: str,
               default: Optional[int]) -> Optional[int]:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _BadRequest(f"query parameter {name}={raw!r} is not an "
                          f"integer") from None


def _float_param(params: Mapping[str, str],
                 name: str) -> Optional[float]:
    raw = params.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise _BadRequest(f"query parameter {name}={raw!r} is not a "
                          f"number") from None


def _page_params(params: Mapping[str, str]) -> Tuple[int, int]:
    limit = _int_param(params, "limit", 50)
    offset = _int_param(params, "offset", 0)
    assert limit is not None and offset is not None
    if limit < 1 or offset < 0:
        raise _BadRequest(
            f"limit must be >= 1 and offset >= 0, got limit={limit} "
            f"offset={offset}")
    return min(limit, MAX_PAGE_LIMIT), offset


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
        split = urlsplit(target)
        path = unquote(split.path)
        params = dict(parse_qsl(split.query, keep_blank_values=True))
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
        """Resolve one GET to a JSON-able body, or ``None`` for 404."""
        segments = [segment for segment in path.split("/") if segment]
        if not segments:
            return self._index()
        head, rest = segments[0], segments[1:]
        handlers: Dict[str, Callable[..., Optional[object]]] = {
            "campaigns": self._campaigns,
            "runs": self._runs,
            "digests": self._digests,
            "metrics": self._metrics,
            "verify": self._verify,
            "snapshots": self._snapshots,
        }
        handler = handlers.get(head)
        if handler is None:
            return None
        return handler(rest, params)

    def _index(self) -> Dict[str, object]:
        return {
            "store": self.store.path,
            "tables": self.store.counts(),
            "endpoints": [
                "/campaigns", "/campaigns/<id>", "/campaigns/<id>/runs",
                "/runs/<id>", "/digests", "/digests/diff",
                "/metrics/<name>", "/verify/reports",
                "/verify/reports/<id>", "/snapshots",
            ],
            "metrics": list(RUN_METRIC_COLUMNS),
        }

    def _campaigns(self, rest: List[str],
                   params: Mapping[str, str]) -> Optional[object]:
        if not rest:
            limit, offset = _page_params(params)
            rows, total = self.store.campaigns(
                scheduler=params.get("scheduler"),
                workload=params.get("workload"),
                engine_mode=params.get("engine_mode"),
                limit=limit, offset=offset)
            return _envelope(rows, total, limit, offset)
        if len(rest) == 1:
            return self.store.campaign(rest[0])
        if len(rest) == 2 and rest[1] == "runs":
            limit, offset = _page_params(params)
            rows, total = self.store.campaign_runs(
                rest[0], limit=limit, offset=offset,
                seed=_int_param(params, "seed", None))
            if total == 0 and self.store.campaign(rest[0]) is None:
                return None
            return _envelope(rows, total, limit, offset)
        return None

    def _runs(self, rest: List[str],
              params: Mapping[str, str]) -> Optional[object]:
        if len(rest) != 1:
            return None
        return self.store.run(rest[0])

    def _digests(self, rest: List[str],
                 params: Mapping[str, str]) -> Optional[object]:
        limit, offset = _page_params(params)
        if not rest:
            rows, total = self.store.digests(
                run_id=params.get("run_id"),
                engine_mode=params.get("engine_mode"),
                limit=limit, offset=offset)
            return _envelope(rows, total, limit, offset)
        if rest == ["diff"]:
            equal = params.get("equal")
            rows, total = self.store.digest_diff(
                scheduler=params.get("scheduler"),
                seed=_int_param(params, "seed", None),
                campaign_id=params.get("campaign"),
                equal=(None if equal is None
                       else equal not in ("0", "false", "no")),
                limit=limit, offset=offset)
            return _envelope(rows, total, limit, offset)
        return None

    def _metrics(self, rest: List[str],
                 params: Mapping[str, str]) -> Optional[object]:
        if len(rest) != 1:
            return None
        if rest[0] not in RUN_METRIC_COLUMNS:
            raise _BadRequest(
                f"unknown metric {rest[0]!r}; expected one of "
                f"{', '.join(RUN_METRIC_COLUMNS)}")
        limit, offset = _page_params(params)
        rows, total = self.store.metric_rows(
            rest[0],
            scheduler=params.get("scheduler"),
            seed=_int_param(params, "seed", None),
            min_value=_float_param(params, "min"),
            max_value=_float_param(params, "max"),
            limit=limit, offset=offset)
        body = _envelope(rows, total, limit, offset)
        body["metric"] = rest[0]
        return body

    def _verify(self, rest: List[str],
                params: Mapping[str, str]) -> Optional[object]:
        if not rest or rest[0] != "reports":
            return None
        if len(rest) == 1:
            limit, offset = _page_params(params)
            rows, total = self.store.verify_reports(
                target=params.get("target"), limit=limit, offset=offset)
            return _envelope(rows, total, limit, offset)
        if len(rest) == 2:
            return self.store.verify_report(rest[1])
        return None

    def _snapshots(self, rest: List[str],
                   params: Mapping[str, str]) -> Optional[object]:
        if rest:
            return None
        limit, offset = _page_params(params)
        rows, total = self.store.snapshots(
            scope=params.get("scope"), scope_id=params.get("scope_id"),
            limit=limit, offset=offset)
        return _envelope(rows, total, limit, offset)


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
