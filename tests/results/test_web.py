"""The repro web explorer over real HTTP: routes, ETags, envelopes."""

import asyncio
import json

import pytest

from repro.obs import Observability
from repro.results import ResultStore, ResultsWebService, content_digest
from repro.results.web import MAX_PAGE_LIMIT, ROUTES


class _Response:
    def __init__(self, status: int, headers: dict, body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def json(self):
        return json.loads(self.body)


async def _fetch(host, port, path, headers=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"GET {path} HTTP/1.1", f"Host: {host}:{port}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    head_lines = head.decode().split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    parsed = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(": ")
        parsed[name.lower()] = value
    return _Response(status, parsed, body)


@pytest.fixture(scope="module")
def obs():
    return Observability()


@pytest.fixture(scope="module")
def web(tmp_path_factory, tiny_campaign, tiny_campaign_interpreter,
        experiment_kwargs, interpreter_kwargs, obs):
    """A live web service over a store holding both engine campaigns."""
    db = tmp_path_factory.mktemp("web") / "results.db"
    store = ResultStore(str(db))
    campaign_id = store.record_campaign(tiny_campaign, experiment_kwargs,
                                        workload="tiny")
    store.record_campaign(tiny_campaign_interpreter, interpreter_kwargs,
                          workload="tiny")
    report_id = store.record_verify_report(_tiny_report(), target="tiny")

    loop = asyncio.new_event_loop()
    service = ResultsWebService(store, obs=obs)
    host, port = loop.run_until_complete(service.start(port=0))
    runner = _LoopRunner(loop)
    yield {"host": host, "port": port, "campaign_id": campaign_id,
           "report_id": report_id, "store": store, "fetch": runner.fetch,
           "run": loop.run_until_complete}
    loop.run_until_complete(service.stop())
    loop.close()
    store.close()


def _tiny_report():
    from repro.verify.diagnostics import Diagnostic, Report, Severity
    return Report(diagnostics=[
        Diagnostic(rule_id="ANA002", severity=Severity.WARNING,
                   location="plan", message="tight goal")])


class _LoopRunner:
    def __init__(self, loop):
        self._loop = loop

    def fetch(self, host, port, path, headers=None):
        return self._loop.run_until_complete(
            _fetch(host, port, path, headers))


@pytest.fixture
def get(web):
    def fetch(path, headers=None):
        return web["fetch"](web["host"], web["port"], path, headers)
    return fetch


class TestRoutes:
    def test_index_lists_tables_and_endpoints(self, get):
        response = get("/")
        assert response.status == 200
        assert response.json["tables"]["campaigns"] == 2
        assert response.json["endpoints"] == [p for p, _ in ROUTES]
        assert "/digests/diff" in response.json["endpoints"]

    def test_campaign_list_envelope_and_filters(self, get):
        body = get("/campaigns").json
        assert body["total"] == 2 and body["count"] == 2
        assert body["next_offset"] is None
        both = get("/campaigns?scheduler=coefficient&workload=tiny").json
        assert both["total"] == 2
        assert {row["engine_mode"] for row in both["rows"]} \
            == {"interpreter", "vectorized"}
        assert get("/campaigns?scheduler=fspec").json["total"] == 0
        assert get("/campaigns?workload=other").json["total"] == 0

    def test_campaign_detail_and_runs(self, get, web):
        campaign_id = web["campaign_id"]
        detail = get(f"/campaigns/{campaign_id}").json
        assert detail["workload"] == "tiny"
        runs = get(f"/campaigns/{campaign_id}/runs?limit=1&offset=1").json
        assert runs["total"] == 2 and runs["count"] == 1
        assert runs["rows"][0]["seed"] == 2

    def test_run_detail_has_both_engine_digests(self, get, web):
        campaign_id = web["campaign_id"]
        run_id = get(f"/campaigns/{campaign_id}/runs").json["rows"][0]["id"]
        detail = get(f"/runs/{run_id}").json
        assert set(detail["digests"]) == {"interpreter", "vectorized"}

    def test_digest_diff_shows_cross_engine_agreement(self, get):
        body = get("/digests/diff").json
        assert body["total"] == 2
        for row in body["rows"]:
            assert row["modes"] == 2 and row["equal"] is True
        assert get("/digests/diff?equal=false").json["total"] == 0

    def test_metric_table_with_range_filter(self, get):
        body = get("/metrics/deadline_miss_ratio?min=0").json
        assert body["total"] == 2 and body["metric"] == "deadline_miss_ratio"
        assert all("value" in row for row in body["rows"])
        assert get("/metrics/deadline_miss_ratio?min=2").json["total"] == 0

    def test_verify_report_round_trip(self, get, web):
        listing = get("/verify/reports").json
        assert listing["total"] == 1
        assert listing["rows"][0]["target"] == "tiny"
        detail = get(f"/verify/reports/{web['report_id']}").json
        assert detail["diagnostics"][0]["rule_id"] == "ANA002"


class TestCanonicalBodiesAndETags:
    def test_body_is_byte_stable_across_fetches(self, get):
        first = get("/campaigns")
        second = get("/campaigns")
        assert first.body == second.body
        assert first.headers["etag"] == second.headers["etag"]

    def test_etag_is_the_content_digest(self, get):
        response = get("/campaigns")
        digest = content_digest(json.loads(response.body))
        assert response.headers["etag"] == f'"{digest}"'

    def test_if_none_match_yields_bodyless_304(self, get):
        etag = get("/campaigns").headers["etag"]
        cached = get("/campaigns", headers={"If-None-Match": etag})
        assert cached.status == 304
        assert cached.body == b""
        assert cached.headers["etag"] == etag

    def test_stale_etag_gets_full_body(self, get):
        response = get("/campaigns", headers={"If-None-Match": '"stale"'})
        assert response.status == 200 and response.body


class TestErrors:
    def test_unknown_route_is_canonical_404(self, get):
        response = get("/nope")
        assert response.status == 404
        assert response.json == {"error": "not found", "path": "/nope"}

    def test_unknown_id_is_404(self, get):
        assert get("/runs/ffff").status == 404
        assert get("/campaigns/ffff/runs").status == 404

    def test_raw_digest_listing_is_gone(self, get):
        assert get("/digests").status == 404

    def test_bad_query_value_is_400(self, get):
        response = get("/campaigns?limit=banana")
        assert response.status == 400
        assert "limit" in response.json["error"]

    def test_limit_zero_rejected_and_huge_limit_clamped(self, get):
        assert get("/campaigns?limit=0").status == 400
        body = get(f"/campaigns?limit={MAX_PAGE_LIMIT * 10}").json
        assert body["limit"] == MAX_PAGE_LIMIT

    def test_unknown_metric_is_400(self, get):
        assert get("/metrics/bogus").status == 400

    def test_offset_beyond_sqlite_integers_is_400(self, get):
        # SQLite binds signed 64-bit integers; a larger offset must be
        # refused, not crash the handler, and the server must live on.
        response = get("/campaigns?offset=100000000000000000000")
        assert response.status == 400
        assert "offset" in response.json["error"]
        assert get(f"/campaigns?offset={2 ** 63}").status == 400
        assert get(f"/campaigns?offset={2 ** 63 - 1}").json["count"] == 0
        assert get("/campaigns").status == 200

    def test_non_finite_metric_bound_is_400(self, get):
        # sqlite3 binds NaN as NULL, which would silently drop every row.
        for raw in ("nan", "inf", "-inf"):
            response = get(f"/metrics/deadline_miss_ratio?min={raw}")
            assert response.status == 400, raw
            assert "min" in response.json["error"]

    def test_post_is_405(self, web):
        async def post():
            reader, writer = await asyncio.open_connection(
                web["host"], web["port"])
            try:
                writer.write(b"POST / HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                return await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
        raw = web["run"](post())
        assert b" 405 " in raw.split(b"\r\n")[0]


class TestObservability:
    def test_requests_and_not_modified_counted(self, get, obs):
        counters = obs.snapshot()["counters"]
        assert counters["web.requests"] > 0
        assert counters["web.not_modified"] >= 1
        assert counters["web.errors"] >= 1
