"""The stats payload contract: payload == STATUS_FIELDS == docs.

The ``stats`` reply changed fields across PRs and docs/service.md
drifted behind the payload more than once.  These tests pin all three
representations together:

- the live payload over a real TCP round-trip must carry *exactly*
  ``STATUS_FIELDS`` / ``CHANNEL_STATUS_FIELDS`` -- no more, no less;
- every field name must appear verbatim in docs/service.md, so adding
  a field without documenting it fails CI.
"""

import asyncio
import os

import pytest

from repro.service.client import ServiceClient
from repro.service.config import load_service_setup
from repro.service.server import (
    CHANNEL_STATUS_FIELDS,
    STATUS_FIELDS,
    AdmissionService,
)

_DOCS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "docs", "service.md")


@pytest.fixture(scope="module")
def setup():
    return load_service_setup("bbw")


@pytest.fixture(scope="module")
def stats(setup):
    """One live stats reply fetched over a real connection."""

    async def fetch():
        service = AdmissionService(setup)
        host, port = await service.start(port=0)
        client = await ServiceClient.connect(host, port)
        try:
            await client.admit("A", arrival=0, execution=2,
                               deadline=100, name="contract-probe")
            return await client.stats()
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(fetch())


class TestPayloadMatchesContract:
    def test_top_level_keys_exact(self, stats):
        # `id` is the wire-protocol echo every response carries when
        # the request sent one -- a protocol field, not a stats field.
        keys = set(stats) - {"id"}
        assert keys == set(STATUS_FIELDS)

    def test_channel_keys_exact(self, stats):
        assert stats["channels"], "expected at least one channel"
        for channel, entry in stats["channels"].items():
            assert set(entry) == set(CHANNEL_STATUS_FIELDS), channel

    def test_documented_types_roundtrip(self, stats):
        # The JSON round-trip (client.stats() went over a socket) must
        # preserve the documented types.
        assert isinstance(stats["workload"], str)
        assert isinstance(stats["tick_us"], int)
        assert isinstance(stats["counters"], dict)
        assert isinstance(stats["batches"], int)
        assert isinstance(stats["mean_batch_size"], (int, float))
        assert isinstance(stats["queue_depth"], int)
        assert isinstance(stats["queue_limit"], int)
        assert stats["draining"] is False
        entry = next(iter(stats["channels"].values()))
        for field in CHANNEL_STATUS_FIELDS:
            assert isinstance(entry[field], int), field


class TestDocsMatchContract:
    def test_every_status_field_documented(self):
        with open(_DOCS) as handle:
            text = handle.read()
        for field in STATUS_FIELDS + CHANNEL_STATUS_FIELDS:
            assert f"`{field}`" in text, (
                f"stats field {field!r} is not documented in "
                f"docs/service.md")
