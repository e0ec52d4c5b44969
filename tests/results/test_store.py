"""ResultStore: idempotent ingest, round-trips, queries, digests."""

import asyncio
import dataclasses
import sqlite3
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.cache import run_key
from repro.experiments.campaign import CampaignResult, MetricSummary
from repro.obs import Observability
from repro.results import RUN_METRIC_COLUMNS, ResultStore
from repro.service.client import ServiceClient
from repro.service.config import load_service_setup
from repro.service.server import AdmissionService
from repro.sim.trace import trace_digest
from repro.verify.diagnostics import Diagnostic, Report, Severity


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "results.db")) as opened:
        yield opened


@pytest.fixture
def populated(store, tiny_campaign, experiment_kwargs):
    campaign_id = store.record_campaign(tiny_campaign, experiment_kwargs,
                                        workload="tiny")
    return store, campaign_id


class TestIdempotentIngest:
    def test_same_campaign_converges_to_one_row(self, populated,
                                                tiny_campaign,
                                                experiment_kwargs):
        store, campaign_id = populated
        again = store.record_campaign(tiny_campaign, experiment_kwargs,
                                      workload="tiny")
        assert again == campaign_id
        counts = store.counts()
        assert counts["campaigns"] == 1
        assert counts["runs"] == len(tiny_campaign.results)
        assert counts["campaign_runs"] == len(tiny_campaign.results)

    def test_recorded_counter_counts_inserts_not_attempts(
            self, tmp_path, tiny_campaign, experiment_kwargs):
        obs = Observability()
        with ResultStore(str(tmp_path / "obs.db"), obs=obs) as store:
            store.record_campaign(tiny_campaign, experiment_kwargs)
            store.record_campaign(tiny_campaign, experiment_kwargs)
        counters = obs.snapshot()["counters"]
        assert counters["results.campaigns_recorded"] == 1
        assert counters["results.runs_recorded"] \
            == len(tiny_campaign.results)

    def test_run_identity_excludes_engine_mode(
            self, store, tiny_campaign, experiment_kwargs,
            tiny_campaign_interpreter, interpreter_kwargs):
        store.record_campaign(tiny_campaign, experiment_kwargs)
        store.record_campaign(tiny_campaign_interpreter, interpreter_kwargs)
        counts = store.counts()
        # Same configuration, two engines: two campaigns, but the runs
        # converge while each mode contributes its own digest row.
        assert counts["campaigns"] == 2
        assert counts["runs"] == len(tiny_campaign.results)
        assert counts["trace_digests"] == 2 * len(tiny_campaign.results)

    def test_run_key_matches_cache_machinery(self, populated,
                                             tiny_campaign,
                                             experiment_kwargs):
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        expected = {run_key("coefficient", seed, experiment_kwargs)
                    for seed in tiny_campaign.completed_seeds}
        assert {row["id"] for row in rows} == expected


class TestCampaignRoundTrip:
    def test_payload_round_trips(self, populated, tiny_campaign):
        store, campaign_id = populated
        detail = store.campaign(campaign_id)
        assert detail["scheduler"] == "coefficient"
        assert detail["workload"] == "tiny"
        assert detail["seeds"] == tiny_campaign.seeds
        assert [run["seed"] for run in detail["runs"]] \
            == tiny_campaign.completed_seeds
        for name, summary in tiny_campaign.summaries.items():
            assert detail["summaries"][name]["mean"] == summary.mean

    def test_run_detail_carries_metrics_and_digest(self, populated,
                                                   tiny_campaign):
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        detail = store.run(rows[0]["id"])
        result = tiny_campaign.results[0]
        assert detail["cycles"] == result.cycles_run
        assert detail["metrics"] == dict(
            sorted(result.metrics.summary_row().items()))
        assert detail["digests"]["vectorized"]["digest"] \
            == trace_digest(result.cluster.trace)
        assert detail["campaigns"] == [campaign_id]

    def test_missing_ids_return_none(self, store):
        assert store.campaign("nope") is None
        assert store.run("nope") is None
        assert store.verify_report("nope") is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _summaries(draw):
    names = draw(st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=12),
        min_size=1, max_size=4, unique=True))
    return {
        name: MetricSummary(
            name=name, samples=draw(st.integers(0, 64)),
            mean=draw(_FINITE), stdev=draw(_FINITE),
            ci_low=draw(_FINITE), ci_high=draw(_FINITE),
            minimum=draw(_FINITE), maximum=draw(_FINITE))
        for name in names
    }


class TestSummaryRoundTripProperty:
    @given(summaries=_summaries())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_store_query_round_trips_summaries_exactly(self, tmp_path,
                                                       summaries):
        # Bit-exact: canonical JSON floats round-trip via repr, so the
        # store must hand back the same IEEE doubles it was given.
        campaign = CampaignResult(
            scheduler="coefficient", seeds=[], results=[],
            summaries=summaries)
        with ResultStore(str(tmp_path / "prop.db")) as store:
            campaign_id = store.record_campaign(campaign, {},
                                                workload="prop")
            detail = store.campaign(campaign_id)
        assert set(detail["summaries"]) == set(summaries)
        for name, summary in summaries.items():
            stored = detail["summaries"][name]
            assert stored["samples"] == summary.samples
            for field in ("mean", "stdev", "ci_low", "ci_high",
                          "minimum", "maximum"):
                assert stored[field] == getattr(summary, field), field


def _swapped(campaign):
    """The campaign with its two seeds' results exchanged: each run id
    then arrives with the other seed's trace digest."""
    return dataclasses.replace(campaign, results=campaign.results[::-1])


class TestDigests:
    """Digests arrive only through campaign and run ingest."""

    def test_conflicting_digest_warns_and_keeps_first(
            self, populated, tiny_campaign, experiment_kwargs):
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        run_id = rows[0]["id"]
        original = store.run(run_id)["digests"]["vectorized"]["digest"]
        with pytest.warns(RuntimeWarning, match="digest conflict"):
            store.record_campaign(_swapped(tiny_campaign),
                                  experiment_kwargs, workload="tiny")
        assert store.run(run_id)["digests"]["vectorized"]["digest"] \
            == original

    def test_same_digest_reingest_is_silent(
            self, populated, tiny_campaign, experiment_kwargs):
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        entry = store.run(rows[0]["id"])["digests"]["vectorized"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.record_campaign(
                tiny_campaign, experiment_kwargs,
                workload="tiny") == campaign_id
        assert store.run(rows[0]["id"])["digests"]["vectorized"] == entry

    def test_diff_flags_disagreement(self, populated, tiny_campaign,
                                     experiment_kwargs):
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        run_id = rows[0]["id"]
        store.record_campaign(
            _swapped(tiny_campaign),
            dict(experiment_kwargs, engine_mode="interpreter"),
            workload="tiny")
        diff, _ = store.digest_diff()
        by_run = {row["run_id"]: row for row in diff}
        assert by_run[run_id]["equal"] is False
        assert by_run[run_id]["modes"] == 2

    def test_retired_engine_rows_stay_readable(self, populated):
        # Stores written before the stepper engine mode was retired
        # hold rows that name it; they read back as plain strings.
        # No ingest path writes that mode any more, so the old row is
        # planted directly.
        store, campaign_id = populated
        rows, _ = store.page("campaign_runs", campaign_id)
        run_id = rows[0]["id"]
        entry = store.run(run_id)["digests"]["vectorized"]
        with store.transaction():
            store._insert_ignore("trace_digests", {
                "run_id": run_id, "engine_mode": "stepper", **entry})
        assert store.run(run_id)["digests"]["stepper"] == entry
        diff, _ = store.digest_diff()
        by_run = {row["run_id"]: row for row in diff}
        assert by_run[run_id]["modes"] == 2
        assert by_run[run_id]["equal"] is True


class TestVerifyReports:
    def test_report_round_trips_in_order(self, store):
        report = Report(diagnostics=[
            Diagnostic(rule_id="FRC001", severity=Severity.ERROR,
                       location="params.gd_cycle_mt",
                       message="cycle too short", fix_hint="lengthen it"),
            Diagnostic(rule_id="ANA002", severity=Severity.WARNING,
                       location="plan", message="tight goal"),
        ])
        report_id = store.record_verify_report(report, target="bbw")
        assert store.record_verify_report(report, target="bbw") \
            == report_id
        stored = store.verify_report(report_id)
        assert (stored["errors"], stored["warnings"]) == (1, 1)
        assert [d["rule_id"] for d in stored["diagnostics"]] \
            == ["FRC001", "ANA002"]
        assert stored["diagnostics"][0]["hint"] == "lengthen it"
        rows, total = store.page("verify_reports")
        assert total == 1 and rows[0]["findings"] == 2
        assert rows[0]["target"] == "bbw"


class TestSnapshotsAndAudits:
    def test_snapshot_round_trips(self, store):
        snapshot_id = store.record_obs_snapshot(
            "serve", "abc", {"engine.cycles": 12, "cache.hits": 1})
        rows, total = store.page("snapshots", scope="serve")
        assert total == 1
        assert rows[0]["id"] == snapshot_id
        assert rows[0]["seed"] is None
        assert rows[0]["counters"] == {"cache.hits": 1,
                                       "engine.cycles": 12}

    def test_drained_service_records_one_serve_snapshot(self, store):
        async def serve():
            service = AdmissionService(load_service_setup("bbw"),
                                       store=store)
            host, port = await service.start(port=0)
            client = await ServiceClient.connect(host, port)
            try:
                for index in range(3):
                    await client.admit("A", arrival=index, execution=1,
                                       deadline=100, name=f"s{index}")
            finally:
                await client.close()
                await service.stop()
            return service

        service = asyncio.run(serve())
        rows, total = store.page("snapshots", scope="serve")
        assert total == 1
        assert rows[0]["scope_id"] == "bbw"
        assert rows[0]["counters"] == service.counters
        assert store.counts()["obs_snapshots"] == 1


class TestQueries:
    def test_pagination_envelope(self, populated):
        store, campaign_id = populated
        page1, total = store.page("campaign_runs", campaign_id, limit=1)
        page2, _ = store.page("campaign_runs", campaign_id, limit=1,
                              offset=1)
        assert total == 2
        assert len(page1) == len(page2) == 1
        assert page1[0]["id"] != page2[0]["id"]
        # Deterministic order: same query, same pages.
        again, _ = store.page("campaign_runs", campaign_id, limit=1)
        assert again == page1

    def test_metric_rows_filter(self, populated):
        store, _ = populated
        rows, total = store.metric_rows("deadline_miss_ratio",
                                        min_value=0.0)
        assert total == 2
        none, total_none = store.metric_rows("deadline_miss_ratio",
                                             min_value=2.0)
        assert total_none == 0 and none == []

    def test_unknown_metric_rejected(self, store):
        with pytest.raises(ValueError, match="unknown metric"):
            store.metric_rows("bogus")
        assert "deadline_miss_ratio" in RUN_METRIC_COLUMNS

    def test_campaign_facets(self, populated):
        store, _ = populated
        rows, total = store.campaigns(scheduler="coefficient",
                                      workload="tiny")
        assert total == 1
        _, none = store.campaigns(scheduler="fspec")
        assert none == 0

    def test_unknown_parent_has_no_page(self, populated):
        store, _ = populated
        assert store.page("campaign_runs", "nope") is None

    def test_unlisted_filter_rejected(self, populated):
        store, _ = populated
        with pytest.raises(TypeError, match="no filter 'engine_mode'"):
            store.campaigns(engine_mode="vectorized")

    def test_digest_diff_reads_a_page_in_three_statements(
            self, populated, tiny_campaign_interpreter, interpreter_kwargs):
        store, _ = populated
        store.record_campaign(tiny_campaign_interpreter, interpreter_kwargs)
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            rows, total = store.digest_diff(limit=500)
        finally:
            store._conn.set_trace_callback(None)
        # The count, the page and one digest query for the whole page.
        assert len(statements) == 3
        assert total == len(rows) == 2
        assert all(row["modes"] == 2 and row["equal"] for row in rows)


class TestStoreLifecycle:
    def test_read_only_refuses_writes_and_creation(self, tmp_path,
                                                   populated):
        store, _ = populated
        with pytest.raises(FileNotFoundError):
            ResultStore(str(tmp_path / "absent.db"), read_only=True)
        with ResultStore(store.path, read_only=True) as ro:
            assert ro.counts()["campaigns"] == 1
            with pytest.raises(ValueError, match="read-only"):
                with ro.transaction():
                    pass

    def test_older_schema_rejected(self, tmp_path):
        path = str(tmp_path / "v1.db")
        ResultStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE store_meta SET value = '1' "
                               "WHERE key = 'schema_version'")
        connection.close()
        with pytest.raises(ValueError, match="schema '1' is not supported"):
            ResultStore(path)

    def test_non_store_file_rejected(self, tmp_path):
        bogus = tmp_path / "not_a_store.db"
        bogus.write_bytes(b"definitely not sqlite")
        with pytest.raises(ValueError, match="not a result store"):
            ResultStore(str(bogus), read_only=True)
