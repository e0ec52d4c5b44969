"""Unit tests for the JSONL exporter and its validating reader."""

import gc
import json

import pytest

from repro.experiments.runner import _charge_gc
from repro.obs.export import (
    SCHEMA_VERSION,
    attach_event_capture,
    read_metrics_jsonl,
    snapshot_records,
    write_metrics_jsonl,
)
from repro.obs.observability import Observability


@pytest.fixture
def populated_obs():
    """One name per record kind, each from the docs/observability.md
    catalogue; one profile section is a real collector pass charged by
    the runner's GC hook."""
    obs = Observability()
    obs.inc("engine.cycles", 12)
    obs.set_gauge("engine.trace_records", 3)
    with _charge_gc(obs):
        gc.collect(0)
    with obs.section("experiment.run"):
        pass
    return obs


class TestSnapshotRecords:
    def test_meta_record_leads_with_schema(self, populated_obs):
        records = snapshot_records(populated_obs, meta={"seed": 42})
        head = records[0]
        assert head["record"] == "meta"
        assert head["schema"] == SCHEMA_VERSION
        assert head["seed"] == 42

    def test_every_record_kind_present(self, populated_obs):
        events = attach_event_capture(populated_obs)
        populated_obs.emit("slack.promise", granted=True)
        records = snapshot_records(populated_obs, events=events)
        kinds = {r["record"] for r in records}
        assert kinds == {"meta", "counter", "gauge", "profile", "event"}

    def test_counters_sorted_by_name(self, populated_obs):
        populated_obs.inc("a.first")
        records = snapshot_records(populated_obs)
        counters = [r["name"] for r in records if r["record"] == "counter"]
        assert counters == sorted(counters)


class TestWriteAndRead:
    def test_roundtrip(self, populated_obs, tmp_path):
        path = tmp_path / "metrics.jsonl"
        count = write_metrics_jsonl(str(path), populated_obs,
                                    meta={"command": "test"})
        records = read_metrics_jsonl(str(path))
        assert len(records) == count
        counters = {r["name"]: r["value"]
                    for r in records if r["record"] == "counter"}
        assert counters["engine.cycles"] == 12
        gauges = {r["name"]: r for r in records if r["record"] == "gauge"}
        assert gauges["engine.trace_records"]["value"] == 3
        profiles = {r["section"]: r
                    for r in records if r["record"] == "profile"}
        assert set(profiles) == {"engine.gc.gen0", "experiment.run"}
        assert profiles["engine.gc.gen0"]["count"] == 1
        assert profiles["engine.gc.gen0"]["total_ns"] > 0

    def test_one_json_object_per_line(self, populated_obs, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(str(path), populated_obs)
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_captured_events_exported(self, populated_obs, tmp_path):
        events = attach_event_capture(populated_obs)
        populated_obs.emit("engine.cycle", cycle=7, start_mt=5600,
                           pending_work=2)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(str(path), populated_obs, events=events)
        records = read_metrics_jsonl(str(path))
        event_records = [r for r in records if r["record"] == "event"]
        assert event_records == [{"record": "event",
                                  "event": "engine.cycle", "cycle": 7,
                                  "start_mt": 5600, "pending_work": 2}]

    def test_event_capture_is_bounded(self):
        obs = Observability()
        recorder = attach_event_capture(obs, limit=3)
        for i in range(10):
            obs.emit("e", i=i)
        assert len(recorder) == 3


class TestStrictEncoding:
    def test_unencodable_event_field_raises_and_writes_nothing(
            self, populated_obs, tmp_path):
        events = attach_event_capture(populated_obs)
        populated_obs.emit("engine.cycle", payload=object())
        path = tmp_path / "metrics.jsonl"
        with pytest.raises(TypeError, match="payload"):
            write_metrics_jsonl(str(path), populated_obs, events=events)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp file

    def test_coercions_counted(self, tmp_path):
        np = pytest.importorskip("numpy")
        obs = Observability()
        obs.inc("engine.cycles", 1)
        events = attach_event_capture(obs)
        obs.emit("metric.sample", value=np.float64(1.5),
                 bad=float("nan"))
        write_metrics_jsonl(str(tmp_path / "m.jsonl"), obs, events=events)
        counters = obs.snapshot()["counters"]
        assert counters["obs.export.coerced_values"] == 2

    def test_clean_export_leaves_counter_untouched(self, populated_obs,
                                                   tmp_path):
        write_metrics_jsonl(str(tmp_path / "m.jsonl"), populated_obs)
        counters = populated_obs.snapshot()["counters"]
        assert "obs.export.coerced_values" not in counters


class TestReaderValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_metrics_jsonl(str(path))

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "no_meta.jsonl"
        path.write_text('{"record": "counter", "name": "c", "value": 1}\n')
        with pytest.raises(ValueError, match="meta"):
            read_metrics_jsonl(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "schema.jsonl"
        path.write_text('{"record": "meta", "schema": 999}\n')
        with pytest.raises(ValueError, match="schema"):
            read_metrics_jsonl(str(path))

    def test_missing_discriminator_rejected(self, tmp_path):
        path = tmp_path / "discriminator.jsonl"
        path.write_text('{"record": "meta", "schema": 1}\n{"name": "x"}\n')
        with pytest.raises(ValueError, match="discriminator"):
            read_metrics_jsonl(str(path))

    def test_malformed_json_rejected_with_line_number(self, tmp_path):
        # A malformed line *before* the end is corruption, not
        # truncation: still a hard error.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta", "schema": 1}\nnot json{\n'
                        '{"record": "counter", "name": "c", "value": 1}\n')
        with pytest.raises(ValueError, match=":2:"):
            read_metrics_jsonl(str(path))

    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        # The signature a crashed in-place writer leaves: a partial
        # final line.  The intact prefix must stay readable.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"record": "meta", "schema": 1}\n'
                        '{"record": "counter", "name": "c", "value": 1}\n'
                        '{"record": "gauge", "na')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = read_metrics_jsonl(str(path))
        assert [r["record"] for r in records] == ["meta", "counter"]

    def test_file_of_only_a_torn_line_still_rejected(self, tmp_path):
        # Skipping the torn tail must not bypass the meta validation.
        path = tmp_path / "all_torn.jsonl"
        path.write_text('{"record": "meta", "sch')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            with pytest.raises(ValueError, match="empty"):
                read_metrics_jsonl(str(path))

    def test_blank_lines_tolerated(self, populated_obs, tmp_path):
        path = tmp_path / "blanks.jsonl"
        write_metrics_jsonl(str(path), populated_obs)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        read_metrics_jsonl(str(path))  # must not raise
