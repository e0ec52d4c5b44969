"""Counterexample synthesis: shrink, serialize, reproduce."""

import dataclasses
import json

import pytest

from repro.check import check_round
from repro.check.counterexample import (
    PAYLOAD_FORMAT,
    encode_payload,
    payload_to_round,
    round_to_payload,
    shrink_round,
)
from repro.check.model_checker import check_hyperperiod_model
from repro.check.runner import write_counterexample

from tests.check.conftest import build_liar_round, build_tiny_round


class TestShrink:
    def test_liar_round_shrinks_to_one_row(self, nit_params):
        # A static-only cycle: no NIT row is needed to tile cycle 0, so
        # the one row outside the claimed round is the whole story.
        params = dataclasses.replace(nit_params, gd_cycle_mt=80)
        liar = build_liar_round(params)
        shrunk = shrink_round(
            liar, ["MDL401"],
            lambda candidate: check_hyperperiod_model(candidate))
        assert len(shrunk) == 1
        assert shrunk.starts[0] >= params.gd_cycle_mt
        # The minimal round still violates the original rule.
        report = check_hyperperiod_model(shrunk)
        assert "MDL401" in report.rule_ids()

    def test_shrinking_keeps_an_original_violation(self, nit_params):
        # With a NIT in every cycle, dropping rows creates a different
        # MDL401 (cycle 0 no longer tiled); the shrinker must not trade
        # the original "outside the round" rows for it.
        liar = build_liar_round(nit_params)
        shrunk = shrink_round(
            liar, ["MDL401"],
            lambda candidate: check_hyperperiod_model(candidate))
        assert len(shrunk) >= 1
        messages = [d.message for d in check_hyperperiod_model(shrunk)
                    if d.rule_id == "MDL401"]
        assert any("outside the round" in m for m in messages)

    def test_clean_round_is_returned_unchanged(self, nit_params):
        clean = build_tiny_round(nit_params)
        shrunk = shrink_round(
            clean, ["MDL403"],
            lambda candidate: check_hyperperiod_model(candidate))
        assert len(shrunk) == len(clean)


class TestPayloadRoundTrip:
    def test_payload_reconstructs_the_round(self, nit_params):
        liar = build_liar_round(nit_params)
        payload = round_to_payload(liar, ["MDL401"])
        assert payload["format"] == PAYLOAD_FORMAT
        assert "cycle_count" not in payload
        rebuilt = payload_to_round(payload)
        assert list(rebuilt.starts) == list(liar.starts)
        assert rebuilt.pattern_length == liar.pattern_length
        assert "MDL401" in check_hyperperiod_model(rebuilt).rule_ids()

    def test_v1_payload_is_refused(self, nit_params):
        payload = round_to_payload(build_liar_round(nit_params), ["MDL401"])
        payload["format"] = "repro.check.counterexample/v1"
        payload["cycle_count"] = 64
        with pytest.raises(ValueError, match="expected .*v2"):
            payload_to_round(payload)
        report = check_round(payload)
        assert report.rule_ids() == ["MDL401"]
        assert "cannot reconstruct" in report.diagnostics[0].message

    def test_encoding_is_deterministic(self, nit_params):
        liar = build_liar_round(nit_params)
        first = encode_payload(round_to_payload(liar, ["MDL401"]))
        second = encode_payload(round_to_payload(liar, ["MDL401"]))
        assert first == second
        assert first.endswith(b"\n")

    def test_check_round_rejects_garbage(self):
        report = check_round({"format": "not-a-counterexample"})
        assert report.has_errors
        assert "MDL401" in report.rule_ids()


class TestSynthesisPipeline:
    def test_violation_writes_a_runnable_counterexample(self, nit_params,
                                                        tmp_path):
        liar = build_liar_round(nit_params)
        report = check_hyperperiod_model(liar)
        assert report.has_errors
        write_counterexample(report, lambda: liar, tmp_path, "liar")
        notes = [d for d in report.diagnostics if d.rule_id == "MDL405"]
        assert len(notes) == 1
        assert "--round-json" in notes[0].message

        path = tmp_path / "counterexample-liar.json"
        payload = json.loads(path.read_text())
        assert payload["rules"] == ["MDL401"]
        # The serialized minimal round is runnable and still failing.
        replay = check_round(payload)
        assert replay.has_errors

    def test_clean_round_writes_nothing(self, nit_params, tmp_path):
        clean = build_tiny_round(nit_params)
        report = check_hyperperiod_model(clean)
        # A clean report never asks for the round.
        write_counterexample(report, lambda: pytest.fail("round built"),
                             tmp_path, "clean")
        assert not list(tmp_path.iterdir())
        assert len(report) == 0
