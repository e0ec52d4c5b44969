"""Campaign plans: round trips, publish/join, claim identity."""

import dataclasses
import os

import pytest

from repro.distrib.plan import CampaignPlan


def plan(**overrides):
    base = dict(
        scheduler="coefficient", workload="synthetic", count=6,
        seed=42, seeds=(42, 43, 44, 45), aperiodic=0, minislots=100,
        ber=1e-7, reliability_goal=1 - 1e-4, duration_ms=50.0,
        engine_mode="interpreter", chunk=2)
    base.update(overrides)
    return CampaignPlan(**base)


class TestRoundTrip:
    def test_json_round_trip(self):
        original = plan()
        assert CampaignPlan.from_json(original.to_json()) == original

    def test_unknown_fields_rejected(self):
        text = plan().to_json().replace(
            '"chunk": 2', '"chunk": 2,\n  "surprise": true')
        with pytest.raises(ValueError, match="surprise"):
            CampaignPlan.from_json(text)

    def test_wrong_version_rejected(self):
        text = plan().to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            CampaignPlan.from_json(text)

    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            plan(seeds=())
        with pytest.raises(ValueError, match="chunk"):
            plan(chunk=0)


class TestRanges:
    def test_chunking(self):
        assert plan(chunk=2).ranges() == [(0, (42, 43)), (1, (44, 45))]
        assert plan(chunk=3).ranges() == [(0, (42, 43, 44)), (1, (45,))]
        assert plan(chunk=10).ranges() == [(0, (42, 43, 44, 45))]

    def test_claims_cover_all_seeds(self):
        claims = plan(chunk=1).range_claims()
        assert len(claims) == 4
        assert [seeds for __, __, seeds in claims] == [
            (42,), (43,), (44,), (45,)]
        assert len({claim for claim, __, __ in claims}) == 4

    def test_claims_are_engine_independent(self):
        # The double-claim regression: a vectorized joiner must
        # compute the exact claim names the interpreter worker
        # computed, or the two race each other through every range.
        interpreter = plan(engine_mode="interpreter").range_claims()
        vectorized = plan(engine_mode="vectorized").range_claims()
        assert interpreter == vectorized

    def test_claims_depend_on_the_spec(self):
        baseline = plan().range_claims()
        assert plan(ber=1e-6).range_claims() != baseline
        assert plan(scheduler="fspec").range_claims() != baseline
        assert plan(duration_ms=60.0).range_claims() != baseline


class TestMatching:
    def test_matches_ignores_engine_mode(self):
        assert plan().matches(plan(engine_mode="vectorized"))
        assert plan(engine_mode="vectorized").matches(plan())

    def test_default_engine_is_vectorized(self):
        defaults = dict(scheduler="coefficient", workload="synthetic",
                        count=6, seed=42, seeds=(42,), aperiodic=0,
                        minislots=100, ber=1e-7, reliability_goal=0.9,
                        duration_ms=50.0)
        assert CampaignPlan(**defaults).engine_mode == "vectorized"

    def test_matches_rejects_spec_changes(self):
        assert not plan().matches(plan(ber=1e-6))
        assert not plan().matches(plan(seeds=(42, 43)))


class TestPublish:
    def test_first_writer_wins(self, tmp_path):
        directory = str(tmp_path)
        published = plan().publish(directory)
        assert published == plan()
        assert CampaignPlan.load(directory) == plan()

    def test_matching_joiner_adopts_with_own_engine(self, tmp_path):
        directory = str(tmp_path)
        plan().publish(directory)
        joined = plan(engine_mode="vectorized").publish(directory)
        assert joined.engine_mode == "vectorized"
        assert joined.matches(plan())
        # The file on disk still holds the first writer's plan.
        assert CampaignPlan.load(directory).engine_mode == "interpreter"

    def test_publish_never_exposes_a_partial_plan(self, tmp_path,
                                                  monkeypatch):
        # A joiner polls for plan.json and loads it at once: the file
        # must not exist before its content does.
        directory = str(tmp_path)
        path = CampaignPlan.path_in(directory)
        seen = []
        real_to_json = CampaignPlan.to_json

        def spy(self):
            seen.append(os.path.exists(path))
            return real_to_json(self)

        monkeypatch.setattr(CampaignPlan, "to_json", spy)
        plan().publish(directory)
        assert seen == [False]
        assert CampaignPlan.load(directory) == plan()
        assert os.listdir(directory) == ["plan.json"]

    def test_mismatched_joiner_refused(self, tmp_path):
        directory = str(tmp_path)
        plan().publish(directory)
        with pytest.raises(ValueError, match="different campaign"):
            plan(ber=1e-6).publish(directory)


class TestKwargs:
    def test_kwargs_match_cli_construction(self):
        # The coordinated path must build the exact same experiment
        # kwargs the `repro campaign` CLI builds from the same scalars
        # -- equivalence to the serial run depends on it.
        kwargs = plan().experiment_kwargs()
        assert kwargs["ber"] == 1e-7
        assert kwargs["duration_ms"] == 50.0
        assert kwargs["engine_mode"] == "interpreter"
        assert kwargs["aperiodic"] is None
        assert len(kwargs["periodic"]) == 6

    def test_aperiodic_signals_included_when_requested(self):
        kwargs = plan(aperiodic=5).experiment_kwargs()
        assert kwargs["aperiodic"] is not None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan().scheduler = "other"
