"""The pre-campaign validation gate: run_campaign(validate=True)."""

import pytest

from repro.experiments.campaign import run_campaign
from repro.obs.observability import Observability
from repro.verify.verifier import ConfigurationError


def _kwargs(small_params, tiny_workload, **overrides):
    kwargs = dict(
        params=small_params,
        periodic=tiny_workload.periodic(),
        aperiodic=tiny_workload.aperiodic(),
        ber=1e-7,
        duration_ms=20.0,
    )
    kwargs.update(overrides)
    return kwargs


class TestValidateGate:
    def test_valid_configuration_runs_normally(self, small_params,
                                               tiny_workload):
        campaign = run_campaign(
            "coefficient", seeds=[1, 2], validate=True,
            **_kwargs(small_params, tiny_workload),
        )
        assert len(campaign.results) == 2

    def test_default_is_unvalidated(self, small_params, tiny_workload):
        # validate=False must not reject even an infeasible goal: the
        # gate is opt-in, matching the historical behavior.
        campaign = run_campaign(
            "coefficient", seeds=[1],
            **_kwargs(small_params, tiny_workload,
                      reliability_goal=1.0),
        )
        assert len(campaign.results) == 1

    def test_infeasible_goal_raises_before_any_simulation(
            self, small_params, tiny_workload):
        with pytest.raises(ConfigurationError) as excinfo:
            run_campaign(
                "coefficient", seeds=[1], validate=True,
                **_kwargs(small_params, tiny_workload,
                          reliability_goal=1.0),
            )
        report = excinfo.value.report
        assert "ANA204" in report.rule_ids()

    def test_requires_explicit_params(self, tiny_workload):
        with pytest.raises(ValueError, match="explicit params"):
            run_campaign(
                "coefficient", seeds=[1], validate=True,
                periodic=tiny_workload.periodic(),
            )

    def test_observability_counts_validations(self, small_params,
                                              tiny_workload):
        obs = Observability()
        run_campaign(
            "coefficient", seeds=[1], validate=True, obs=obs,
            **_kwargs(small_params, tiny_workload),
        )
        counters = obs.deterministic_snapshot()["counters"]
        assert counters["campaign.validations"] == 1
        assert "campaign.validation_failures" not in counters

    def test_observability_counts_failures(self, small_params,
                                           tiny_workload):
        obs = Observability()
        with pytest.raises(ConfigurationError):
            run_campaign(
                "coefficient", seeds=[1], validate=True, obs=obs,
                **_kwargs(small_params, tiny_workload,
                          reliability_goal=1.0),
            )
        counters = obs.deterministic_snapshot()["counters"]
        assert counters["campaign.validations"] == 1
        assert counters["campaign.validation_failures"] == 1
