"""MDL4xx: hyperperiod model checks over clean and hand-broken rounds."""

from collections import Counter

from repro.check.model_checker import check_hyperperiod_model
from repro.core.retransmission import dynamic_retransmission_capacity
from repro.protocol.channel import Channel
from repro.protocol.schedule import build_dual_schedule
from repro.packing.frame_packing import pack_signals
from repro.timeline.compiler import compile_round
from repro.verify import verify_experiment

from tests.check.conftest import build_liar_round, build_tiny_round


def rule_counts(report):
    return Counter(d.rule_id for d in report.diagnostics)


class TestCleanRounds:
    def test_tiny_round_is_clean(self, nit_params):
        report = check_hyperperiod_model(build_tiny_round(nit_params))
        assert len(report) == 0

    def test_compiled_workload_is_clean(self, tiny_workload,
                                        small_params):
        packing = pack_signals(tiny_workload, small_params)
        table = build_dual_schedule(packing.static_frames(),
                                    small_params)
        compiled = compile_round(table, small_params,
                                 [Channel.A, Channel.B])
        report = check_hyperperiod_model(compiled)
        assert len(report) == 0

    def test_golden_workload_end_to_end(self, tiny_workload,
                                        small_params):
        report = verify_experiment(small_params, periodic=tiny_workload)
        assert not report.has_errors, report.format()


class TestStructuralViolations:
    def test_mdl401_misaligned_window(self, nit_params):
        broken = build_tiny_round(nit_params, bump_first_end=True)
        assert rule_counts(check_hyperperiod_model(broken)) \
            == {"MDL401": 1}

    def test_mdl402_owner_map_disagreement(self, nit_params):
        broken = build_tiny_round(nit_params)
        # Tamper with the derived owner map the way a bad deserializer
        # would: the flat arrays still say slot 1 of cycle 0 is owned.
        del broken._owners[0][0][1]
        assert rule_counts(check_hyperperiod_model(broken)) \
            == {"MDL402": 1}

    def test_mdl403_sums_every_window_to_the_pattern_end(
            self, tiny_workload, small_params):
        """Every ``[start, pattern_length)`` window the acceptance test
        can start at is compared, not only prefixes and whole patterns."""
        packing = pack_signals(tiny_workload, small_params)
        table = build_dual_schedule(packing.static_frames(),
                                    small_params)
        compiled = compile_round(table, small_params,
                                 [Channel.A, Channel.B])
        pattern = compiled.pattern_length
        assert pattern >= 3, "fixture needs a suffix that is no prefix"
        honest = compiled.idle_slots_between

        def off_by_one_after_the_first_cycle(start, end):
            lie = 1 if (start, end) == (1, pattern) else 0
            return honest(start, end) + lie

        compiled.idle_slots_between = off_by_one_after_the_first_cycle
        report = check_hyperperiod_model(compiled)
        assert rule_counts(report) == {"MDL403": 1}
        assert report.diagnostics[0].location \
            == f"round.slack.window[1, {pattern})"

    def test_mdl403_pattern_length_lie(self, nit_params):
        """A round whose rows outrun its claimed period is MDL401's:
        the round spans one pattern, so each later row is outside it."""
        report = check_hyperperiod_model(build_liar_round(nit_params))
        # The NIT rows of cycles 1-3 and the static row of cycle 2.
        assert rule_counts(report) == {"MDL401": 4}
        assert all("outside the round" in d.message
                   for d in report.diagnostics)
        assert report.has_errors


class TestTheorem1OverTheHyperperiod:
    def test_fundable_budgets_meeting_the_goal_pass(self, nit_params):
        compiled = build_tiny_round(nit_params)
        report = check_hyperperiod_model(
            compiled,
            budgets={"m": 1},
            failure_probabilities={"m": 1e-4},
            instances={"m": 1.0},
            reliability_goal=0.99,
            retransmission_periods_ms={"m": nit_params.cycle_ms * 2},
            dynamic_retransmission_slots_per_cycle={"m": 1},
        )
        assert not report.has_errors, report.format()

    def test_mdl404_unfundable_budgets_missing_goal(self, nit_params):
        # Every static slot owned, no dynamic segment, no override
        # capacity: the planned k=3 clips to 0 and the goal is missed.
        compiled = build_tiny_round(nit_params)
        report = check_hyperperiod_model(
            compiled,
            budgets={"m": 3},
            failure_probabilities={"m": 0.3},
            instances={"m": 10.0},
            reliability_goal=0.999999,
            retransmission_periods_ms={"m": nit_params.cycle_ms},
            dynamic_retransmission_slots_per_cycle=0,
        )
        counts = rule_counts(report)
        assert counts["MDL404"] >= 1
        capacity = [d for d in report.diagnostics
                    if d.location.endswith("capacity")]
        assert capacity, "the fundability clause must fire"
        assert "fundable=0" in capacity[0].message

    def test_missed_goal_is_caught_once(self, tiny_workload,
                                        small_params):
        """`repro check` proves the goal product once, as ANA204, and
        keeps MDL404 for the fundability clip alone."""
        report = verify_experiment(small_params, periodic=tiny_workload,
                                   reliability_goal=1.0)
        assert report.has_errors
        counts = rule_counts(report)
        assert counts["ANA204"] == 1
        assert not [d for d in report.diagnostics
                    if d.location == "round.theorem1"]
        assert all(d.location.endswith("capacity")
                   for d in report.diagnostics if d.rule_id == "MDL404")

    def test_dynamic_capacity_scales_with_channels(self, small_params):
        import dataclasses

        capacity = dynamic_retransmission_capacity(small_params, 100)
        assert capacity > 0
        single = dataclasses.replace(small_params, channel_count=1)
        assert dynamic_retransmission_capacity(single, 100) \
            == capacity // 2
