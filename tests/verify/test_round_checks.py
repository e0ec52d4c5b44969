"""Compiled-round rules over rounds built and hand-broken.

``FRS110``/``FRS113`` are the verifier's own round rules.  The rounds
that triggered the retired ``FRS111`` (window geometry) and ``FRS112``
(idle tables vs owners) rules are kept here and asserted against the
hyperperiod model checker, whose ``MDL401``/``MDL403`` prove the same
invariants over every cycle.
"""

import pytest

from repro.check.model_checker import check_hyperperiod_model
from repro.protocol.channel import Channel
from repro.protocol.schedule import build_dual_schedule
from repro.packing.frame_packing import pack_signals
from repro.timeline.compiler import (
    SEGMENT_STATIC,
    CompiledRound,
    compile_round,
)
from repro.check.model_checker import check_hyperperiod_model
from repro.verify.round_checks import check_compiled_round
from repro.verify.schedule_checks import check_schedule


@pytest.fixture
def table(tiny_workload, small_params):
    packing = pack_signals(tiny_workload, small_params)
    return build_dual_schedule(packing.static_frames(), small_params)


@pytest.fixture
def compiled(table, small_params):
    return compile_round(table, small_params, [Channel.A, Channel.B])


def rebuild(compiled, drop=(), override=None, **replacements):
    """A copy of ``compiled`` with rows dropped or arrays replaced."""
    arrays = dict(
        starts=list(compiled.starts), ends=list(compiled.ends),
        actions=list(compiled.actions), slot_ids=list(compiled.slot_ids),
        channel_codes=list(compiled.channel_codes),
        owner_nodes=list(compiled.owner_nodes),
        frame_ids=list(compiled.frame_ids),
        segment_kinds=list(compiled.segment_kinds),
        frames=list(compiled.frames),
    )
    arrays.update(replacements)
    for index in sorted(drop, reverse=True):
        for array in arrays.values():
            del array[index]
    return CompiledRound(
        params=compiled.params, channels=compiled.channels,
        pattern_length=compiled.pattern_length,
        idle_slots_override=override, **arrays,
    )


def static_indices(compiled):
    return [i for i, kind in enumerate(compiled.segment_kinds)
            if kind == SEGMENT_STATIC]


class TestCleanRound:
    def test_compiled_round_is_clean(self, compiled, table):
        assert len(check_compiled_round(compiled, table=table)) == 0

    def test_clean_without_source_table(self, compiled):
        assert len(check_compiled_round(compiled)) == 0


class TestFrs110OwnerMismatch:
    def test_dropped_entry_is_missing_owner(self, compiled, table):
        broken = rebuild(compiled, drop=[static_indices(compiled)[0]])
        report = check_compiled_round(broken, table=table)
        assert "FRS110" in report.rule_ids()
        assert any("disagrees" in d.message for d in report.diagnostics)

    def test_without_table_the_check_is_skipped(self, compiled):
        broken = rebuild(compiled, drop=[static_indices(compiled)[0]])
        assert "FRS110" not in check_compiled_round(broken).rule_ids()

    def test_budget_caps_the_flood(self, compiled, table):
        broken = rebuild(compiled, drop=static_indices(compiled))
        report = check_compiled_round(broken, table=table)
        frs110 = [d for d in report.diagnostics if d.rule_id == "FRS110"]
        assert len(frs110) == 9  # 8 findings + the suppression note
        assert "suppressed" in frs110[-1].message


class TestFrs111WindowInvalid:
    """The retired FRS111 trigger rounds: MDL401 catches each."""

    def test_misaligned_window(self, compiled):
        index = static_indices(compiled)[0]
        ends = list(compiled.ends)
        ends[index] += 1
        report = check_hyperperiod_model(rebuild(compiled, ends=ends))
        assert "MDL401" in report.rule_ids()

    def test_action_point_outside_window(self, compiled):
        index = static_indices(compiled)[0]
        actions = list(compiled.actions)
        actions[index] += 7
        report = check_hyperperiod_model(rebuild(compiled,
                                                 actions=actions))
        assert "MDL401" in report.rule_ids()

    def test_overlapping_windows(self, small_params):
        """Two geometrically valid slot-1 windows on one channel overlap."""
        slot_mt = small_params.gd_static_slot_mt
        offset = small_params.gd_action_point_offset_mt
        round_ = CompiledRound(
            params=small_params, channels=[Channel.A],
            pattern_length=1,
            starts=[0, 0], ends=[slot_mt, slot_mt],
            actions=[offset, offset], slot_ids=[1, 1],
            channel_codes=[0, 0], owner_nodes=[0, 1], frame_ids=[1, 2],
            segment_kinds=[SEGMENT_STATIC, SEGMENT_STATIC],
        )
        report = check_hyperperiod_model(round_)
        assert "MDL401" in report.rule_ids()
        assert any("overlap" in d.message for d in report.diagnostics
                   if d.rule_id == "MDL401")


class TestFrs112SlackInconsistent:
    """The retired FRS112 trigger round: MDL403 catches it."""

    def test_override_disagreeing_with_owners(self, compiled, table):
        override = {
            channel: [(1,)] * compiled.pattern_length
            for channel in compiled.channels
        }
        broken = rebuild(compiled, override=override)
        report = check_hyperperiod_model(broken)
        assert "MDL403" in report.rule_ids()
        # The geometry and ownership rules are untouched by a bad
        # slack table: the rule is independently triggerable.
        assert "MDL401" not in report.rule_ids()
        assert "MDL402" not in report.rule_ids()
        assert len(check_compiled_round(broken, table=table)) == 0


class TestFrs113StepsInconsistent:
    """The static-step view (the engines' batch geometry) vs the arrays.

    ``_static_steps`` is a derived cache; these tests tamper with it
    directly, the way a bad deserializer or future compiler change
    would, and expect FRS113 to notice while the array rules stay
    quiet.
    """

    def test_clean_round_has_no_frs113(self, compiled, table):
        assert "FRS113" not in check_compiled_round(compiled,
                                                    table=table).rule_ids()

    def test_missing_step_is_reported(self, compiled, table):
        with_steps = rebuild(compiled)
        with_steps._static_steps = tuple(
            steps[1:] if cycle == 0 else steps
            for cycle, steps in enumerate(with_steps._static_steps)
        )
        report = check_compiled_round(with_steps, table=table)
        assert "FRS113" in report.rule_ids()
        assert any("missing from the step view" in d.message
                   for d in report.diagnostics)
        assert "FRS110" not in report.rule_ids()
        assert "FRS111" not in report.rule_ids()

    def test_wrong_action_offset_is_reported(self, compiled, table):
        broken = rebuild(compiled)
        first_cycle = list(broken._static_steps[0])
        step = first_cycle[0]
        first_cycle[0] = step._replace(
            action_offset_mt=step.action_offset_mt + 3)
        broken._static_steps = (tuple(first_cycle),) \
            + broken._static_steps[1:]
        report = check_compiled_round(broken, table=table)
        assert "FRS113" in report.rule_ids()
        assert any("action offset" in d.message for d in report.diagnostics)

    def test_out_of_order_steps_are_reported(self, compiled, table):
        broken = rebuild(compiled)
        first_cycle = list(broken._static_steps[0])
        assert len(first_cycle) >= 2, "fixture needs >= 2 owned slots"
        first_cycle.reverse()
        broken._static_steps = (tuple(first_cycle),) \
            + broken._static_steps[1:]
        report = check_compiled_round(broken, table=table)
        assert "FRS113" in report.rule_ids()
        assert any("slot-ascending" in d.message for d in report.diagnostics)

    def test_phantom_entry_is_reported(self, compiled, table):
        broken = rebuild(compiled)
        first_cycle = list(broken._static_steps[0])
        step = first_cycle[0]
        owned_channels = {channel for channel, __ in step.entries}
        phantom = (Channel.B if Channel.B not in owned_channels
                   else Channel.A)
        if phantom in owned_channels:
            pytest.skip("fixture owns every channel in the first slot")
        first_cycle[0] = step._replace(
            entries=step.entries + ((phantom, step.entries[0][1]),))
        broken._static_steps = (tuple(first_cycle),) \
            + broken._static_steps[1:]
        report = check_compiled_round(broken, table=table)
        assert "FRS113" in report.rule_ids()
        assert any("phantom" in d.message for d in report.diagnostics)


def rule_counts(report):
    from collections import Counter
    return Counter(d.rule_id for d in report.diagnostics)


class TestFrs11xDiagnosticBudgets:
    """FRS110/FRS113 fire exactly once per single offense; every rule
    is capped at 8 findings + 1 suppression note under a flood.  The
    retired FRS111/FRS112 rounds are asserted against MDL401/MDL403."""

    def test_frs110_single_offense_fires_once(self, compiled, table):
        # The round spans one pattern, so its one missing row stands
        # for every cycle-counter value that maps to it: FRS110 reports
        # each of those lookups (capped by the budget).
        broken = rebuild(compiled, drop=[static_indices(compiled)[0]])
        report = check_compiled_round(broken, table=table)
        hits = 64 // compiled.pattern_length
        assert rule_counts(report) == {"FRS110": min(hits, 8)
                                       + (hits > 8)}
        for diagnostic in report.diagnostics[:min(hits, 8)]:
            cycle = int(diagnostic.location.split(".")[2].split()[1])
            assert cycle % compiled.pattern_length == 0

    def test_frs111_single_offense_fires_once(self, compiled):
        index = static_indices(compiled)[0]
        ends = list(compiled.ends)
        ends[index] += 1
        report = check_hyperperiod_model(rebuild(compiled, ends=ends))
        assert rule_counts(report) == {"MDL401": 1}

    def test_frs111_flood_is_capped(self, compiled):
        ends = [end + 1 if kind == SEGMENT_STATIC else end
                for end, kind in zip(compiled.ends,
                                     compiled.segment_kinds)]
        report = check_hyperperiod_model(rebuild(compiled, ends=ends))
        mdl401 = [d for d in report.diagnostics if d.rule_id == "MDL401"]
        assert len(mdl401) == 9  # 8 findings + the suppression note
        assert "suppressed" in mdl401[-1].message

    def test_frs112_single_offense_fires_once(self, compiled,
                                              small_params):
        # Swap one idle slot for an owned one: the cardinality (and so
        # every prefix sum) is preserved, isolating the complement rule.
        # MDL403 sweeps the round's own cycles, so it fires once.
        override = {
            channel: [list(compiled.idle_slots(channel, cycle))
                      for cycle in range(compiled.pattern_length)]
            for channel in compiled.channels
        }
        idle = override[Channel.A][0]
        owned = sorted(
            set(range(1, small_params.g_number_of_static_slots + 1))
            - set(idle))
        assert idle and owned, "fixture needs both idle and owned slots"
        idle[0] = owned[0]
        frozen = {channel: [tuple(sorted(row)) for row in rows]
                  for channel, rows in override.items()}
        report = check_hyperperiod_model(rebuild(compiled,
                                                 override=frozen))
        assert rule_counts(report) == {"MDL403": 1}
        assert report.diagnostics[0].location == "round.slack.A.cycle 0"

    def test_frs112_flood_is_capped(self, compiled):
        override = {
            channel: [(1,)] * compiled.pattern_length
            for channel in compiled.channels
        }
        report = check_hyperperiod_model(rebuild(compiled,
                                                 override=override))
        mdl403 = [d for d in report.diagnostics if d.rule_id == "MDL403"]
        assert len(mdl403) == 9
        assert "suppressed" in mdl403[-1].message

    def test_frs113_single_offense_fires_once(self, compiled, table):
        broken = rebuild(compiled)
        broken._static_steps = tuple(
            steps[1:] if cycle == 0 else steps
            for cycle, steps in enumerate(broken._static_steps)
        )
        report = check_compiled_round(broken, table=table)
        assert rule_counts(report) == {"FRS113": 1}

    def test_frs113_flood_is_capped(self, compiled, table):
        broken = rebuild(compiled)
        broken._static_steps = tuple(() for __ in broken._static_steps)
        report = check_compiled_round(broken, table=table)
        frs113 = [d for d in report.diagnostics if d.rule_id == "FRS113"]
        assert len(frs113) == 9
        assert "suppressed" in frs113[-1].message


class TestVerifyConfigurationIntegration:
    """The schedule, round and hyperperiod rule groups over one round,
    as ``verify_experiment`` runs them."""

    @staticmethod
    def verify(table, compiled, params):
        report = check_schedule(table, params)
        report.merge(check_compiled_round(compiled, table=table))
        report.merge(check_hyperperiod_model(compiled))
        return report

    def test_clean_round_passes(self, compiled, table, small_params):
        assert not self.verify(table, compiled, small_params).has_errors

    def test_corrupt_round_is_reported(self, compiled, table,
                                       small_params):
        broken = rebuild(compiled, drop=[static_indices(compiled)[0]])
        report = self.verify(table, broken, small_params)
        assert "FRS110" in report.rule_ids()
