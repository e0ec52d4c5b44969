"""EFF3xx: every shipped policy proved, deliberate liars refuted."""

from repro.check.runner import check_sources

SHIPPED_POLICIES = (
    "QueueingPolicyBase",
    "CoEfficientPolicy",
    "DynamicPriorityPolicy",
    "FspecPolicy",
    "StaticOnlyPolicy",
)

IMPURE_POLICY = '''\
from repro.core.queueing import QueueingPolicyBase


class SneakyPolicy(QueueingPolicyBase):
    def decisions_are_outcome_free(self):
        return True

    def static_frame_for(self, channel, cycle, slot_id, action_point_mt):
        if self._chunk_status:
            return None
        return super().static_frame_for(channel, cycle, slot_id,
                                        action_point_mt)
'''

ARRIVAL_READER_POLICY = '''\
from repro.core.queueing import QueueingPolicyBase


class EagerPolicy(QueueingPolicyBase):
    def decisions_are_outcome_free(self):
        return not self.feedback

    def on_outcome(self, segment, settled):
        self._last_outcome = settled[-1][2]
        super().on_outcome(segment, settled)

    def on_arrival(self, pendings):
        if self._last_outcome is None:
            super().on_arrival(pendings)
'''

BATCH_READER_POLICY = '''\
from repro.core.queueing import QueueingPolicyBase


class TallyPolicy(QueueingPolicyBase):
    def decisions_are_outcome_free(self):
        return not self.feedback

    def on_outcome(self, segment, settled):
        for pending, channel, outcome, end_mt in settled:
            self._corrupted_tally[pending.message_id] = outcome
        super().on_outcome(segment, settled)

    def on_arrival(self, pendings):
        for pending in pendings:
            if self._corrupted_tally.get(pending.message_id) is None:
                super().on_arrival((pending,))
'''

CLOCKED_POLICY = '''\
import time

from repro.core.queueing import QueueingPolicyBase


class ClockedPolicy(QueueingPolicyBase):
    def dynamic_frame_for(self, channel, slot_id, start_mt,
                          minislots_remaining):
        if time.time() > 0:
            return None
        return super().dynamic_frame_for(channel, slot_id, start_mt,
                                         minislots_remaining)
'''


class TestShippedPoliciesAreProved:
    def test_zero_false_positives_on_the_tree(self):
        report = check_sources()
        assert not report.has_errors, report.format()
        assert not any(d.severity.name == "WARNING"
                       for d in report.diagnostics), report.format()

    def test_every_policy_gets_an_eff300_proof(self):
        report = check_sources()
        proofs = [d for d in report.diagnostics if d.rule_id == "EFF300"]
        proved = {d.message.split(":")[0] for d in proofs}
        assert set(SHIPPED_POLICIES) <= proved
        for diagnostic in proofs:
            assert "disjoint from the outcome-path write set" \
                in diagnostic.message


class TestImpurePoliciesAreRefuted:
    def test_outcome_read_on_decision_path_is_eff301(self):
        report = check_sources(extra_sources={
            "repro.test_impure": ("tests/fake/impure.py", IMPURE_POLICY),
        })
        refutations = [d for d in report.diagnostics
                       if d.rule_id == "EFF301"]
        assert len(refutations) == 1
        message = refutations[0].message
        # The diagnostic names the conflicting location and both ends
        # of the call chain.
        assert "SneakyPolicy" in message
        assert "_chunk_status" in message
        assert "SneakyPolicy.static_frame_for" in message
        assert "on_outcome" in message

    def test_outcome_read_on_arrival_path_is_eff301(self):
        """Arrivals land mid-segment before its outcomes are settled,
        so the arrival path is a decision entry like the slot queries."""
        report = check_sources(extra_sources={
            "repro.test_eager": ("tests/fake/eager.py",
                                 ARRIVAL_READER_POLICY),
        })
        refutations = [d for d in report.diagnostics
                       if d.rule_id == "EFF301"]
        assert len(refutations) == 1
        message = refutations[0].message
        assert "EagerPolicy" in message
        assert "_last_outcome" in message
        assert "EagerPolicy.on_arrival" in message
        assert "EagerPolicy.on_outcome" in message

    def test_batch_arrival_reading_batch_outcome_writes_is_eff301(self):
        """A batch ``on_arrival`` that reads, per pending of its pass, a
        map the batch ``on_outcome`` fills per settled attempt."""
        report = check_sources(extra_sources={
            "repro.test_tally": ("tests/fake/tally.py",
                                 BATCH_READER_POLICY),
        })
        refutations = [d for d in report.diagnostics
                       if d.rule_id == "EFF301"]
        assert len(refutations) == 1
        message = refutations[0].message
        assert "TallyPolicy" in message
        assert "_corrupted_tally.*" in message
        assert "TallyPolicy.on_arrival" in message
        assert "TallyPolicy.on_outcome" in message
        assert not any(d.rule_id == "EFF300"
                       and d.message.startswith("TallyPolicy")
                       for d in report.diagnostics)

    def test_wall_clock_on_decision_path_is_eff302(self):
        report = check_sources(extra_sources={
            "repro.test_clocked": ("tests/fake/clocked.py",
                                   CLOCKED_POLICY),
        })
        clocked = [d for d in report.diagnostics
                   if d.rule_id == "EFF302"]
        assert len(clocked) == 1
        assert "wall-clock" in clocked[0].message
        assert "ClockedPolicy.dynamic_frame_for" in clocked[0].message

    def test_shipped_policies_stay_proved_next_to_a_liar(self):
        report = check_sources(extra_sources={
            "repro.test_impure": ("tests/fake/impure.py", IMPURE_POLICY),
        })
        proved = {d.message.split(":")[0] for d in report.diagnostics
                  if d.rule_id == "EFF300"}
        assert set(SHIPPED_POLICIES) <= proved
