"""DiagnosticBudget: per-rule caps with an explicit suppression note."""

from repro.verify.diagnostics import (
    Diagnostic,
    DiagnosticBudget,
    Report,
    Severity,
)


def finding(rule_id: str, index: int = 0) -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id, severity=Severity.ERROR,
        location=f"round.slot {index}",
        message=f"finding {index}", fix_hint="",
    )


class TestDiagnosticBudget:
    def test_under_budget_everything_lands(self):
        report = Report()
        budget = DiagnosticBudget(report)
        for index in range(3):
            budget.add(finding("FRS110", index))
        budget.close()
        assert len(report) == 3
        assert budget.count("FRS110") == 3

    def test_flood_is_capped_with_a_note(self):
        report = Report()
        budget = DiagnosticBudget(report, max_per_rule=8)
        for index in range(20):
            budget.add(finding("MDL401", index))
        budget.close()
        rows = [d for d in report.diagnostics if d.rule_id == "MDL401"]
        assert len(rows) == 9  # 8 findings + the suppression note
        assert "12 more" in rows[-1].message
        assert "suppressed" in rows[-1].message
        assert budget.count("MDL401") == 20  # counts keep the truth

    def test_budgets_are_per_rule(self):
        report = Report()
        budget = DiagnosticBudget(report, max_per_rule=2)
        for index in range(5):
            budget.add(finding("FRS110", index))
            budget.add(finding("FRS113", index))
        budget.close()
        for rule_id in ("FRS110", "FRS113"):
            rows = [d for d in report.diagnostics
                    if d.rule_id == rule_id]
            assert len(rows) == 3  # 2 findings + note, each namespace
            assert "suppressed" in rows[-1].message

    def test_exact_budget_needs_no_note(self):
        report = Report()
        budget = DiagnosticBudget(report, max_per_rule=8)
        for index in range(8):
            budget.add(finding("MDL403", index))
        budget.close()
        assert len(report) == 8
        assert all("suppressed" not in d.message
                   for d in report.diagnostics)
