"""Structured diagnostics shared by the static-analysis layer.

Both halves of the static-analysis subsystem -- the simulation-free
configuration verifier (:mod:`repro.verify`) and the contract checker
(:mod:`repro.check`) -- report their findings in the same shape:
a :class:`Diagnostic` carries a stable rule id, a severity, a location,
a human-readable message and a fix hint, and a :class:`Report` collects
them with the filtering and formatting the CLI and the pre-campaign
gate need.

Rule-id namespaces:

- ``FRC*`` -- FlexRay cluster/cycle arithmetic (config checks);
- ``FRS*`` -- static-segment schedule-table checks;
- ``ANA*`` -- analysis-object checks (slack tables, busy-period
  preconditions, Theorem-1 feasibility, deadline sanity);
- ``DET*`` -- determinism rules over the repo's own source;
- ``EFF*`` -- policy effect proofs over the repo's own source;
- ``MDL*`` -- hyperperiod model checks of compiled rounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Severity", "Diagnostic", "Report", "DiagnosticBudget"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a report fail (non-zero CLI exit, campaign
    gate raises); ``WARNING`` findings are surfaced but do not fail;
    ``INFO`` findings are purely informational.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        rule_id: Stable identifier (``FRC001``, ``DET103``, ...); tests
            and suppressions key on it, so it never changes meaning.
        severity: :class:`Severity` of the finding.
        location: Where the problem is.  For configuration objects a
            dotted path (``params.gd_cycle_mt``, ``schedule.A.slot 7``);
            for lint findings ``path:line:column``.
        message: What is wrong, with the offending values inlined.
        fix_hint: How to make the finding go away (may be empty).
    """

    rule_id: str
    severity: Severity
    location: str
    message: str
    fix_hint: str = ""

    def format(self) -> str:
        """One-line rendering: ``location: severity RULE: message``."""
        line = f"{self.location}: {self.severity.value} {self.rule_id}: " \
               f"{self.message}"
        if self.fix_hint:
            line += f" [hint: {self.fix_hint}]"
        return line

    def to_row(self) -> Dict[str, str]:
        """Flat dict for table/JSON emission."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "hint": self.fix_hint,
        }


@dataclass
class Report:
    """An ordered collection of diagnostics.

    Order is deterministic: findings appear in the order the checks
    emitted them (checks themselves iterate sorted inputs), so two runs
    over the same inputs render byte-identical reports.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append many findings."""
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "Report") -> None:
        """Append every finding of another report."""
        self.diagnostics.extend(other.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        """Findings with :attr:`Severity.ERROR`."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Findings with :attr:`Severity.WARNING`."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        """Whether the report should fail a gate."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def rule_ids(self) -> List[str]:
        """Every distinct rule id that fired, sorted."""
        return sorted({d.rule_id for d in self.diagnostics})

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        """All findings of one rule."""
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def format(self, max_findings: Optional[int] = None) -> str:
        """Multi-line rendering with a closing summary line."""
        shown = self.diagnostics if max_findings is None \
            else self.diagnostics[:max_findings]
        lines = [d.format() for d in shown]
        hidden = len(self.diagnostics) - len(shown)
        if hidden > 0:
            lines.append(f"... {hidden} more finding(s) suppressed")
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} finding(s) total"
        )
        return "\n".join(lines)


class DiagnosticBudget:
    """Per-rule diagnostic budget with a trailing "and N more" note.

    Array-level checks (the compiled-round ``FRS11x`` rules, the
    hyperperiod ``MDL4xx`` model checker) can produce thousands of
    findings from a single corruption; one example per (cycle, slot)
    pair helps nobody.  The budget keeps the first ``max_per_rule``
    findings of each rule and, on :meth:`close`, appends one summary
    finding per over-budget rule so the total count stays visible.
    """

    def __init__(self, report: Report, max_per_rule: int = 8) -> None:
        self._report = report
        self._max_per_rule = max_per_rule
        self._counts: Dict[str, int] = {}

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding, counting it against its rule's budget."""
        count = self._counts.get(diagnostic.rule_id, 0)
        self._counts[diagnostic.rule_id] = count + 1
        if count < self._max_per_rule:
            self._report.add(diagnostic)

    def count(self, rule_id: str) -> int:
        """Total findings seen for a rule (including suppressed ones)."""
        return self._counts.get(rule_id, 0)

    def close(self) -> None:
        """Emit the "and N more" note for every over-budget rule."""
        for rule_id, count in sorted(self._counts.items()):
            if count > self._max_per_rule:
                self._report.add(Diagnostic(
                    rule_id=rule_id, severity=Severity.ERROR,
                    location="round",
                    message=f"... and {count - self._max_per_rule} more "
                            f"{rule_id} finding(s) suppressed",
                    fix_hint="fix the first findings and re-verify",
                ))
