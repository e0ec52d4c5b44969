"""``docs/static_analysis.md`` documents exactly the catalogued rules.

Each rule table row (``| `ID` | severity | meaning |``) must name a rule
of :data:`repro.verify.rules.VERIFY_RULES` or :data:`repro.check.rules.CHECK_RULES`
with the catalogue's severity, and every catalogued rule must have
exactly one row.
"""

import re
from collections import Counter
from pathlib import Path

from repro.check.rules import CHECK_RULES
from repro.verify.rules import VERIFY_RULES

DOC = Path(__file__).resolve().parents[1] / "docs" / "static_analysis.md"
_ROW = re.compile(r"^\| `([A-Z]+\d+)` \| (\w+) \|", re.M)
CATALOGUE = {**VERIFY_RULES, **CHECK_RULES}


def documented_rows():
    return _ROW.findall(DOC.read_text(encoding="utf-8"))


def test_every_catalogued_rule_has_one_row():
    counts = Counter(rule_id for rule_id, __ in documented_rows())
    assert sorted(set(CATALOGUE) - set(counts)) == []
    assert sorted(rule_id for rule_id, n in counts.items() if n > 1) == []


def test_no_row_names_an_uncatalogued_rule():
    documented = {rule_id for rule_id, __ in documented_rows()}
    assert sorted(documented - set(CATALOGUE)) == []


def test_rows_carry_the_catalogue_severity():
    for rule_id, severity in documented_rows():
        if rule_id in CATALOGUE:
            assert severity == CATALOGUE[rule_id].severity.name.lower(), \
                rule_id
