"""Scope assignment, file walking, and the clean-tree contract."""

from pathlib import Path

from repro.check import (
    CHECK_RULES,
    KNOWN_RULE_IDS,
    check_sources,
)
from repro.check.determinism import check_file, scope_for_path
from repro.check.frontend import read_sources
from repro.verify import VERIFY_RULES

REPO = Path(__file__).resolve().parents[2]
DET_RULES = {rule_id: rule for rule_id, rule in CHECK_RULES.items()
             if rule_id.startswith("DET")}


def det_findings(*roots):
    """The ``DET*`` findings of `repro check`'s source pass."""
    return [d for d in check_sources(list(roots))
            if d.rule_id.startswith("DET")]


class TestScopeForPath:
    def test_simulation_packages_are_restricted(self):
        for path in ("src/repro/sim/engine.py",
                     "src/repro/core/coefficient.py",
                     "src/repro/flexray/cluster.py",
                     "src/repro/analysis/slack_table.py"):
            assert scope_for_path(path).restricted, path

    def test_output_packages_are_ordered(self):
        assert scope_for_path("src/repro/experiments/campaign.py") \
            .ordered_output
        assert scope_for_path("src/repro/obs/export.py").ordered_output
        assert not scope_for_path("src/repro/experiments/campaign.py") \
            .restricted

    def test_rng_wrapper_is_exempt(self):
        scope = scope_for_path("src/repro/sim/rng.py")
        assert scope.rng_module
        assert scope.restricted
        assert not scope_for_path("src/repro/sim/engine.py").rng_module

    def test_neutral_packages(self):
        scope = scope_for_path("src/repro/workloads/sae.py")
        assert not scope.restricted
        assert not scope.ordered_output


class TestLintPaths:
    def test_repository_source_tree_is_clean(self):
        """The acceptance gate: `repro check` finds no DET rule in
        src/repro."""
        assert det_findings(REPO / "src" / "repro") == []

    def test_findings_from_a_file_on_disk(self, tmp_path):
        offender = tmp_path / "sim" / "model.py"
        offender.parent.mkdir()
        offender.write_text("import time\nt = time.time()\n")
        findings = det_findings(tmp_path)
        assert [d.rule_id for d in findings] == ["DET101"]
        assert findings[0].severity.value == "error"

    def test_walk_order_is_deterministic(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("def f(x=[]):\n    return x\n")
        files = [d.location.rsplit(":", 2)[0]
                 for d in det_findings(tmp_path)]
        assert len(files) == 3
        assert files == sorted(files)


class TestOneParse:
    """`repro check` runs the DET family over the same parse as EFF."""

    def test_check_sources_reports_what_lint_reports(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "sim").mkdir(parents=True)
        (root / "sim" / "model.py").write_text(
            "import time\nt = time.time()\n")
        (root / "broken.py").write_text("def broken(:\n")
        det = det_findings(root)
        assert [d.rule_id for d in det] == ["DET999", "DET101"]
        per_file = [d for source in read_sources([str(root.resolve())])
                    for d in check_file(source)]
        assert det == per_file


class TestSourceEncodings:
    """Files are decoded as the interpreter decodes them (PEP 263)."""

    def test_latin1_file_with_a_coding_cookie_is_linted(self, tmp_path):
        module = tmp_path / "sim" / "model.py"
        module.parent.mkdir()
        module.write_bytes(b"# -*- coding: latin-1 -*-\n"
                           b"NAME = 'caf\xe9'\n"
                           b"import time\nt = time.time()\n")
        assert [d.rule_id for d in det_findings(tmp_path)] == ["DET101"]
        assert [d.rule_id for d in det_findings(tmp_path / "sim")] \
            == ["DET101"]

    def test_undecodable_file_is_one_det999(self, tmp_path):
        (tmp_path / "a_latin1_without_cookie.py").write_bytes(
            b"NAME = 'caf\xe9'\n")
        (tmp_path / "b_late_bad_byte.py").write_bytes(
            b"x = 1\ny = 2\nNAME = '\xff\xfe'\n")
        (tmp_path / "c_unknown_cookie.py").write_bytes(
            b"# coding: no-such-codec\nx = 1\n")
        (tmp_path / "d_clean.py").write_text("x = 1\n")
        findings = det_findings(tmp_path)
        assert {d.rule_id for d in findings} == {"DET999"}
        files = [Path(d.location.rsplit(":", 2)[0]).name for d in findings]
        assert files == ["a_latin1_without_cookie.py",
                         "b_late_bad_byte.py", "c_unknown_cookie.py"]
        assert all("cannot be decoded" in d.message for d in findings)


class TestRuleCatalogues:
    def test_lint_rule_ids_are_namespaced(self):
        assert set(DET_RULES) == {
            "DET100", "DET101", "DET102", "DET103", "DET104", "DET105",
            "DET106", "DET999",
        }

    def test_catalogues_do_not_collide(self):
        assert not set(CHECK_RULES) & set(VERIFY_RULES)
        assert KNOWN_RULE_IDS == set(CHECK_RULES) | set(VERIFY_RULES)

    def test_every_rule_documents_itself(self):
        for rule in list(CHECK_RULES.values()) + list(VERIFY_RULES.values()):
            assert rule.rule_id
            assert rule.title
            assert rule.description
