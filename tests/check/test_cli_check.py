"""CLI surface of `repro check`: formats, exit codes, round replay."""

import json
from pathlib import Path

from repro import cli
from repro.check import check_sources, portable_report
from repro.results import ResultStore

from tests.check.conftest import build_liar_round
from tests.verify.test_round_checks import rebuild, static_indices
from repro.check.counterexample import round_to_payload
from repro.flexray.params import FlexRayParams
from repro.verify import verifier


class TestCheckCli:
    def test_sources_only_passes(self, capsys):
        assert cli.main(["check", "--workload", "none"]) == 0
        out = capsys.readouterr().out
        assert "EFF300" in out
        assert "0 error(s)" in out

    def test_json_document_shape(self, capsys, tmp_path):
        out_path = tmp_path / "diagnostics.json"
        code = cli.main(["check", "--workload", "none",
                         "--format", "json", "--out", str(out_path)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 0
        assert document["summary"]["rules"] == ["EFF300"]
        assert all(row["rule"].startswith(("EFF", "MDL"))
                   for row in document["diagnostics"])
        # --out writes the same document for the CI artifact.
        assert json.loads(out_path.read_text()) == document

    def test_single_workload_model_check(self, capsys):
        assert cli.main(["check", "--workload", "sae"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_workload_violation_writes_a_counterexample(
            self, capsys, tmp_path, monkeypatch):
        """A structural MDL error in a workload's compiled round shrinks
        to a counterexample named after the workload."""
        compile_round = verifier.compile_round

        def misaligned(table, params, channels):
            compiled = compile_round(table, params, channels)
            ends = list(compiled.ends)
            ends[static_indices(compiled)[0]] += 1
            return rebuild(compiled, ends=ends)

        monkeypatch.setattr(verifier, "compile_round", misaligned)
        code = cli.main(["check", "--workload", "bbw",
                         "--counterexample-dir", str(tmp_path),
                         "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert {"MDL401", "MDL405"} <= set(document["summary"]["rules"])
        assert all(row["location"].startswith("bbw: ")
                   for row in document["diagnostics"]
                   if row["rule"].startswith("MDL"))
        assert (tmp_path / "counterexample-bbw.json").exists()

    def test_broken_round_json_fails_and_shrinks(self, capsys, tmp_path):
        params = FlexRayParams(
            gd_cycle_mt=120, gd_static_slot_mt=40,
            g_number_of_static_slots=2, gd_minislot_mt=8,
            g_number_of_minislots=0, channel_count=1)
        payload = round_to_payload(build_liar_round(params), ["MDL401"])
        round_path = tmp_path / "liar.json"
        round_path.write_text(json.dumps(payload))
        code = cli.main(["check", "--round-json", str(round_path),
                         "--counterexample-dir", str(tmp_path / "cex"),
                         "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] > 0
        assert "MDL401" in document["summary"]["rules"]
        assert (tmp_path / "cex").exists()

    def test_unreadable_round_json_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli.main(["check", "--round-json", str(missing)]) == 2


def _tiny_tree(root):
    """A two-module ``repro`` tree with one DET101 finding."""
    package = root / "repro"
    (package / "core").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "core" / "__init__.py").write_text("")
    (package / "core" / "clock.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n")
    return package


class TestStoredSourceReport:
    def test_two_checkouts_get_one_report_id(self, tmp_path):
        ids, locations = [], []
        with ResultStore(str(tmp_path / "results.db")) as store:
            for checkout in ("a", "b"):
                package = _tiny_tree(tmp_path / checkout)
                report = check_sources(roots=[package])
                locations.append([d.location for d in report
                                  if d.rule_id == "DET101"])
                ids.append(store.record_verify_report(
                    portable_report(report, roots=[package]),
                    target="check:sources"))
            (row,), __ = store.page("verify_reports")
            assert row["target"] == "check:sources"
            stored = store.verify_report(ids[0])
        assert locations[0] != locations[1]
        assert ids[0] == ids[1]
        assert [d["location"] for d in stored["diagnostics"]
                if d["rule_id"] == "DET101"] == ["repro/core/clock.py:5:11"]

    def test_cli_stores_relative_and_prints_absolute(self, tmp_path,
                                                     capsys):
        db = str(tmp_path / "check.db")
        assert cli.main(["check", "--workload", "none",
                         "--store", db]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if "EFF300" in line]
        with ResultStore(db) as store:
            (row,), __ = store.page("verify_reports")
            stored = store.verify_report(row["id"])
        assert row["target"] == "check:sources"
        locations = [d["location"] for d in stored["diagnostics"]]
        assert locations and all(location.startswith("repro/core/")
                                 for location in locations)
        assert printed and all(Path(line.split(":")[0]).is_absolute()
                               for line in printed)
