"""CLI surface of the static gate: `repro check` over workloads and
source trees, and the campaign's pre-run validation."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.check import runner

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
WORKLOADS = ("sae", "bbw", "acc", "synthetic")


def check_json(capsys, *args):
    code = cli.main(["check", *args, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestVerifyConfigCli:
    """Configuration, schedule and plan verification (FRC/FRS/ANA/MDL)
    of the bundled workloads through `repro check`."""

    def test_all_bundled_workloads_pass(self, capsys):
        assert cli.main(["check"]) == 0
        captured = capsys.readouterr()
        # Clean run: no workload has a finding, nothing on stderr.
        for workload in WORKLOADS:
            assert f"{workload}: " not in captured.out
        assert "0 error(s), 0 warning(s)" in captured.out
        assert captured.err == ""

    def test_single_workload_json(self, capsys):
        code, document = check_json(capsys, "--workload", "bbw")
        assert code == 0
        assert document["summary"]["errors"] == 0
        assert document["summary"]["warnings"] == 0
        assert document["summary"]["rules"] == ["EFF300"]

    def test_unreachable_goal_exits_nonzero(self, capsys):
        code = cli.main(["check", "--workload", "bbw", "--rho", "1.0"])
        assert code == 1
        out = capsys.readouterr().out
        # Every finding of the workload pass names its workload.
        assert "bbw: plan: error ANA204" in out
        assert "bbw: plan: warning ANA207" in out

    def test_mismatched_cluster_reports_setup_error(self, capsys):
        # The BBW case-study factory refuses 100 minislots; the CLI
        # must report the pairing error and exit 1, not crash.
        code = cli.main(["check", "--workload", "bbw",
                         "--minislots", "100"])
        assert code == 1
        out = capsys.readouterr().out
        assert "bbw: params: error MDL401: setup error" in out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            cli.main(["check", "--workload", "nope"])


class TestLintCli:
    """The DET* family through `repro check`'s source pass."""

    @pytest.fixture
    def roots(self, monkeypatch):
        def use(*paths):
            monkeypatch.setattr(runner, "default_source_roots",
                                lambda: list(paths))
        return use

    def test_repository_tree_is_clean(self, capsys):
        code, document = check_json(capsys, "--workload", "none")
        assert code == 0
        assert not [row for row in document["diagnostics"]
                    if row["rule"].startswith("DET")]

    def test_offending_file_fails(self, tmp_path, capsys, roots):
        bad = tmp_path / "core" / "model.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        roots(tmp_path)
        assert cli.main(["check", "--workload", "none"]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out
        assert "1 error(s)" in out

    def test_json_rows(self, tmp_path, capsys, roots):
        bad = tmp_path / "sim" / "model.py"
        bad.parent.mkdir()
        bad.write_text("import random\nx = random.random()\n")
        roots(tmp_path)
        code, document = check_json(capsys, "--workload", "none")
        assert code == 1
        rows = [row for row in document["diagnostics"]
                if row["rule"].startswith("DET")]
        assert len(rows) == 1
        assert rows[0]["rule"] == "DET102"
        assert rows[0]["severity"] == "error"

    def test_multiple_paths(self, tmp_path, capsys, roots):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        roots(clean, SRC)
        assert cli.main(["check", "--workload", "none"]) == 0
        capsys.readouterr()


class TestCampaignValidateCli:
    def test_validation_failure_blocks_the_campaign(self, capsys):
        code = cli.main([
            "campaign", "--workload", "bbw", "--minislots", "50",
            "--aperiodic", "0", "--scheduler", "coefficient",
            "--seeds", "1", "--duration-ms", "20", "--validate",
            "--rho", "1.0",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed validation" in err
        assert "ANA204" in err

    def test_validated_campaign_runs(self, capsys):
        code = cli.main([
            "campaign", "--workload", "bbw", "--minislots", "50",
            "--aperiodic", "0", "--scheduler", "coefficient",
            "--seeds", "1", "--duration-ms", "20", "--validate",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "coefficient" in out
