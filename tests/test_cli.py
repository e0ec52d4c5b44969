"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.packing.frame_packing import pack_signals
from repro.protocol.backend import get_backend
from repro.protocol.cluster import Cluster
from repro.sim.rng import RngStream
from repro.workloads import bundled_periodic


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        args_dict = vars(args)
        assert args_dict["workload"] == "synthetic"
        assert args_dict["scheduler"] == ["coefficient", "fspec"]

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "bogus"])

    @pytest.mark.parametrize("command", ("run", "campaign"))
    def test_engine_mode_defaults_to_vectorized(self, command):
        parser = build_parser()
        assert parser.parse_args([command]).engine_mode == "vectorized"
        assert parser.parse_args(
            [command, "--engine-mode", "interpreter"]).engine_mode \
            == "interpreter"
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--engine-mode", "stepper"])

    @pytest.mark.parametrize("argv", (
        ["breakdown", "--workload", "bbw"],
        ["breakdown", "--count", "8"],
        ["campaign", "--metric", "deadline_miss_ratio"],
        ["loadgen", "--channels", "A"],
        ["loadgen", "--execution-min", "1"],
        ["loadgen", "--execution-max", "4"],
        ["loadgen", "--deadline-ticks", "500"],
    ))
    def test_deleted_flags_fail_parsing(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "9"])

    def test_observability_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.profile is False
        assert args.metrics_out is None

    def test_observability_flags_on_run_and_figures(self):
        args = build_parser().parse_args(
            ["run", "--profile", "--metrics-out", "out.jsonl"])
        assert args.profile is True
        assert args.metrics_out == "out.jsonl"
        args = build_parser().parse_args(
            ["figures", "5", "--metrics-out", "fig.jsonl"])
        assert args.metrics_out == "fig.jsonl"


class TestTables:
    def test_table2(self, capsys):
        assert main(["tables", "2"]) == 0
        out = capsys.readouterr().out
        assert "1292" in out        # first BBW size
        assert "1742" in out        # largest BBW size

    def test_table3_json(self, capsys):
        assert main(["tables", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 20
        assert rows[0]["size_bits"] == 1024


class TestPlan:
    def test_bbw_plan(self, capsys):
        code = main(["plan", "--workload", "bbw", "--ber", "1e-6",
                     "--rho", "0.999999"])
        assert code == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "bbw-01" in out

    def test_plan_json(self, capsys):
        main(["plan", "--workload", "acc", "--json"])
        out = capsys.readouterr().out
        rows = json.loads(out[:out.rindex("]") + 1])
        # One row per packed message: 19 frames carry acc's 20 signals.
        params = get_backend("flexray").workload_params("acc")
        packing = pack_signals(bundled_periodic("acc", 20, 42), params)
        assert [row["message"] for row in rows] \
            == sorted(m.message_id for m in packing.messages)
        assert len(rows) == 19

    def test_plan_matches_the_bound_policy(self, capsys):
        """`repro plan` shows the budgets CoEfficient binds on the
        default `repro run --workload bbw` cluster."""
        main(["plan", "--workload", "bbw", "--json"])
        out = capsys.readouterr().out
        rows = json.loads(out[:out.rindex("]") + 1])
        params = get_backend("flexray").workload_params("bbw")
        packing = pack_signals(bundled_periodic("bbw", 20, 42), params)
        policy = CoEfficientPolicy(packing,
                                   BitErrorRateModel(ber_channel_a=1e-7),
                                   reliability_goal=1 - 1e-4)
        Cluster(params=params, policy=policy,
                sources=packing.build_sources(RngStream(1, "plan")))\
            ._ensure_bound()
        assert {row["message"]: row["k"] for row in rows} \
            == policy.plan.budgets
        assert len(rows) == 36


class TestRun:
    def test_run_small(self, capsys):
        code = main(["run", "--workload", "synthetic", "--count", "5",
                     "--aperiodic", "0", "--duration-ms", "50",
                     "--scheduler", "coefficient"])
        assert code == 0
        out = capsys.readouterr().out
        assert "coefficient" in out
        assert "deadline_miss_ratio" in out

    def test_run_json(self, capsys):
        code = main(["run", "--workload", "synthetic", "--count", "5",
                     "--aperiodic", "0", "--duration-ms", "50",
                     "--scheduler", "fspec", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["scheduler"] == "fspec"


class TestFigures:
    def test_figure_3_small(self, capsys):
        code = main(["figures", "3", "--duration-ms", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "coefficient" in out
        assert "fspec" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        code = main(["report", "--skip-running-time",
                     "--duration-ms", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# CoEfficient reproduction report" in out
        assert "Figure 5" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["report", "--skip-running-time",
                     "--duration-ms", "60", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "Table II" in target.read_text()


class TestBreakdown:
    def test_breakdown_single_scheduler(self, capsys):
        code = main(["breakdown", "--scheduler", "coefficient",
                     "--duration-ms", "80", "--minislots", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "breakdown_factor" in out
