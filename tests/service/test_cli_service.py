"""CLI coverage for ``repro serve`` / ``repro loadgen``.

Parser-level tests plus one real subprocess smoke: start the server,
read its bound port off stderr, fire a small deterministic load at it,
SIGTERM it, and require a clean (drained, divergence-free) exit.
"""

import asyncio
import json
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser
from repro.service.loadgen import LoadgenSpec, run_loadgen


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "synthetic"
        assert args.port == 8471
        assert args.queue_limit == 1024
        assert args.batch_limit == 256
        assert args.reconcile_every == 64
        assert args.tick_us == 100
        assert args.timeout_ms == 5000.0
        assert args.store is None
        assert not hasattr(args, "engine_mode")

    @pytest.mark.parametrize("flags", (
        ["--engine-mode", "interpreter"], ["--audit-every", "2"],
        ["--no-verify"]))
    def test_serve_rejects_deleted_flags(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", *flags])

    def test_serve_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workload", "canbus"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 1000
        assert args.seed == 7
        assert args.channels == ["A", "B"]
        assert args.release_fraction == 0.0

    def test_loadgen_overrides(self):
        args = build_parser().parse_args([
            "loadgen", "--requests", "250", "--channels", "A",
            "--release-fraction", "0.3", "--out", "report.json"])
        assert args.requests == 250
        assert args.channels == ["A"]
        assert args.release_fraction == 0.3
        assert args.out == "report.json"


class TestServeSmoke:
    def test_serve_drains_cleanly_under_load(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workload", "bbw",
             "--port", "0", "--reconcile-every", "8", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            text=True)
        try:
            # The bound (ephemeral) port is announced on stderr.
            banner = process.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1]
                       .split()[0].rsplit(":", 1)[1])

            spec = LoadgenSpec(requests=120, seed=3,
                               release_fraction=0.1)
            report = asyncio.run(run_loadgen("127.0.0.1", port, spec,
                                             concurrency=16,
                                             connections=2))
            assert report.dropped == 0
            assert sum(report.replies.values()) == 120
            assert report.errors == 0

            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0, err
        counters = json.loads(out)[0]
        assert counters["service.requests"] >= 120
        assert counters["service.reconcile.runs"] >= 1
        assert "service.reconcile.divergence" not in counters

    def test_serve_refuses_unverifiable_config(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--workload", "bbw",
             "--ber", "1e-3", "--port", "0"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 1
        assert "failed static verification" in completed.stderr


class TestLoadgenCli:
    def test_loadgen_exits_nonzero_when_unreachable(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", "--port", "1",
             "--requests", "3"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 1
        assert "cannot reach" in completed.stderr


def test_wall_clock_budget():
    """The smoke must stay cheap enough for tier-1 (sanity guard)."""
    begin = time.monotonic()
    build_parser().parse_args(["serve"])
    assert time.monotonic() - begin < 5.0
