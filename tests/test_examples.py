"""Smoke tests: the example scripts must run and say what they promise.

Only the fast examples run under pytest (the full-report and case-study
sweeps live in the benchmark tier); each is executed as a subprocess so
import side effects and ``__main__`` guards are exercised exactly as a
user would hit them.
"""

import pathlib
import subprocess
import sys


_EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(_EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


class TestFastExamples:
    def test_reliability_tuning(self):
        out = run_example("reliability_tuning.py")
        assert "SIL4" in out
        assert "achieved probability" in out
        assert "True" in out  # the plan meets its goal

    def test_custom_cluster(self):
        out = run_example("custom_cluster.py")
        assert "packed messages" in out
        assert "retransmission plan" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "coefficient" in out
        assert "fspec" in out
        assert "miss" in out

    def test_mode_change(self):
        out = run_example("mode_change.py")
        assert "baseline: 20 ACC signals admitted" in out
        assert "REJECTED" in out
        assert "retry: admitted" in out
