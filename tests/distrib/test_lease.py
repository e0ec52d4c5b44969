"""Lease-file claims: exclusivity, takeover from dead holders, races."""

import fcntl
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.distrib.lease import LeaseDirectory

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# A child process that claims one lease, reports, and then sleeps
# holding it until it is stopped or killed.
HOLDER = """
import sys
from repro.distrib.lease import LeaseDirectory
leases = LeaseDirectory(sys.argv[1], "child")
assert leases.acquire("range-0")
print("held", flush=True)
sys.stdin.read()
"""


def make(tmp_path, worker):
    return LeaseDirectory(str(tmp_path / "leases"), worker)


def worker_of(leases, name):
    with open(leases.path_for(name)) as handle:
        return json.load(handle)["worker"]


@pytest.fixture
def holder(tmp_path):
    """A live child process holding ``range-0`` in ``tmp_path/leases``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", HOLDER, str(tmp_path / "leases")],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "held\n"
        yield child
    finally:
        child.kill()
        child.wait(timeout=30)


class TestClaim:
    def test_acquire_is_exclusive(self, tmp_path):
        first = make(tmp_path, "w1")
        second = make(tmp_path, "w2")
        assert first.acquire("range-0")
        assert not second.acquire("range-0")
        assert worker_of(first, "range-0") == "w1"
        assert first.held() == ["range-0"]
        assert second.held() == []

    def test_release_reopens_the_claim(self, tmp_path):
        first = make(tmp_path, "w1")
        second = make(tmp_path, "w2")
        assert first.acquire("range-0")
        first.release("range-0")
        assert first.held() == []
        assert second.acquire("range-0")
        assert worker_of(second, "range-0") == "w2"
        assert second.takeovers == 0

    def test_reacquire_own_lease_fails(self, tmp_path):
        leases = make(tmp_path, "w1")
        assert leases.acquire("range-0")
        # A lock belongs to one open file description: even the owner
        # cannot double-acquire (acquire == fresh claim, not reentrant).
        assert not leases.acquire("range-0")
        assert leases.held() == ["range-0"]

    def test_lease_file_carries_worker_identity(self, tmp_path):
        leases = make(tmp_path, "worker-7")
        leases.acquire("range-3")
        with open(leases.path_for("range-3")) as handle:
            payload = json.load(handle)
        assert payload["worker"] == "worker-7"
        assert payload["pid"] == os.getpid()

    def test_names_are_sanitized(self, tmp_path):
        leases = make(tmp_path, "w1")
        assert leases.acquire("over/../tricky name")
        path = leases.path_for("over/../tricky name")
        assert os.path.dirname(path) == leases.root
        assert os.path.exists(path)


class TestTakeover:
    def test_fresh_lease_is_not_taken_over(self, tmp_path):
        holder = make(tmp_path, "holder")
        thief = make(tmp_path, "thief")
        assert holder.acquire("range-0")
        assert not thief.acquire("range-0")
        assert thief.takeovers == 0

    def test_stopped_holder_keeps_its_lease(self, tmp_path, holder):
        thief = make(tmp_path, "thief")
        holder.send_signal(signal.SIGSTOP)
        try:
            # A stopped holder is alive: its lease holds however long
            # it stays stopped.
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                assert not thief.acquire("range-0")
                time.sleep(0.05)
        finally:
            holder.send_signal(signal.SIGCONT)
        assert thief.takeovers == 0
        assert thief.held() == []

    def test_killed_holder_is_taken_over_at_once(self, tmp_path, holder):
        thief = make(tmp_path, "thief")
        assert not thief.acquire("range-0")
        holder.kill()
        assert holder.wait(timeout=30) == -signal.SIGKILL
        assert thief.acquire("range-0")
        assert thief.takeovers == 1
        assert worker_of(thief, "range-0") == "thief"
        thief.release("range-0")
        assert os.listdir(thief.root) == []

    def test_claim_of_a_just_released_lease_fails(self, tmp_path,
                                                  monkeypatch):
        # The holder releases (unlink, then unlock) between the thief's
        # open and its lock: the thief locks an inode that no longer
        # has a name and must give it up.
        holder = make(tmp_path, "holder")
        thief = make(tmp_path, "thief")
        assert holder.acquire("range-0")
        real_flock = fcntl.flock

        def flock_after_release(fd, operation):
            holder.release("range-0")
            return real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_release)
        assert not thief.acquire("range-0")
        assert thief.held() == []
        assert thief.takeovers == 0
        assert os.listdir(thief.root) == []
