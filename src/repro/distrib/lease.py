"""Lease files: exclusive work claims over a shared directory.

The campaign coordinator needs exactly one primitive: *at most one
live worker owns a work item*.  A lease is an exclusive ``flock`` on
``<name>.lease``, held for as long as the claim is:

- **Claim** = open (creating if missing) the file, then
  ``flock(LOCK_EX | LOCK_NB)``, then write the claimer's identity into
  it.  A lock is held per open file description, so a second claim of
  a held name fails even inside the holding process.
- **Death** = the kernel drops the lock when its holder exits, SIGKILL
  included.  An unlocked lease file that carries an identity was left
  by a dead worker; claiming it counts as a takeover.  Nothing guesses
  liveness from time: a dead worker's range can be claimed at once,
  and a live worker that is slow or stopped never loses its range.
- **Release** = unlink the file while still holding the lock, then
  close it.  A claimer that opened the path just before the unlink
  locks an orphaned inode; it sees that the path no longer names that
  inode and gives up.

On a local filesystem this is exact.  On NFS, the Linux client maps
``flock`` to NFS byte-range locks, and a crashed client's locks clear
when the server's lock lease expires.
"""

from __future__ import annotations

import fcntl
import json
import os
from typing import Dict, List

__all__ = ["LeaseDirectory"]


def _sanitize(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-._" else "-"
                   for ch in text)


class LeaseDirectory:
    """Claims over named work items, backed by one shared directory.

    Args:
        root: Lease directory (created if missing); every cooperating
            worker must use the same path (a shared filesystem is the
            only coordination substrate).
        worker_id: This worker's identity, written into claimed leases.

    Usage::

        leases = LeaseDirectory(root, "worker-1")
        if leases.acquire("range-0003"):
            ...
            leases.release("range-0003")
    """

    def __init__(self, root: str, worker_id: str) -> None:
        self.root = root
        self.worker_id = worker_id
        os.makedirs(root, exist_ok=True)
        self._held: Dict[str, int] = {}  # name -> locked fd
        #: Leases of dead workers this worker claimed.
        self.takeovers = 0

    def path_for(self, name: str) -> str:
        return os.path.join(self.root, f"{_sanitize(name)}.lease")

    def acquire(self, name: str) -> bool:
        """Claim ``name``; True on success, False if someone holds it."""
        path = self.path_for(name)
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            stat = os.fstat(fd)
            # The holder may have released (unlinked) between our open
            # and our lock: then we locked an inode nobody else sees.
            if stat.st_ino != os.stat(path).st_ino:
                raise FileNotFoundError(path)
        except (BlockingIOError, FileNotFoundError):
            os.close(fd)
            return False
        if stat.st_size:
            # A holder wrote its identity and died without releasing.
            self.takeovers += 1
            os.ftruncate(fd, 0)
        os.write(fd, json.dumps({"worker": self.worker_id,
                                 "pid": os.getpid()}).encode())
        self._held[name] = fd
        return True

    def release(self, name: str) -> None:
        """Drop a held lease: unlink under the lock, then unlock."""
        fd = self._held.pop(name, None)
        if fd is None:
            return
        os.unlink(self.path_for(name))
        os.close(fd)

    def held(self) -> List[str]:
        """Names this worker currently holds."""
        return sorted(self._held)
