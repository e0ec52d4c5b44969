"""The code paths the engine-equivalence suites hold to the oracle.

There are two engine modes: the ``interpreter`` oracle and the
``vectorized`` engine.  The vectorized engine settles a segment in one
of two ways.  Normally it runs a phase-split batch.  When the policy
cannot promise outcome-free decisions (feedback ARQ), it delegates the
segment to its base class
:class:`~repro.timeline.stepper.TimelineStepper`, which walks the owned
slots through the interpreter's slot body.

The differential suites run every scenario on three paths:

- ``interpreter``: the oracle;
- ``vectorized``: the default engine, batching wherever it can;
- ``stepper``: the same engine with every policy's outcome-free promise
  withdrawn, so each segment takes the delegated path a feedback policy
  takes.  Without this leg the delegate would only ever be checked on
  feedback scenarios.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from repro.experiments.runner import run_experiment
from repro.protocol.policy import SchedulerPolicy

#: Every path, oracle first.
PATHS = ("interpreter", "stepper", "vectorized")


def _promise_owners() -> Iterator[type]:
    """Every loaded policy class that defines the outcome-free promise."""
    pending = [SchedulerPolicy]
    while pending:
        cls = pending.pop()
        if "decisions_are_outcome_free" in vars(cls):
            yield cls
        pending.extend(cls.__subclasses__())


@contextlib.contextmanager
def delegated_segments() -> Iterator[None]:
    """Make the vectorized engine delegate every segment it settles."""
    with contextlib.ExitStack() as stack:
        for owner in set(_promise_owners()):
            stack.enter_context(mock.patch.object(
                owner, "decisions_are_outcome_free", lambda self: False))
        yield


def path_context(path: str):
    """The context a run on ``path`` executes in."""
    if path == "stepper":
        return delegated_segments()
    return contextlib.nullcontext()


def engine_mode_of(path: str) -> str:
    """The engine mode a run on ``path`` is configured with."""
    return "interpreter" if path == "interpreter" else "vectorized"


def run_path(path: str, **kwargs):
    """``run_experiment`` on one of :data:`PATHS`."""
    with path_context(path):
        return run_experiment(engine_mode=engine_mode_of(path), **kwargs)
