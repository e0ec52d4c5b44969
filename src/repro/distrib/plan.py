"""The shared campaign plan: one JSON file every worker agrees on.

A coordinated campaign is parameterized by a *spec* -- the same scalar
knobs the ``repro campaign`` CLI takes -- rather than by live Python
objects, so any process (or host) sharing the coordination directory
can rebuild the exact experiment configuration from
``<dir>/plan.json`` alone.  The starter writes the plan to a
temporary file and hard-links it into place, so the plan appears whole
or not at all and the first link wins; joiners load it and, if they were launched with their own
spec, verify it matches byte-for-byte -- two plans in one directory is
a configuration error, not a race to resolve.

Claim identity is **engine-independent**: ranges are named from the
per-seed :func:`repro.experiments.cache.run_key` (which strips
``engine_mode``), so a joiner running a trace-equivalent engine can
never double-claim a seed range another worker already owns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Dict, List, Tuple

from repro.experiments.cache import run_key
from repro.experiments.runner import build_experiment_kwargs
from repro.sim.engine import EngineMode

__all__ = ["CampaignPlan", "PLAN_FILENAME"]

PLAN_FILENAME = "plan.json"

#: Plan file format version.
PLAN_VERSION = 1


@dataclasses.dataclass(frozen=True)
class CampaignPlan:
    """Everything a worker needs to join one coordinated campaign.

    Attributes:
        scheduler: Scheduler registry name.
        workload: ``bbw`` / ``acc`` / ``synthetic``.
        backend: Protocol backend the cluster geometry comes from.
            Part of claim identity (via the params fingerprint): two
            plans differing only in backend never share claims.
        count: Synthetic signal count.
        seed: Workload seed *and* first campaign seed (the CLI's
            ``--seed`` semantics).
        seeds: The explicit seed list, in campaign order.
        aperiodic: SAE aperiodic message count (0 = none).
        minislots: Dynamic-segment minislots.
        ber: Bit error rate.
        reliability_goal: Theorem-1 rho.
        duration_ms: Per-seed simulated duration.
        engine_mode: Engine this worker simulates under.  Excluded
            from claim identity -- see :meth:`range_claims`.
        chunk: Seeds per lease range.
    """

    scheduler: str
    workload: str
    count: int
    seed: int
    seeds: Tuple[int, ...]
    aperiodic: int
    minislots: int
    ber: float
    reliability_goal: float
    duration_ms: float
    engine_mode: str = EngineMode.VECTORIZED.value
    chunk: int = 2
    backend: str = "flexray"

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")

    # -- configuration -------------------------------------------------

    def experiment_kwargs(self) -> Dict[str, object]:
        """The rebuilt ``run_experiment`` kwargs of this plan."""
        return build_experiment_kwargs(
            workload=self.workload, count=self.count, seed=self.seed,
            aperiodic=self.aperiodic, minislots=self.minislots,
            ber=self.ber, reliability_goal=self.reliability_goal,
            duration_ms=self.duration_ms, engine_mode=self.engine_mode,
            backend=self.backend)

    # -- work ranges ---------------------------------------------------

    def ranges(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Seed ranges of ``chunk`` seeds: ``[(index, seeds), ...]``."""
        grouped = []
        for offset in range(0, len(self.seeds), self.chunk):
            grouped.append((offset // self.chunk,
                            tuple(self.seeds[offset:offset + self.chunk])))
        return grouped

    def range_claims(self) -> List[Tuple[str, int, Tuple[int, ...]]]:
        """Claim names of every range: ``[(claim, index, seeds), ...]``.

        The claim name hashes each seed's engine-independent
        :func:`~repro.experiments.cache.run_key`: two workers whose
        plans differ *only* in ``engine_mode`` (legal -- the engines
        are trace-equivalent by contract) compute identical claims and
        therefore never double-claim a range.
        """
        kwargs = self.experiment_kwargs()
        claims = []
        for index, seeds in self.ranges():
            keys = "|".join(run_key(self.scheduler, seed, kwargs)
                            for seed in seeds)
            digest = hashlib.sha256(keys.encode("ascii")).hexdigest()
            claims.append((f"range-{index:04d}-{digest[:16]}", index,
                           seeds))
        return claims

    # -- JSON round trip -----------------------------------------------

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["seeds"] = list(self.seeds)
        payload["version"] = PLAN_VERSION
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("plan file must hold a JSON object")
        version = payload.pop("version", None)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {version!r} "
                             f"(expected {PLAN_VERSION})")
        payload["seeds"] = tuple(payload.get("seeds", ()))
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown plan fields {unknown}")
        return cls(**payload)

    def matches(self, other: "CampaignPlan") -> bool:
        """Spec equality *ignoring* engine mode (trace-equivalent)."""
        default = EngineMode.parse(None).value
        return (dataclasses.replace(self, engine_mode=default)
                == dataclasses.replace(other, engine_mode=default))

    # -- directory protocol --------------------------------------------

    @staticmethod
    def path_in(directory: str) -> str:
        return os.path.join(directory, PLAN_FILENAME)

    def publish(self, directory: str) -> "CampaignPlan":
        """Write this plan into ``directory`` (or adopt the one there).

        The plan is written to a temporary file first and then
        hard-linked to ``plan.json``: a reader never sees a partial
        plan, and the first worker's link wins.  Everybody else must
        match it (modulo ``engine_mode``) or the campaign directory is
        misconfigured.  Returns the plan to coordinate under -- the
        published one, with *this* worker's engine mode kept.
        """
        os.makedirs(directory, exist_ok=True)
        path = self.path_in(directory)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
            os.link(temp_path, path)
        except FileExistsError:
            published = self.load(directory)
            if not self.matches(published):
                raise ValueError(
                    f"{path} holds a different campaign plan; refusing "
                    f"to mix configurations in one directory")
            return dataclasses.replace(published,
                                       engine_mode=self.engine_mode)
        finally:
            os.unlink(temp_path)
        return self

    @classmethod
    def load(cls, directory: str) -> "CampaignPlan":
        with open(cls.path_in(directory), "r") as handle:
            return cls.from_json(handle.read())
