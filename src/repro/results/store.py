"""Persistent SQLite-backed store of reproduction results.

Every artifact the reproduction produces -- campaign summaries,
per-seed runs, trace digests per engine mode, verify reports, obs
counter snapshots (among them the admission service's counters at
drain, scope ``serve``) -- lands in one WAL-mode
SQLite database behind the :class:`ResultStore` API, instead of the
ad-hoc JSON/JSONL files each subsystem used to scatter.

Content addressing
------------------

Rows are immutable and **content-addressed**: the primary key of every
record is the SHA-256 of its canonical JSON payload (see
:mod:`repro.results.canonical`), and per-seed runs reuse the campaign
cache's configuration fingerprint (:func:`repro.experiments.cache.cache_key`)
with the engine mode stripped -- the three engines are trace-equivalent
by contract, so a run's identity must not depend on which one produced
it.  Ingesting the same result twice therefore converges to the same
row (``INSERT OR IGNORE``), which makes every write idempotent: two
campaign workers, a retried CI job, and a warm re-run all agree.

Durability
----------

- WAL journal mode: readers (the ``repro web`` layer) never block the
  writer and a crashed writer never leaves a torn page;
- every multi-row ingest runs inside one ``BEGIN IMMEDIATE``
  transaction via :meth:`ResultStore.transaction` -- a process killed
  mid-ingest (power loss, ``kill -9``) rolls back to *nothing*, never
  to half a campaign;
- ``busy_timeout`` makes concurrent writers queue instead of failing.

The one deliberate deviation from trace equivalence is *observed*, not
assumed: if a ``(run, engine_mode)`` digest arrives that disagrees with
a stored one, the store keeps the first write, increments
``results.digest_conflicts`` and warns -- that situation means an
engine broke the equivalence contract and must be loud.
"""

from __future__ import annotations

import os
import sqlite3
import warnings
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.results.canonical import canonical_json_bytes, content_digest

if TYPE_CHECKING:  # runtime imports stay lazy (heavy packages)
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.runner import ExperimentResult
    from repro.obs.observability import ObsLike
    from repro.verify.diagnostics import Report

__all__ = ["SCHEMA_VERSION", "RUN_METRIC_COLUMNS", "ResultStore"]

#: Bump on any table/column change; old stores are rejected loudly
#: instead of being half-understood.
SCHEMA_VERSION = 2

#: Numeric per-run metric columns (also the ``/metrics/<name>`` facets
#: of the web API).  Extracted from the run payload into real columns
#: so filters run as SQL, not as JSON post-processing.
RUN_METRIC_COLUMNS = (
    "running_time_ms",
    "bandwidth_utilization",
    "efficiency",
    "static_latency_ms",
    "dynamic_latency_ms",
    "deadline_miss_ratio",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id          TEXT PRIMARY KEY,
    scheduler   TEXT NOT NULL,
    workload    TEXT NOT NULL,
    engine_mode TEXT NOT NULL,
    seeds       INTEGER NOT NULL,
    failures    INTEGER NOT NULL,
    config_key  TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_campaigns_facets
    ON campaigns (scheduler, workload, engine_mode);
CREATE TABLE IF NOT EXISTS runs (
    id                    TEXT PRIMARY KEY,
    scheduler             TEXT NOT NULL,
    seed                  INTEGER NOT NULL,
    cycles                INTEGER NOT NULL,
    produced              INTEGER NOT NULL,
    delivered             INTEGER NOT NULL,
    running_time_ms       REAL NOT NULL,
    bandwidth_utilization REAL NOT NULL,
    efficiency            REAL NOT NULL,
    static_latency_ms     REAL NOT NULL,
    dynamic_latency_ms    REAL NOT NULL,
    deadline_miss_ratio   REAL NOT NULL,
    payload               TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_facets ON runs (scheduler, seed);
CREATE TABLE IF NOT EXISTS campaign_runs (
    campaign_id TEXT NOT NULL REFERENCES campaigns (id),
    run_id      TEXT NOT NULL REFERENCES runs (id),
    seed        INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, run_id)
);
CREATE TABLE IF NOT EXISTS trace_digests (
    run_id      TEXT NOT NULL,
    engine_mode TEXT NOT NULL,
    digest      TEXT NOT NULL,
    records     INTEGER NOT NULL,
    cycles      INTEGER NOT NULL,
    PRIMARY KEY (run_id, engine_mode)
);
CREATE TABLE IF NOT EXISTS verify_reports (
    id       TEXT PRIMARY KEY,
    target   TEXT NOT NULL,
    errors   INTEGER NOT NULL,
    warnings INTEGER NOT NULL,
    findings INTEGER NOT NULL,
    payload  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS verify_diagnostics (
    report_id TEXT NOT NULL REFERENCES verify_reports (id),
    ordinal   INTEGER NOT NULL,
    rule_id   TEXT NOT NULL,
    severity  TEXT NOT NULL,
    location  TEXT NOT NULL,
    message   TEXT NOT NULL,
    hint      TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (report_id, ordinal)
);
CREATE TABLE IF NOT EXISTS obs_snapshots (
    id       TEXT PRIMARY KEY,
    scope    TEXT NOT NULL,
    scope_id TEXT NOT NULL,
    seed     INTEGER,
    counters TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_obs_scope ON obs_snapshots (scope, scope_id);
"""

#: Tables the web index page reports row counts for, in display order.
_TABLES = ("campaigns", "runs", "campaign_runs", "trace_digests",
           "verify_reports", "verify_diagnostics", "obs_snapshots")


def _placeholders(row: Mapping[str, object]) -> Tuple[str, str, list]:
    columns = list(row)
    return (", ".join(columns),
            ", ".join("?" for _ in columns),
            [row[column] for column in columns])


class ResultStore:
    """One SQLite results database (see module docstring).

    Args:
        path: Database file; parent directories are created.  Pass
            ``read_only=True`` (the web layer does) to refuse creation
            and open the file immutable-by-contract.
        obs: Observability context; ingest counters
            (``results.campaigns_recorded``, ``results.runs_recorded``,
            ``results.digest_conflicts`` ...) land on it when enabled.
    """

    def __init__(self, path: str, obs: Optional["ObsLike"] = None,
                 read_only: bool = False) -> None:
        from repro.obs.observability import NULL_OBS

        self.path = path
        self.read_only = read_only
        self._obs = obs if obs is not None else NULL_OBS
        if read_only:
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"result store {path!r} does not exist (read-only "
                    f"open never creates one)")
            self._conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, isolation_level=None)
        else:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._conn = sqlite3.connect(path, isolation_level=None)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._conn.execute("PRAGMA foreign_keys=ON")
        if not read_only:
            # Not executescript: it implicitly commits, which would break
            # the surrounding transaction.  No statement here contains a
            # literal ";", so the split is safe.
            with self.transaction():
                for statement in _SCHEMA.split(";"):
                    if statement.strip():
                        self._conn.execute(statement)
                self._conn.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) "
                    "VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),))
        self._check_schema()

    def _check_schema(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = "
                "'schema_version'").fetchone()
        except sqlite3.DatabaseError as error:
            raise ValueError(
                f"{self.path}: not a result store ({error})") from error
        if row is None or int(row["value"]) != SCHEMA_VERSION:
            found = None if row is None else row["value"]
            raise ValueError(
                f"{self.path}: result store schema {found!r} is not "
                f"supported (expected {SCHEMA_VERSION})")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- write side ----------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One atomic ingest: all rows land, or none do.

        ``BEGIN IMMEDIATE`` takes the write lock up front so two
        concurrent ingests serialize (queueing on ``busy_timeout``)
        instead of deadlocking mid-transaction; a crash -- including
        ``kill -9`` -- before ``COMMIT`` rolls the journal back to the
        pre-ingest state.
        """
        if self.read_only:
            raise ValueError(f"{self.path}: store is read-only")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")

    def _count(self, name: str, amount: int = 1) -> None:
        if self._obs.enabled:
            self._obs.inc(name, amount)

    def _insert_ignore(self, table: str, row: Mapping[str, object]) -> bool:
        columns, marks, values = _placeholders(row)
        cursor = self._conn.execute(
            f"INSERT OR IGNORE INTO {table} ({columns}) "  # noqa: S608
            f"VALUES ({marks})", values)
        return cursor.rowcount > 0

    def record_campaign(self, campaign: "CampaignResult",
                        experiment_kwargs: Mapping[str, object],
                        workload: str = "",
                        meta: Optional[Mapping[str, object]] = None) -> str:
        """Ingest one completed campaign atomically; returns its id.

        Args:
            campaign: A :class:`repro.experiments.campaign.CampaignResult`.
            experiment_kwargs: The exact kwargs the campaign forwarded
                to ``run_experiment`` -- they are the configuration half
                of every run's content key.
            workload: Workload label for faceting (free-form).
            meta: Extra context folded into the campaign payload (and
                therefore into its content id).

        The campaign row, its per-seed run rows, the campaign->run
        links, each run's trace digest under the campaign's engine
        mode, and the per-seed obs counter snapshots all commit in one
        transaction.
        """
        from repro.sim.engine import EngineMode

        from repro.experiments.cache import config_key as _config_key

        engine_mode = EngineMode.parse(
            experiment_kwargs.get("engine_mode")).value
        config_key = _config_key(campaign.scheduler, experiment_kwargs)
        payload: Dict[str, object] = {
            "scheduler": campaign.scheduler,
            "workload": workload,
            "engine_mode": engine_mode,
            "seeds": list(campaign.seeds),
            "completed_seeds": campaign.completed_seeds,
            "failures": [{"seed": failure.seed,
                          "attempts": failure.attempts}
                         for failure in campaign.failures],
            "config_key": config_key,
            "summaries": {
                name: {
                    "samples": summary.samples,
                    "mean": summary.mean,
                    "stdev": summary.stdev,
                    "ci_low": summary.ci_low,
                    "ci_high": summary.ci_high,
                    "minimum": summary.minimum,
                    "maximum": summary.maximum,
                }
                for name, summary in sorted(campaign.summaries.items())
            },
            "meta": dict(meta or {}),
        }
        campaign_id = content_digest(payload)
        with self.transaction():
            inserted = self._insert_ignore("campaigns", {
                "id": campaign_id,
                "scheduler": campaign.scheduler,
                "workload": workload,
                "engine_mode": engine_mode,
                "seeds": len(campaign.seeds),
                "failures": len(campaign.failures),
                "config_key": config_key,
                "payload": canonical_json_bytes(payload).decode("ascii"),
            })
            for seed, result in zip(campaign.completed_seeds,
                                    campaign.results):
                run_id = self._ingest_run(result, campaign.scheduler, seed,
                                          experiment_kwargs, engine_mode)
                self._insert_ignore("campaign_runs", {
                    "campaign_id": campaign_id, "run_id": run_id,
                    "seed": seed,
                })
            for seed, snapshot in zip(campaign.completed_seeds,
                                      campaign.obs_snapshots):
                self._ingest_snapshot("campaign", campaign_id, seed,
                                      snapshot.counters)
        if inserted:
            self._count("results.campaigns_recorded")
        return campaign_id

    def record_run(self, result: "ExperimentResult", seed: int,
                   experiment_kwargs: Mapping[str, object]) -> str:
        """Ingest one standalone experiment run; returns its run id."""
        from repro.sim.engine import EngineMode

        engine_mode = EngineMode.parse(
            experiment_kwargs.get("engine_mode",
                                  getattr(result, "engine_mode", None))).value
        with self.transaction():
            run_id = self._ingest_run(result, result.scheduler, seed,
                                      experiment_kwargs, engine_mode)
        return run_id

    @staticmethod
    def run_config_key(scheduler: str, seed: int,
                       experiment_kwargs: Mapping[str, object]) -> str:
        """Content key of one run: configuration x seed, engine-free.

        Delegates to :func:`repro.experiments.cache.run_key` -- the
        campaign cache's fingerprint machinery with ``engine_mode``
        stripped, so trace-equivalent engines share run identity and
        the digest-diff endpoint can line their digests up.
        """
        from repro.experiments.cache import run_key

        return run_key(scheduler, seed, experiment_kwargs)

    def _ingest_run(self, result: "ExperimentResult", scheduler: str,
                    seed: int,
                    experiment_kwargs: Mapping[str, object],
                    engine_mode: str) -> str:
        from repro.sim.trace import trace_digest

        run_id = self.run_config_key(scheduler, seed, experiment_kwargs)
        metrics = result.metrics.summary_row()
        payload: Dict[str, object] = {
            "scheduler": scheduler,
            "seed": seed,
            "cycles": result.cycles_run,
            "metrics": dict(sorted(metrics.items())),
            "produced": result.metrics.produced_instances,
            "delivered": result.metrics.delivered_instances,
            "counters": dict(sorted(result.counters.items())),
        }
        row: Dict[str, object] = {
            "id": run_id,
            "scheduler": scheduler,
            "seed": seed,
            "cycles": result.cycles_run,
            "produced": result.metrics.produced_instances,
            "delivered": result.metrics.delivered_instances,
            "payload": canonical_json_bytes(payload).decode("ascii"),
        }
        for column in RUN_METRIC_COLUMNS:
            row[column] = float(metrics[column])
        if self._insert_ignore("runs", row):
            self._count("results.runs_recorded")
        trace = getattr(result.cluster, "trace", None)
        if trace is not None:
            self._ingest_digest(run_id, engine_mode, trace_digest(trace),
                                len(trace), result.cycles_run)
        return run_id

    def _ingest_digest(self, run_id: str, engine_mode: str, digest: str,
                       records: int, cycles: int) -> None:
        existing = self._conn.execute(
            "SELECT digest FROM trace_digests WHERE run_id = ? AND "
            "engine_mode = ?", (run_id, engine_mode)).fetchone()
        if existing is not None:
            if existing["digest"] != digest:
                # First write wins; the disagreement itself is the
                # finding -- an engine violated trace equivalence.
                self._count("results.digest_conflicts")
                warnings.warn(
                    f"trace digest conflict for run {run_id[:12]} "
                    f"({engine_mode}): stored {existing['digest'][:12]} "
                    f"!= new {digest[:12]}; keeping the stored digest",
                    RuntimeWarning, stacklevel=4)
            return
        self._insert_ignore("trace_digests", {
            "run_id": run_id, "engine_mode": engine_mode,
            "digest": digest, "records": records, "cycles": cycles,
        })
        self._count("results.digests_recorded")

    def record_trace_digest(self, run_id: str, engine_mode: str,
                            digest: str, records: int,
                            cycles: int) -> None:
        """Record one (run, engine mode) trace digest."""
        with self.transaction():
            self._ingest_digest(run_id, engine_mode, digest, records,
                                cycles)

    def record_verify_report(self, report: "Report", target: str) -> str:
        """Persist one :class:`repro.verify.Report`; returns its id."""
        payload = {
            "target": target,
            "diagnostics": [diagnostic.to_row() for diagnostic in report],
        }
        report_id = content_digest(payload)
        with self.transaction():
            inserted = self._insert_ignore("verify_reports", {
                "id": report_id,
                "target": target,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "findings": len(report),
                "payload": canonical_json_bytes(payload).decode("ascii"),
            })
            if inserted:
                for ordinal, diagnostic in enumerate(report):
                    self._insert_ignore("verify_diagnostics", {
                        "report_id": report_id,
                        "ordinal": ordinal,
                        "rule_id": diagnostic.rule_id,
                        "severity": diagnostic.severity.value,
                        "location": diagnostic.location,
                        "message": diagnostic.message,
                        "hint": diagnostic.fix_hint,
                    })
        if inserted:
            self._count("results.verify_reports_recorded")
        return report_id

    def _ingest_snapshot(self, scope: str, scope_id: str,
                         seed: Optional[int],
                         counters: Mapping[str, int]) -> str:
        payload = {"scope": scope, "scope_id": scope_id, "seed": seed,
                   "counters": dict(sorted(counters.items()))}
        snapshot_id = content_digest(payload)
        if self._insert_ignore("obs_snapshots", {
            "id": snapshot_id, "scope": scope, "scope_id": scope_id,
            "seed": seed,
            "counters": canonical_json_bytes(
                payload["counters"]).decode("ascii"),
        }):
            self._count("results.snapshots_recorded")
        return snapshot_id

    def record_obs_snapshot(self, scope: str, scope_id: str,
                            counters: Mapping[str, int],
                            seed: Optional[int] = None) -> str:
        """Persist one deterministic counter snapshot; returns its id."""
        with self.transaction():
            return self._ingest_snapshot(scope, scope_id, seed, counters)

    # -- read side -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Row count per table (the web index page)."""
        return {
            table: self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}"  # noqa: S608
            ).fetchone()["n"]
            for table in _TABLES
        }

    @staticmethod
    def _facet(clauses: List[str], values: List[object], column: str,
               value: Optional[object]) -> None:
        if value is not None:
            clauses.append(f"{column} = ?")
            values.append(value)

    def _paged(self, base: str, order: str, clauses: List[str],
               values: List[object], limit: int,
               offset: int) -> Tuple[List[sqlite3.Row], int]:
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        total = self._conn.execute(
            f"SELECT COUNT(*) AS n FROM ({base}{where})",  # noqa: S608
            values).fetchone()["n"]
        rows = self._conn.execute(
            f"{base}{where} ORDER BY {order} LIMIT ? OFFSET ?",  # noqa: S608
            [*values, limit, offset]).fetchall()
        return rows, total

    def campaigns(self, scheduler: Optional[str] = None,
                  workload: Optional[str] = None,
                  engine_mode: Optional[str] = None,
                  limit: int = 50,
                  offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Faceted campaign listing; returns ``(rows, total)``."""
        clauses: List[str] = []
        values: List[object] = []
        self._facet(clauses, values, "scheduler", scheduler)
        self._facet(clauses, values, "workload", workload)
        self._facet(clauses, values, "engine_mode", engine_mode)
        rows, total = self._paged(
            "SELECT id, scheduler, workload, engine_mode, seeds, "
            "failures, config_key FROM campaigns",
            "scheduler, workload, engine_mode, id",
            clauses, values, limit, offset)
        return [dict(row) for row in rows], total

    def campaign(self, campaign_id: str) -> Optional[Dict[str, object]]:
        """Full campaign payload plus its run links, or ``None``."""
        row = self._conn.execute(
            "SELECT payload FROM campaigns WHERE id = ?",
            (campaign_id,)).fetchone()
        if row is None:
            return None
        import json

        payload: Dict[str, object] = json.loads(row["payload"])
        links = self._conn.execute(
            "SELECT run_id, seed FROM campaign_runs WHERE campaign_id "
            "= ? ORDER BY seed, run_id", (campaign_id,)).fetchall()
        payload["id"] = campaign_id
        payload["runs"] = [dict(link) for link in links]
        return payload

    def campaign_runs(self, campaign_id: str, limit: int = 50,
                      offset: int = 0,
                      seed: Optional[int] = None,
                      ) -> Tuple[List[Dict[str, object]], int]:
        """Per-seed run rows of one campaign; ``(rows, total)``."""
        clauses = ["campaign_runs.campaign_id = ?"]
        values: List[object] = [campaign_id]
        if seed is not None:
            clauses.append("campaign_runs.seed = ?")
            values.append(seed)
        rows, total = self._paged(
            "SELECT runs.id, runs.scheduler, runs.seed, runs.cycles, "
            "runs.produced, runs.delivered, "
            + ", ".join(f"runs.{c}" for c in RUN_METRIC_COLUMNS)
            + " FROM campaign_runs JOIN runs ON runs.id = "
              "campaign_runs.run_id",
            "runs.seed, runs.id", clauses, values, limit, offset)
        return [dict(row) for row in rows], total

    def run(self, run_id: str) -> Optional[Dict[str, object]]:
        """Full run payload plus digests and campaign memberships."""
        row = self._conn.execute(
            "SELECT payload FROM runs WHERE id = ?", (run_id,)).fetchone()
        if row is None:
            return None
        import json

        payload: Dict[str, object] = json.loads(row["payload"])
        payload["id"] = run_id
        payload["digests"] = {
            digest["engine_mode"]: {"digest": digest["digest"],
                                    "records": digest["records"],
                                    "cycles": digest["cycles"]}
            for digest in self._conn.execute(
                "SELECT engine_mode, digest, records, cycles FROM "
                "trace_digests WHERE run_id = ? ORDER BY engine_mode",
                (run_id,))
        }
        payload["campaigns"] = [
            link["campaign_id"] for link in self._conn.execute(
                "SELECT campaign_id FROM campaign_runs WHERE run_id = ? "
                "ORDER BY campaign_id", (run_id,))
        ]
        return payload

    def digests(self, run_id: Optional[str] = None,
                engine_mode: Optional[str] = None,
                limit: int = 50,
                offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Raw digest rows; ``(rows, total)``."""
        clauses: List[str] = []
        values: List[object] = []
        self._facet(clauses, values, "run_id", run_id)
        self._facet(clauses, values, "engine_mode", engine_mode)
        rows, total = self._paged(
            "SELECT run_id, engine_mode, digest, records, cycles "
            "FROM trace_digests",
            "run_id, engine_mode", clauses, values, limit, offset)
        return [dict(row) for row in rows], total

    def digest_diff(self, scheduler: Optional[str] = None,
                    seed: Optional[int] = None,
                    campaign_id: Optional[str] = None,
                    equal: Optional[bool] = None,
                    limit: int = 50,
                    offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Cross-engine-mode digest comparison per run.

        One row per run that has at least one digest: the digest under
        every engine mode that produced one, and ``equal`` -- whether
        they all agree (the trace-equivalence contract, checked against
        stored history instead of within one process).  Pass ``equal``
        to keep only agreeing (``True``) or diverging (``False``) runs
        -- filtered in SQL so totals and pagination stay consistent.
        """
        clauses = []
        values: List[object] = []
        self._facet(clauses, values, "runs.scheduler", scheduler)
        self._facet(clauses, values, "runs.seed", seed)
        if campaign_id is not None:
            clauses.append(
                "runs.id IN (SELECT run_id FROM campaign_runs WHERE "
                "campaign_id = ?)")
            values.append(campaign_id)
        if equal is not None:
            comparison = "<= 1" if equal else "> 1"
            clauses.append(
                "runs.id IN (SELECT run_id FROM trace_digests "
                f"GROUP BY run_id HAVING COUNT(DISTINCT digest) "
                f"{comparison})")
        rows, total = self._paged(
            "SELECT DISTINCT runs.id, runs.scheduler, runs.seed "
            "FROM runs JOIN trace_digests ON trace_digests.run_id = "
            "runs.id",
            "runs.scheduler, runs.seed, runs.id",
            clauses, values, limit, offset)
        out = []
        for row in rows:
            digests = {
                digest["engine_mode"]: digest["digest"]
                for digest in self._conn.execute(
                    "SELECT engine_mode, digest FROM trace_digests "
                    "WHERE run_id = ? ORDER BY engine_mode",
                    (row["id"],))
            }
            out.append({
                "run_id": row["id"],
                "scheduler": row["scheduler"],
                "seed": row["seed"],
                "digests": digests,
                "modes": len(digests),
                "equal": len(set(digests.values())) <= 1,
            })
        return out, total

    def metric_rows(self, metric: str,
                    scheduler: Optional[str] = None,
                    seed: Optional[int] = None,
                    min_value: Optional[float] = None,
                    max_value: Optional[float] = None,
                    limit: int = 50,
                    offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """One metric across all stored runs, with range filters.

        The paper's miss-ratio/latency tables as a query: ``metric``
        must be one of :data:`RUN_METRIC_COLUMNS`.
        """
        if metric not in RUN_METRIC_COLUMNS:
            raise ValueError(
                f"unknown metric {metric!r}; expected one of "
                f"{RUN_METRIC_COLUMNS}")
        clauses: List[str] = []
        values: List[object] = []
        self._facet(clauses, values, "scheduler", scheduler)
        self._facet(clauses, values, "seed", seed)
        if min_value is not None:
            clauses.append(f"{metric} >= ?")
            values.append(min_value)
        if max_value is not None:
            clauses.append(f"{metric} <= ?")
            values.append(max_value)
        rows, total = self._paged(
            f"SELECT id, scheduler, seed, cycles, {metric} AS value "  # noqa: S608
            f"FROM runs",
            "scheduler, seed, id", clauses, values, limit, offset)
        return [dict(row) for row in rows], total

    def verify_reports(self, target: Optional[str] = None,
                       limit: int = 50,
                       offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Verify-report listing; ``(rows, total)``."""
        clauses: List[str] = []
        values: List[object] = []
        self._facet(clauses, values, "target", target)
        rows, total = self._paged(
            "SELECT id, target, errors, warnings, findings FROM "
            "verify_reports",
            "target, id", clauses, values, limit, offset)
        return [dict(row) for row in rows], total

    def verify_report(self, report_id: str) -> Optional[Dict[str, object]]:
        """One verify report with its ordered diagnostics."""
        row = self._conn.execute(
            "SELECT id, target, errors, warnings, findings FROM "
            "verify_reports WHERE id = ?", (report_id,)).fetchone()
        if row is None:
            return None
        out = dict(row)
        out["diagnostics"] = [
            dict(diagnostic) for diagnostic in self._conn.execute(
                "SELECT ordinal, rule_id, severity, location, message, "
                "hint FROM verify_diagnostics WHERE report_id = ? "
                "ORDER BY ordinal", (report_id,))
        ]
        return out

    def snapshots(self, scope: Optional[str] = None,
                  scope_id: Optional[str] = None,
                  limit: int = 50,
                  offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Obs counter snapshots; counters come back parsed."""
        import json

        clauses: List[str] = []
        values: List[object] = []
        self._facet(clauses, values, "scope", scope)
        self._facet(clauses, values, "scope_id", scope_id)
        rows, total = self._paged(
            "SELECT id, scope, scope_id, seed, counters FROM "
            "obs_snapshots",
            "scope, scope_id, seed, id", clauses, values, limit, offset)
        out = []
        for row in rows:
            entry = dict(row)
            entry["counters"] = json.loads(entry["counters"])
            out.append(entry)
        return out, total

