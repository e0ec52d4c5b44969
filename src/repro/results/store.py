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

import json
import os
import sqlite3
import warnings
from contextlib import contextmanager
from functools import partialmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.results.canonical import canonical_json_bytes, content_digest

if TYPE_CHECKING:  # runtime imports stay lazy (heavy packages)
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.runner import ExperimentResult
    from repro.obs.observability import ObsLike
    from repro.verify.diagnostics import Report

__all__ = ["SCHEMA_VERSION", "RUN_METRIC_COLUMNS", "LISTINGS", "Listing",
           "ResultStore"]

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


Rows = List[Dict[str, object]]


class Listing(NamedTuple):
    """One paged listing of the store (see :meth:`ResultStore.page`).

    ``select`` and ``order`` make its query.  ``key`` is the clause that
    binds the route's ``<id>``; an id with no row in table ``parent``
    has no page.  A listing with ``columns`` takes one of them as its
    key instead, written into ``select`` and the filters as
    ``{column}``.  ``filters`` maps each filter a caller may set to its
    type and its clause with one ``?``; ``finish`` completes the rows
    of a page in place.
    """

    select: str
    order: str
    filters: Mapping[str, Tuple[type, str]]
    key: Optional[str] = None
    parent: Optional[str] = None
    columns: Tuple[str, ...] = ()
    finish: Optional[Callable[[sqlite3.Connection, Rows], None]] = None

    def check(self, key: Optional[str]) -> None:
        """Reject a column key this listing does not have."""
        if self.columns and key not in self.columns:
            raise ValueError(f"unknown metric {key!r}; expected one of "
                             f"{', '.join(self.columns)}")


def _decode_counters(_conn: sqlite3.Connection, rows: Rows) -> None:
    for row in rows:
        row["counters"] = json.loads(str(row["counters"]))


def _attach_digests(conn: sqlite3.Connection, rows: Rows) -> None:
    """Each run's digest per engine mode, for the whole page at once."""
    digests: Dict[object, Dict[str, str]] = {row["run_id"]: {}
                                             for row in rows}
    for digest in conn.execute(
            "SELECT run_id, engine_mode, digest FROM trace_digests WHERE "
            f"run_id IN ({', '.join('?' for _ in rows)}) "  # noqa: S608
            "ORDER BY engine_mode", list(digests)):
        digests[digest["run_id"]][digest["engine_mode"]] = digest["digest"]
    for row in rows:
        modes = digests[row["run_id"]]
        row.update(digests=modes, modes=len(modes),
                   equal=len(set(modes.values())) <= 1)


#: Every paged listing, by name.  ``repro web`` serves each at one
#: route; its filters are the only ones a caller can set.
LISTINGS: Dict[str, Listing] = {
    "campaigns": Listing(
        "SELECT id, scheduler, workload, engine_mode, seeds, failures, "
        "config_key FROM campaigns",
        "scheduler, workload, engine_mode, id",
        {"scheduler": (str, "scheduler = ?"),
         "workload": (str, "workload = ?")}),
    "campaign_runs": Listing(
        "SELECT runs.id, runs.scheduler, runs.seed, runs.cycles, "
        "runs.produced, runs.delivered, "
        + ", ".join(f"runs.{column}" for column in RUN_METRIC_COLUMNS)
        + " FROM campaign_runs JOIN runs ON runs.id = campaign_runs.run_id",
        "runs.seed, runs.id", {},
        key="campaign_runs.campaign_id = ?", parent="campaigns"),
    # One row per run with at least one digest; ``equal`` says whether
    # every engine mode's digest agrees (the trace-equivalence contract
    # checked against stored history).
    "digest_diff": Listing(
        "SELECT DISTINCT runs.id AS run_id, runs.scheduler, runs.seed "
        "FROM runs JOIN trace_digests ON trace_digests.run_id = runs.id",
        "runs.scheduler, runs.seed, runs.id",
        {"equal": (bool, "runs.id IN (SELECT run_id FROM trace_digests "
                         "GROUP BY run_id HAVING "
                         "(COUNT(DISTINCT digest) <= 1) = ?)")},
        finish=_attach_digests),
    "metrics": Listing(
        "SELECT id, scheduler, seed, cycles, {column} AS value FROM runs",
        "scheduler, seed, id",
        {"min": (float, "{column} >= ?")},
        columns=RUN_METRIC_COLUMNS),
    "verify_reports": Listing(
        "SELECT id, target, errors, warnings, findings FROM verify_reports",
        "target, id", {}),
    "snapshots": Listing(
        "SELECT id, scope, scope_id, seed, counters FROM obs_snapshots",
        "scope, scope_id, seed, id",
        {"scope": (str, "scope = ?")},
        finish=_decode_counters),
}


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
                        workload: str = "") -> str:
        """Ingest one completed campaign atomically; returns its id.

        Args:
            campaign: A :class:`repro.experiments.campaign.CampaignResult`.
            experiment_kwargs: The exact kwargs the campaign forwarded
                to ``run_experiment`` -- they are the configuration half
                of every run's content key.
            workload: Workload label for faceting (free-form).

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

    def record_verify_report(self, report: "Report", target: str) -> str:
        """Persist one :class:`repro.verify.diagnostics.Report`.

        Returns its id.
        """
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
                            counters: Mapping[str, int]) -> str:
        """Persist one seedless counter snapshot; returns its id."""
        with self.transaction():
            return self._ingest_snapshot(scope, scope_id, None, counters)

    # -- read side -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Row count per table (the web index page)."""
        return {
            table: self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}"  # noqa: S608
            ).fetchone()["n"]
            for table in _TABLES
        }

    def page(self, listing: str, key: Optional[str] = None,
             limit: int = 50, offset: int = 0, **filters: object,
             ) -> Optional[Tuple[Rows, int]]:
        """One page of a listing of :data:`LISTINGS`: ``(rows, total)``.

        ``key`` is the route's ``<id>`` or column (see :class:`Listing`);
        the page is ``None`` when the key names no row of the listing's
        parent.  A filter set to ``None`` does not filter.
        """
        spec = LISTINGS[listing]
        spec.check(key)
        select = spec.select.format(column=key)
        clauses: List[str] = []
        values: List[object] = []
        if spec.key is not None:
            clauses.append(spec.key)
            values.append(key)
        for name, value in filters.items():
            if name not in spec.filters:
                raise TypeError(f"listing {listing!r} has no filter {name!r}")
            if value is not None:
                clauses.append(spec.filters[name][1].format(column=key))
                values.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        total = self._conn.execute(
            f"SELECT COUNT(*) AS n FROM ({select}{where})",  # noqa: S608
            values).fetchone()["n"]
        if total == 0 and spec.parent is not None and self._conn.execute(
                f"SELECT 1 FROM {spec.parent} WHERE id = ?",  # noqa: S608
                (key,)).fetchone() is None:
            return None
        rows = [dict(row) for row in self._conn.execute(
            f"{select}{where} ORDER BY {spec.order} "  # noqa: S608
            f"LIMIT ? OFFSET ?", [*values, limit, offset])]
        if spec.finish is not None:
            spec.finish(self._conn, rows)
        return rows, total

    #: The listings ``benchmarks/bench_results.py`` reads by name.
    campaigns = partialmethod(page, "campaigns")
    digest_diff = partialmethod(page, "digest_diff")

    def metric_rows(self, metric: str, min_value: Optional[float] = None,
                    limit: int = 50, offset: int = 0) -> Tuple[Rows, int]:
        """One metric of :data:`RUN_METRIC_COLUMNS` across stored runs."""
        rows = self.page("metrics", metric, limit, offset, min=min_value)
        assert rows is not None
        return rows

    def campaign(self, campaign_id: str) -> Optional[Dict[str, object]]:
        """Full campaign payload plus its run links, or ``None``."""
        row = self._conn.execute(
            "SELECT payload FROM campaigns WHERE id = ?",
            (campaign_id,)).fetchone()
        if row is None:
            return None
        payload: Dict[str, object] = json.loads(row["payload"])
        links = self._conn.execute(
            "SELECT run_id, seed FROM campaign_runs WHERE campaign_id "
            "= ? ORDER BY seed, run_id", (campaign_id,)).fetchall()
        payload["id"] = campaign_id
        payload["runs"] = [dict(link) for link in links]
        return payload

    def run(self, run_id: str) -> Optional[Dict[str, object]]:
        """Full run payload plus digests and campaign memberships."""
        row = self._conn.execute(
            "SELECT payload FROM runs WHERE id = ?", (run_id,)).fetchone()
        if row is None:
            return None
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
