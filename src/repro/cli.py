"""Command-line interface.

The subcommands mirror the library's main entry points:

- ``run`` -- one experiment: workload x scheduler x fault environment;
- ``campaign`` -- a multi-seed Monte-Carlo campaign with confidence
  intervals (``--workers`` fans seeds over processes, ``--cache-dir``
  skips already-simulated seeds);
- ``figures`` -- regenerate a paper figure's data series;
- ``tables`` -- print the case-study message tables;
- ``plan`` -- show the differentiated retransmission plan for a
  workload/goal without running a simulation;
- ``report`` -- regenerate the whole evaluation as a markdown report;
- ``breakdown`` -- breakdown-load search per scheduler (extension);
- ``verify-config`` -- statically verify a cluster configuration,
  schedule, and Theorem-1 plan without simulating (exit 1 on errors);
- ``lint`` -- the ``DET*`` determinism rules of ``check`` alone, over
  source paths (exit 1 on errors);
- ``check`` -- the static-analysis gate: ``DET*`` rules and policy
  effect proofs over the source tree, hyperperiod model checks of
  every bundled workload's compiled round (exit 1 on errors);
- ``serve`` -- run the online admission-control service (JSON lines
  over TCP; see ``docs/service.md``);
- ``loadgen`` -- fire a deterministic seeded Poisson request stream at
  a running service and report latency/acceptance percentiles;
- ``web`` -- serve a result store over read-only HTTP (paginated
  canonical-JSON endpoints with content-digest ETags; see
  ``docs/results.md``).

``run``, ``campaign``, ``serve`` and ``verify-config`` accept
``--store PATH`` to persist what they produce into the SQLite result
store ``repro web`` reads.

Invoke as ``python -m repro <subcommand>``; every subcommand supports
``--help``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments import figures as figures_module
from repro.experiments.campaign import CAMPAIGN_METRICS, run_campaign
from repro.experiments.runner import SCHEDULERS, run_experiment
from repro.faults.ber import BitErrorRateModel
from repro.core.retransmission import plan_retransmissions
from repro.obs import (
    NULL_OBS,
    Observability,
    attach_event_capture,
    format_profile,
    write_metrics_jsonl,
)
from repro.protocol.backend import (
    available_backends,
    get_backend,
    workload_minislots,
)
from repro.sim.engine import EngineMode
from repro.workloads import bundled_periodic, sae_aperiodic_signals

__all__ = ["main", "build_parser"]

_WORKLOADS = ("bbw", "acc", "synthetic")
_FIGURES = ("1", "2", "3", "4", "5")


def _backend_of(args):
    return get_backend(getattr(args, "backend", "flexray"))


def _params_for(args) -> "SegmentGeometry":
    return _backend_of(args).workload_params(args.workload, args.minislots)


def _emit(rows: List[Dict], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2, default=str))
        return
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(c), 14) for c in columns}
    print("  ".join(f"{c:>{widths[c]}s}" for c in columns))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>{widths[column]}.4f}")
            else:
                cells.append(f"{str(value):>{widths[column]}s}")
        print("  ".join(cells))


def _make_observability(args):
    """Build an observability context iff a flag asks for one.

    Returns ``(obs, events)``: the shared :data:`NULL_OBS` no-op (and
    ``None``) unless ``--profile`` or ``--metrics-out`` was given, in
    which case a live context with a bounded event recorder attached.
    """
    wants_profile = getattr(args, "profile", False)
    wants_export = getattr(args, "metrics_out", None)
    if not wants_profile and not wants_export:
        return NULL_OBS, None
    if wants_export:
        # Fail fast on an unwritable path: the export happens after the
        # whole simulation, which is too late to discover a typo.
        try:
            open(wants_export, "w").close()
        except OSError as error:
            raise SystemExit(
                f"repro: cannot write --metrics-out {wants_export}: {error}")
    obs = Observability()
    events = attach_event_capture(obs)
    return obs, events


def _finish_observability(args, obs, events, **meta) -> None:
    """Export / print whatever the enabled observability collected."""
    if not obs.enabled:
        return
    path = getattr(args, "metrics_out", None)
    if path:
        meta.setdefault("tool", "repro-cli")
        count = write_metrics_jsonl(path, obs, meta=meta, events=events)
        print(f"wrote {path} ({count} records)", file=sys.stderr)
    if getattr(args, "profile", False):
        print(file=sys.stderr)
        print(format_profile(obs.profiler), file=sys.stderr)


def _open_store(args, obs):
    """Open the ``--store`` result store, or ``None`` without the flag."""
    path = getattr(args, "store", None)
    if not path:
        return None
    from repro.results import ResultStore

    return ResultStore(path, obs=obs)


def _cmd_run(args) -> int:
    obs, events = _make_observability(args)
    periodic = bundled_periodic(args.workload, args.count, args.seed)
    aperiodic = sae_aperiodic_signals(count=args.aperiodic) \
        if args.aperiodic > 0 else None
    params = _params_for(args)
    store = _open_store(args, obs)
    experiment_kwargs = dict(
        params=params, periodic=periodic, aperiodic=aperiodic,
        ber=args.ber, duration_ms=args.duration_ms,
        reliability_goal=args.rho, engine_mode=args.engine_mode)
    rows = []
    for scheduler in args.scheduler:
        result = run_experiment(
            scheduler=scheduler,
            seed=args.seed,
            obs=obs,
            **experiment_kwargs,
        )
        row = result.row()
        row["produced"] = result.metrics.produced_instances
        row["delivered"] = result.metrics.delivered_instances
        rows.append(row)
        if store is not None:
            run_id = store.record_run(result, args.seed, experiment_kwargs)
            print(f"repro run: stored {scheduler} as run {run_id[:12]} "
                  f"in {args.store}", file=sys.stderr)
    if store is not None:
        store.close()
    _emit(rows, args.json)
    _finish_observability(args, obs, events, command="run",
                          workload=args.workload, seed=args.seed,
                          ber=args.ber,
                          schedulers=",".join(args.scheduler))
    return 0


def _cmd_campaign(args) -> int:
    from repro.verify import ConfigurationError

    if args.coordinate:
        return _cmd_campaign_coordinated(args)
    obs, events = _make_observability(args)
    periodic = bundled_periodic(args.workload, args.count, args.seed)
    aperiodic = sae_aperiodic_signals(count=args.aperiodic) \
        if args.aperiodic > 0 else None
    params = _params_for(args)
    seeds = list(range(args.seed, args.seed + args.seeds))
    store = _open_store(args, obs)
    rows = []
    failed = 0
    for scheduler in args.scheduler:
        try:
            campaign = run_campaign(
                scheduler,
                seeds=seeds,
                metrics=args.metric or None,
                params=params,
                periodic=periodic,
                aperiodic=aperiodic,
                ber=args.ber,
                duration_ms=args.duration_ms,
                reliability_goal=args.rho,
                workers=args.workers,
                cache_dir=args.cache_dir,
                validate=args.validate,
                obs=obs,
                store=store,
                store_workload=args.workload,
                engine_mode=args.engine_mode,
            )
        except ConfigurationError as error:
            print(f"repro: {scheduler}: configuration failed "
                  f"validation:", file=sys.stderr)
            print(error.report.format(), file=sys.stderr)
            if store is not None:
                store.close()
            return 1
        row = campaign.table_row()
        row["cache_hits"] = campaign.cache_hits
        row["simulated"] = campaign.simulations_run
        row["failures"] = len(campaign.failures)
        rows.append(row)
        failed += len(campaign.failures)
        for failure in campaign.failures:
            print(f"repro: {scheduler}: seed {failure.seed} failed "
                  f"after {failure.attempts} attempts", file=sys.stderr)
        if campaign.store_campaign_id:
            print(f"repro: {scheduler}: stored campaign "
                  f"{campaign.store_campaign_id[:12]} in {args.store}",
                  file=sys.stderr)
    if store is not None:
        store.close()
    _emit(rows, args.json)
    _finish_observability(args, obs, events, command="campaign",
                          workload=args.workload, seeds=args.seeds,
                          workers=args.workers or 1,
                          schedulers=",".join(args.scheduler))
    return 1 if failed else 0


def _cmd_campaign_coordinated(args) -> int:
    from repro.distrib.coordinator import coordinate_campaign
    from repro.distrib.plan import CampaignPlan
    from repro.verify import ConfigurationError

    if len(args.scheduler) != 1:
        print("repro campaign: --coordinate takes exactly one "
              "--scheduler (one plan per directory)", file=sys.stderr)
        return 1
    for flag, name in ((args.store, "--store"),
                       (args.cache_dir, "--cache-dir"),
                       (args.workers, "--workers"),
                       (args.metric, "--metric")):
        if flag:
            print(f"repro campaign: {name} is not supported with "
                  f"--coordinate (the directory provides cache and "
                  f"store; metrics come from the reduced campaign)",
                  file=sys.stderr)
            return 1
    obs, events = _make_observability(args)
    plan = CampaignPlan(
        scheduler=args.scheduler[0], workload=args.workload,
        backend=args.backend,
        count=args.count, seed=args.seed,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        aperiodic=args.aperiodic,
        minislots=workload_minislots(args.workload, args.minislots),
        ber=args.ber, reliability_goal=args.rho,
        duration_ms=args.duration_ms, engine_mode=args.engine_mode,
        chunk=args.chunk)
    try:
        campaign, report = coordinate_campaign(
            args.coordinate, plan=plan, join=args.join,
            worker_id=args.worker_id, timeout_s=args.coordinate_timeout_s,
            obs=obs)
    except (ConfigurationError, ValueError, TimeoutError,
            FileNotFoundError) as error:
        print(f"repro campaign: coordination failed: {error}",
              file=sys.stderr)
        return 1
    print(f"repro campaign: worker {report.worker_id} completed "
          f"{report.ranges_completed} ranges ({report.seeds_simulated} "
          f"simulated, {report.cache_hits} cache hits, "
          f"{report.takeovers} takeovers)", file=sys.stderr)
    rows = [report.row()]
    if campaign is not None:
        row = campaign.table_row()
        row["cache_hits"] = campaign.cache_hits
        row["simulated"] = campaign.simulations_run
        row["failures"] = len(campaign.failures)
        rows = [row]
    _emit(rows, args.json)
    _finish_observability(args, obs, events, command="campaign",
                          workload=args.workload, seeds=args.seeds,
                          workers=1, coordinate=args.coordinate,
                          schedulers=",".join(args.scheduler))
    if campaign is not None and campaign.failures:
        return 1
    return 0


def _cmd_figures(args) -> int:
    obs, events = _make_observability(args)
    figure = args.figure
    if figure == "1":
        rows = figures_module.fig1_2_running_time(ber=1e-7, obs=obs)
    elif figure == "2":
        rows = figures_module.fig1_2_running_time(ber=1e-9, obs=obs)
    elif figure == "3":
        rows = figures_module.fig3_bandwidth_utilization(
            duration_ms=args.duration_ms, obs=obs)
    elif figure == "4":
        rows = figures_module.fig4_transmission_latency(
            duration_ms=args.duration_ms, obs=obs)
    elif figure == "5":
        rows = figures_module.fig5_deadline_miss_ratio(
            duration_ms=args.duration_ms, obs=obs)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown figure {figure}")
    _emit(rows, args.json)
    _finish_observability(args, obs, events, command="figures",
                          figure=figure, duration_ms=args.duration_ms)
    return 0


def _cmd_tables(args) -> int:
    if args.table == "2":
        _emit(figures_module.table2_bbw_rows(), args.json)
    else:
        _emit(figures_module.table3_acc_rows(), args.json)
    return 0


def _cmd_plan(args) -> int:
    periodic = bundled_periodic(args.workload, args.count, args.seed)
    model = BitErrorRateModel(ber_channel_a=args.ber)
    failure = {}
    instances = {}
    cost = {}
    for signal in periodic:
        wire = signal.size_bits + 64
        failure[signal.name] = model.failure_probability("A", wire)
        instances[signal.name] = args.time_unit_ms / signal.period_ms
        cost[signal.name] = wire / signal.period_ms
    plan = plan_retransmissions(failure, instances, args.rho,
                                bandwidth_cost=cost)
    rows = [
        {"message": message, "k": budget,
         "p_fail": failure[message],
         "instances_per_unit": round(instances[message], 1)}
        for message, budget in sorted(plan.budgets.items())
    ]
    _emit(rows, args.json)
    print(f"\nfeasible: {plan.feasible}   "
          f"achieved: {plan.achieved_probability:.12f}   "
          f"goal: {args.rho:.12f}   "
          f"selected: {len(plan.selected_messages())}/{len(plan.budgets)}")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(
        duration_ms=args.duration_ms,
        include_running_time=not args.skip_running_time,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output} ({report.count(chr(10))} lines)")
    else:
        print(report)
    return 0


def _cmd_breakdown(args) -> int:
    from repro.analysis.sensitivity import aperiodic_breakdown_factor
    from repro.experiments.figures import (
        dynamic_study_aperiodic,
        dynamic_study_periodic,
    )

    params = get_backend("flexray").dynamic_preset(args.minislots)
    rows = []
    for scheduler in args.scheduler:
        result = aperiodic_breakdown_factor(
            scheduler,
            params=params,
            periodic=dynamic_study_periodic(),
            aperiodic=dynamic_study_aperiodic(),
            ber=args.ber,
            reliability_goal=args.rho,
            duration_ms=args.duration_ms,
            seed=args.seed,
        )
        rows.append({
            "scheduler": scheduler,
            "breakdown_factor": result.factor,
            "miss_at_factor": result.miss_at_factor,
            "evaluations": result.evaluations,
        })
    _emit(rows, args.json)
    return 0


_VERIFY_WORKLOADS = ("sae", "bbw", "acc", "synthetic")


def _verify_target(workload: str, args) -> Dict[str, object]:
    """Assemble the ``verify_experiment`` inputs for one bundled workload.

    The cluster comes from the same rule ``run`` and ``campaign`` use
    (:meth:`~repro.protocol.backend.ProtocolBackend.workload_params`).
    """
    params = _backend_of(args).workload_params(workload, args.minislots)
    if workload == "sae":
        # The SAE set is the paper's aperiodic study: no periodic half.
        count = args.aperiodic if args.aperiodic > 0 else 30
        return {"params": params, "periodic": None,
                "aperiodic": sae_aperiodic_signals(count=count)}
    return {
        "params": params,
        "periodic": bundled_periodic(workload, args.count, args.seed),
        "aperiodic": sae_aperiodic_signals(count=args.aperiodic)
        if args.aperiodic > 0 else None,
    }


def _cmd_verify_config(args) -> int:
    from repro.verify import verify_experiment

    workloads = _VERIFY_WORKLOADS if args.workload == "all" \
        else (args.workload,)
    store = _open_store(args, NULL_OBS)
    rows = []
    failed = False
    for workload in workloads:
        try:
            target = _verify_target(workload, args)
        except ValueError as error:
            # The cluster factory itself rejected the pairing (e.g. a
            # case-study workload forced onto too many minislots).
            print(f"{workload}: setup error: {error}", file=sys.stderr)
            failed = True
            rows.append({"workload": workload, "errors": 1,
                         "warnings": 0, "rules": "(setup)"})
            continue
        report = verify_experiment(
            ber=args.ber,
            reliability_goal=args.rho,
            **target,
        )
        failed = failed or report.has_errors
        rows.append({
            "workload": workload,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "rules": ",".join(report.rule_ids()) or "-",
        })
        for diagnostic in report:
            print(f"{workload}: {diagnostic.format()}", file=sys.stderr)
        if store is not None:
            report_id = store.record_verify_report(report, target=workload)
            print(f"repro verify-config: stored report {report_id[:12]} "
                  f"for {workload} in {args.store}", file=sys.stderr)
    if store is not None:
        store.close()
    _emit(rows, args.json)
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import AdmissionService, load_service_setup
    from repro.verify import ConfigurationError

    obs, events = _make_observability(args)
    try:
        setup = load_service_setup(
            workload=args.workload, count=args.count, seed=args.seed,
            minislots=args.minislots, ber=args.ber,
            reliability_goal=args.rho, tick_us=args.tick_us,
            backend=args.backend)
    except ConfigurationError as error:
        print("repro serve: configuration failed static verification:",
              file=sys.stderr)
        print(error.report.format(), file=sys.stderr)
        return 1
    store = _open_store(args, obs)

    async def serve() -> AdmissionService:
        # Runs until SIGTERM/SIGINT drains the service.
        service = AdmissionService(
            setup, obs=obs, queue_limit=args.queue_limit,
            batch_limit=args.batch_limit,
            request_timeout_s=args.timeout_ms / 1000.0,
            reconcile_every=args.reconcile_every, store=store)
        host, port = await service.start(host=args.host, port=args.port)
        service.install_signal_handlers()
        horizons = [service.ledgers[c].horizon for c in setup.channels]
        print(f"repro serve: listening on {host}:{port} (workload "
              f"{setup.workload}, channels {','.join(setup.channels)}, "
              f"horizons {horizons} ticks)", file=sys.stderr, flush=True)
        await service.wait_closed()
        return service

    try:
        service = asyncio.run(serve())
    finally:
        if store is not None:
            store.close()
    rows = [dict(sorted(service.counters.items()))] \
        if service.counters else []
    _emit(rows, args.json)
    _finish_observability(args, obs, events, command="serve",
                          workload=args.workload, seed=args.seed)
    divergence = service.counters.get("service.reconcile.divergence", 0)
    return 1 if divergence else 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.service.loadgen import LoadgenSpec, run_loadgen

    spec = LoadgenSpec(
        requests=args.requests, seed=args.seed,
        channels=tuple(args.channels),
        mean_interarrival_ticks=args.mean_interarrival,
        execution_min=args.execution_min,
        execution_max=args.execution_max,
        deadline_ticks=args.deadline_ticks,
        release_fraction=args.release_fraction)
    try:
        report = asyncio.run(run_loadgen(
            args.host, args.port, spec, concurrency=args.concurrency,
            connections=args.connections))
    except (ConnectionError, OSError) as error:
        print(f"repro loadgen: cannot reach {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 1
    row = report.to_row()
    _emit([row], args.json)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(row, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if report.dropped:
        print(f"repro loadgen: {report.dropped} requests never got a "
              f"reply", file=sys.stderr)
        return 1
    return 0


def _cmd_web(args) -> int:
    import asyncio

    from repro.results import serve_web

    obs, events = _make_observability(args)
    try:
        asyncio.run(serve_web(args.store, host=args.host, port=args.port,
                              obs=obs))
    except (FileNotFoundError, ValueError) as error:
        print(f"repro web: {error}", file=sys.stderr)
        return 1
    _finish_observability(args, obs, events, command="web",
                          store=args.store)
    return 0


def _cmd_lint(args) -> int:
    from repro.check import lint_paths

    report = lint_paths(args.paths)
    if args.json:
        print(json.dumps([d.to_row() for d in report], indent=2))
    else:
        print(report.format())
    return 1 if report.has_errors else 0


def _cmd_check(args) -> int:
    from pathlib import Path

    from repro.check import check_round, check_sources, check_workload
    from repro.verify.diagnostics import Diagnostic, Report, Severity

    combined = Report()
    store = _open_store(args, NULL_OBS)
    counterexample_dir = Path(args.counterexample_dir)

    def record(report, target):
        combined.merge(report)
        if store is not None:
            report_id = store.record_verify_report(report, target=target)
            print(f"repro check: stored report {report_id[:12]} for "
                  f"{target} in {args.store}", file=sys.stderr)

    if args.round_json:
        try:
            with open(args.round_json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"repro check: cannot read {args.round_json}: {error}",
                  file=sys.stderr)
            return 2
        record(check_round(payload, counterexample_dir=counterexample_dir),
               "check:round-json")
    else:
        record(check_sources(), "check:sources")
        workloads = () if args.workload == "none" else (
            _VERIFY_WORKLOADS if args.workload == "all"
            else (args.workload,))
        for workload in workloads:
            try:
                target = _verify_target(workload, args)
            except ValueError as error:
                print(f"{workload}: setup error: {error}", file=sys.stderr)
                setup = Report()
                setup.add(Diagnostic(
                    rule_id="MDL401", severity=Severity.ERROR,
                    location=workload,
                    message=f"setup error: {error}",
                    fix_hint="check the workload/minislot pairing"))
                record(setup, f"check:{workload}")
                continue
            record(check_workload(
                target["params"], target["periodic"], target["aperiodic"],
                ber=args.ber, reliability_goal=args.rho,
                counterexample_dir=counterexample_dir, label=workload),
                f"check:{workload}")

    if store is not None:
        store.close()
    rows = [d.to_row() for d in combined]
    if args.format == "json":
        document = {
            "diagnostics": rows,
            "summary": {
                "errors": len(combined.errors),
                "warnings": len(combined.warnings),
                "total": len(combined),
                "rules": combined.rule_ids(),
            },
        }
        text = json.dumps(document, indent=2)
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    else:
        print(combined.format())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump({"diagnostics": rows}, handle, indent=2)
                handle.write("\n")
    return 1 if combined.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoEfficient FlexRay scheduling reproduction "
                    "(ICDCS 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_options(p):
        p.add_argument("--count", type=int, default=20,
                       help="synthetic message count (default: 20)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--ber", type=float, default=1e-7,
                       help="bit error rate (default: 1e-7)")
        p.add_argument("--rho", type=float, default=1 - 1e-4,
                       help="reliability goal (default: 1-1e-4)")

    def common(p):
        p.add_argument("--workload", choices=_WORKLOADS,
                       default="synthetic",
                       help="periodic workload (default: synthetic)")
        scenario_options(p)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of a table")

    def observability(p):
        p.add_argument("--profile", action="store_true",
                       help="print a wall-clock profile to stderr")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write observability counters/gauges/events "
                            "as JSONL to PATH")

    def store_option(p, what):
        p.add_argument("--store", default=None, metavar="DB",
                       help=f"persist {what} into the SQLite result "
                            f"store at DB (browse with `repro web`)")

    def backend_option(p):
        p.add_argument("--backend", choices=available_backends(),
                       default="flexray",
                       help="protocol backend the cluster geometry "
                            "comes from (default: flexray)")

    def minislots_option(p):
        p.add_argument("--minislots", type=int, default=None,
                       help="minislot count (default: 50 for the case "
                            "studies, 100 otherwise)")

    def target_options(p):
        """The bundled-workload target flags of verify-config/check."""
        scenario_options(p)
        minislots_option(p)
        p.add_argument("--aperiodic", type=int, default=0,
                       help="SAE aperiodic message count to mix into "
                            "periodic workloads (0 = none; the sae "
                            "workload itself defaults to 30)")

    def engine_option(p, what):
        default = EngineMode.parse(None).value
        p.add_argument("--engine-mode",
                       choices=[mode.value for mode in EngineMode],
                       default=default,
                       help=f"{what}: the {default} cycle-batch engine "
                            f"(default) or the per-slot interpreter "
                            f"oracle; both produce identical traces")

    run_parser = sub.add_parser("run", help="run one experiment")
    common(run_parser)
    observability(run_parser)
    backend_option(run_parser)
    run_parser.add_argument("--scheduler", nargs="+", choices=SCHEDULERS,
                            default=["coefficient", "fspec"])
    minislots_option(run_parser)
    run_parser.add_argument("--aperiodic", type=int, default=30,
                            help="SAE aperiodic message count (0 = none)")
    run_parser.add_argument("--duration-ms", type=float, default=500.0)
    engine_option(run_parser, "simulation engine")
    store_option(run_parser, "the run results")
    run_parser.set_defaults(handler=_cmd_run)

    campaign_parser = sub.add_parser(
        "campaign",
        help="multi-seed Monte-Carlo campaign with confidence intervals")
    common(campaign_parser)
    observability(campaign_parser)
    backend_option(campaign_parser)
    campaign_parser.add_argument("--scheduler", nargs="+",
                                 choices=SCHEDULERS,
                                 default=["coefficient", "fspec"])
    minislots_option(campaign_parser)
    campaign_parser.add_argument("--aperiodic", type=int, default=30,
                                 help="SAE aperiodic message count "
                                      "(0 = none)")
    campaign_parser.add_argument("--duration-ms", type=float, default=200.0)
    campaign_parser.add_argument("--seeds", type=int, default=8,
                                 help="number of seeds, counted up from "
                                      "--seed (default: 8)")
    campaign_parser.add_argument("--workers", type=int, default=None,
                                 help="worker processes to fan seeds "
                                      "over (default: serial)")
    campaign_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                                 help="content-addressed on-disk cache; "
                                      "completed seeds are skipped on "
                                      "re-runs")
    campaign_parser.add_argument("--metric", nargs="+", default=None,
                                 choices=list(CAMPAIGN_METRICS),
                                 help="metrics to summarize "
                                      "(default: all)")
    campaign_parser.add_argument("--validate", action="store_true",
                                 help="statically verify the "
                                      "configuration before running "
                                      "any seed")
    engine_option(campaign_parser, "engine every seed runs under")
    campaign_parser.add_argument(
        "--coordinate", default=None, metavar="DIR",
        help="coordinate this campaign with other worker processes "
             "through a shared directory (lease-claimed seed ranges, "
             "shared cache and result store)")
    campaign_parser.add_argument(
        "--join", action="store_true",
        help="join DIR as an extra worker: contribute seed ranges but "
             "leave the final reduce to the coordinating process")
    campaign_parser.add_argument(
        "--chunk", type=int, default=2,
        help="seeds per lease-claimed range (default 2)")
    campaign_parser.add_argument(
        "--worker-id", default=None,
        help="stable lease identity (default: host-pid)")
    campaign_parser.add_argument(
        "--coordinate-timeout-s", type=float, default=None,
        help="give up after this many seconds without claimable work "
             "(default: wait forever)")
    store_option(campaign_parser, "the campaign and its per-seed runs")
    campaign_parser.set_defaults(handler=_cmd_campaign)

    figure_parser = sub.add_parser("figures",
                                   help="regenerate a paper figure")
    figure_parser.add_argument("figure", choices=_FIGURES)
    figure_parser.add_argument("--duration-ms", type=float, default=500.0)
    figure_parser.add_argument("--json", action="store_true")
    observability(figure_parser)
    figure_parser.set_defaults(handler=_cmd_figures)

    table_parser = sub.add_parser("tables",
                                  help="print a case-study table")
    table_parser.add_argument("table", choices=("2", "3"))
    table_parser.add_argument("--json", action="store_true")
    table_parser.set_defaults(handler=_cmd_tables)

    plan_parser = sub.add_parser(
        "plan", help="show the differentiated retransmission plan")
    common(plan_parser)
    plan_parser.add_argument("--time-unit-ms", type=float, default=1000.0)
    plan_parser.set_defaults(handler=_cmd_plan)

    report_parser = sub.add_parser(
        "report", help="regenerate the whole evaluation as markdown")
    report_parser.add_argument("--output", default=None,
                               help="write to a file instead of stdout")
    report_parser.add_argument("--duration-ms", type=float, default=500.0)
    report_parser.add_argument("--skip-running-time", action="store_true",
                               help="omit the slower Figures 1-2")
    report_parser.set_defaults(handler=_cmd_report)

    breakdown_parser = sub.add_parser(
        "breakdown", help="breakdown-load search per scheduler")
    common(breakdown_parser)
    breakdown_parser.add_argument("--scheduler", nargs="+",
                                  choices=SCHEDULERS,
                                  default=["coefficient", "fspec"])
    breakdown_parser.add_argument("--minislots", type=int, default=50)
    breakdown_parser.add_argument("--duration-ms", type=float,
                                  default=400.0)
    breakdown_parser.set_defaults(handler=_cmd_breakdown)

    verify_parser = sub.add_parser(
        "verify-config",
        help="statically verify configuration + schedule + plan "
             "invariants without simulating")
    verify_parser.add_argument("--workload",
                               choices=_VERIFY_WORKLOADS + ("all",),
                               default="all",
                               help="workload to verify (default: all)")
    target_options(verify_parser)
    verify_parser.add_argument("--json", action="store_true",
                               help="emit JSON instead of a table")
    backend_option(verify_parser)
    store_option(verify_parser, "each verification report")
    verify_parser.set_defaults(handler=_cmd_verify_config)

    serve_parser = sub.add_parser(
        "serve",
        help="run the online admission-control service "
             "(JSON lines over TCP)")
    serve_parser.add_argument("--workload",
                              choices=("bbw", "acc", "synthetic", "sae"),
                              default="synthetic",
                              help="configuration to hold live "
                                   "(default: synthetic)")
    serve_parser.add_argument("--count", type=int, default=20,
                              help="synthetic message count (default: 20)")
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument("--ber", type=float, default=1e-7)
    serve_parser.add_argument("--rho", type=float, default=1 - 1e-4)
    minislots_option(serve_parser)
    backend_option(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8471,
                              help="TCP port (0 = ephemeral; the bound "
                                   "port is printed to stderr)")
    serve_parser.add_argument("--tick-us", type=int, default=100,
                              help="service tick in microseconds "
                                   "(default: 100)")
    serve_parser.add_argument("--queue-limit", type=int, default=1024,
                              help="bounded request queue; full = "
                                   "overload replies (default: 1024)")
    serve_parser.add_argument("--batch-limit", type=int, default=256,
                              help="max requests per batch pass "
                                   "(default: 256)")
    serve_parser.add_argument("--timeout-ms", type=float, default=5000.0,
                              help="per-request queue timeout "
                                   "(default: 5000)")
    serve_parser.add_argument("--reconcile-every", type=int, default=64,
                              help="full slack reconciliation every N "
                                   "batches (default: 64; 0 = off)")
    serve_parser.add_argument("--json", action="store_true",
                              help="emit final counters as JSON")
    store_option(serve_parser, "the final counters at drain")
    observability(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    web_parser = sub.add_parser(
        "web",
        help="serve a result store over read-only HTTP "
             "(canonical JSON + ETags)")
    web_parser.add_argument("--store", required=True, metavar="DB",
                            help="SQLite result store to serve")
    web_parser.add_argument("--host", default="127.0.0.1")
    web_parser.add_argument("--port", type=int, default=8478,
                            help="TCP port (0 = ephemeral; the bound "
                                 "port is printed to stderr)")
    observability(web_parser)
    web_parser.set_defaults(handler=_cmd_web)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="fire a deterministic Poisson request stream at a running "
             "service")
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=8471)
    loadgen_parser.add_argument("--requests", type=int, default=1000)
    loadgen_parser.add_argument("--seed", type=int, default=7)
    loadgen_parser.add_argument("--channels", nargs="+",
                                default=["A", "B"])
    loadgen_parser.add_argument("--mean-interarrival", type=float,
                                default=8.0,
                                help="Poisson mean inter-arrival in "
                                     "ticks (default: 8)")
    loadgen_parser.add_argument("--execution-min", type=int, default=1)
    loadgen_parser.add_argument("--execution-max", type=int, default=4)
    loadgen_parser.add_argument("--deadline-ticks", type=int, default=500,
                                help="relative deadline in ticks "
                                     "(default: 500 = SAE 50 ms)")
    loadgen_parser.add_argument("--release-fraction", type=float,
                                default=0.0,
                                help="fraction of accepted requests "
                                     "followed by a release")
    loadgen_parser.add_argument("--concurrency", type=int, default=64,
                                help="max requests in flight")
    loadgen_parser.add_argument("--connections", type=int, default=4,
                                help="TCP connections to spread over")
    loadgen_parser.add_argument("--out", default=None, metavar="PATH",
                                help="also write the report row as JSON "
                                     "to PATH")
    loadgen_parser.add_argument("--json", action="store_true",
                                help="emit JSON instead of a table")
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    lint_parser = sub.add_parser(
        "lint", help="the determinism rules (DET*) of `repro check` "
                     "alone, over source paths")
    lint_parser.add_argument("paths", nargs="*", default=["src/repro"],
                             help="files or directories "
                                  "(default: src/repro)")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit JSON instead of text")
    lint_parser.set_defaults(handler=_cmd_lint)

    check_parser = sub.add_parser(
        "check",
        help="prove the engine-equivalence contract: determinism "
             "rules (DET*) and policy outcome-free promises (EFF*) over "
             "the source tree + hyperperiod model check of compiled "
             "rounds (MDL*)")
    check_parser.add_argument("--workload",
                              choices=_VERIFY_WORKLOADS + ("all", "none"),
                              default="all",
                              help="workload rounds to model-check "
                                   "(default: all; none = source "
                                   "proofs only)")
    target_options(check_parser)
    check_parser.add_argument("--round-json", default=None, metavar="PATH",
                              help="model-check a serialized "
                                   "counterexample round instead of the "
                                   "bundled workloads")
    check_parser.add_argument("--format", choices=("text", "json"),
                              default="text",
                              help="diagnostics output format "
                                   "(default: text)")
    check_parser.add_argument("--out", default=None, metavar="PATH",
                              help="also write the diagnostics JSON "
                                   "to PATH (the CI artifact)")
    backend_option(check_parser)
    check_parser.add_argument("--counterexample-dir",
                              default="check-artifacts", metavar="DIR",
                              help="where violation counterexamples are "
                                   "written (default: check-artifacts; "
                                   "created only on violation)")
    store_option(check_parser, "each check report")
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
