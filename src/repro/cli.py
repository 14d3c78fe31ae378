"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the six benchmarks and the reproducible figures/tables.
* ``run`` — run one benchmark under a protection level and error rate
  (``--trace PATH`` streams the run's structured events as JSONL).
* ``figure`` — grade one of the paper's figures/tables: the ``paper``
  pipeline narrowed to that figure's targets, printing the section
  ``paper`` writes to ``reproduction_data/<figure>.txt``.
* ``sweep`` — MTBE sweep of one benchmark (quality + loss per point;
  ``--trace-dir DIR`` ships one JSONL trace per executed run).  The
  fault-tolerance flags — ``--retries N``, ``--run-timeout SECONDS``,
  ``--keep-going`` — retry failed runs with deterministic backoff,
  preempt hung runs, and finish the sweep past exhausted points; Ctrl-C
  exits cleanly with every completed run already flushed to the store.
  ``--metrics-out FILE`` writes the engine's metrics registry in
  Prometheus textfile format after the sweep.
* ``paper`` — run the whole paper reproduction at a scale tier
  (``--scale smoke|reduced|full``) through the result store, grade every
  measured value against the paper's reported numbers, and write the
  ``REPRODUCTION.md`` / ``reproduction.json`` fidelity bundle.
  Interrupted runs resume with zero re-execution (``--strict`` exits 1
  on an overall FAIL).
* ``report`` — re-render a JSON sweep report written by ``sweep
  --output FILE`` (same summary block as the live sweep).
* ``trace`` — summarize or tail a JSONL trace file (``--kind`` filters
  to the named event kinds).
* ``profile`` — deep profiling: ``profile run`` executes one benchmark
  with the simulated-time timeline recorder and engine span profiler
  attached and exports a Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (``--timeline-out`` additionally writes the
  canonical timeline bytes, deterministic for a given command line);
  ``profile trace`` renders an existing JSONL trace the same way.
* ``top`` — store-backed campaign health: done/failed/pending,
  executed-vs-hit split, run wall seconds, throughput and an ETA for
  the pending points.
* ``store`` — the SQLite result store: ``stats``, ``query`` (filter by
  app/protection/mtbe/seed/fault-model), ``gc`` (prune superseded
  failures + orphaned files), ``export`` (JSONL dump).

``sweep --store [PATH]`` records the sweep as a resumable *campaign* in
the store: every completed point is flushed as it finishes, so after a
crash or Ctrl-C ``sweep --store PATH --resume CAMPAIGN`` (the campaign id
is printed, and derived deterministically from the grid) re-runs only
what is missing — at any ``--jobs`` value — and renders the same report
the uninterrupted sweep would have.

``figure``, ``paper`` and ``sweep`` execute through the parallel sweep
engine: ``--jobs N`` (or the ``REPRO_JOBS`` environment variable) fans
independent runs out over N worker processes, and completed points are
memoized in the default result store ``.repro_store.sqlite``
(``REPRO_STORE`` moves it; ``sweep --no-cache`` disables it; a
``--store`` named on ``sweep`` or ``paper`` is always used) so re-running
a figure or resuming an interrupted sweep skips finished work.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import api
from repro.apps.registry import APP_ORDER
from repro.experiments.options import EngineOptions, build_engine
from repro.experiments.parallel import ParallelRunner, SweepRunError, SweepStats
from repro.experiments.aggregate import summarize
from repro.experiments.registry import figure_names, figure_specs
from repro.experiments.store import RunStore
from repro.experiments.report import db_or_errorfree, format_table
from repro.machine.faults import FAULT_MODELS, FaultModelSpec, fault_model_names
from repro.machine.protection import ProtectionLevel
from repro.observability.tracer import read_trace, summarize_trace
from repro.quality.metrics import QUALITY_CAP_DB

#: Accepted --protection spellings: the canonical values plus the "ppu"
#: shorthand; all funnel through :meth:`ProtectionLevel.parse`.
PROTECTION_CHOICES = (*ProtectionLevel.choices(), "ppu")


def _parse_mtbe(text: str) -> float:
    """Accept plain numbers or k/M suffixes: ``512k``, ``1M``, ``64000``."""
    try:
        return api.parse_mtbe(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_fault_model(text: str) -> str:
    """Validate a ``name[:param=val,...]`` spec; returns its canonical form."""
    try:
        return FaultModelSpec.parse(text).canonical()
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _progress_printer(stream=sys.stderr):
    """Progress callback printing one line per ~completed 10% of a sweep."""
    last_shown = -1

    def show(stats: SweepStats) -> None:
        nonlocal last_shown
        decile = 10 * stats.completed // max(stats.total, 1)
        if decile != last_shown or stats.completed == stats.total:
            last_shown = decile
            print(
                f"  [{stats.completed}/{stats.total}] "
                f"{stats.cache_hits} cached, {stats.wall_seconds:.1f}s",
                file=stream,
                flush=True,
            )

    return show


def _print_figure_listing() -> None:
    for spec in figure_specs():
        names = spec.name
        if spec.aliases:
            names += f" ({', '.join(spec.aliases)})"
        line = f"  {names:16s} {spec.description}"
        if spec.paper_section:
            line += f"  [{spec.paper_section}]"
        print(line)


def cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks:")
    for name in APP_ORDER:
        print(f"  {name}")
    print("\nfault models (use with `run`/`sweep` --fault-model):")
    for name in fault_model_names():
        print(f"  {name:14s} {FAULT_MODELS[name].summary}")
    print("\nfigures/tables (use with `figure`):")
    _print_figure_listing()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    protection = ProtectionLevel.parse(args.protection)
    start = time.time()
    report = api.run(
        args.app,
        protection,
        mtbe=args.mtbe,
        seed=args.seed,
        frame_scale=args.frame_scale,
        fault_model=args.fault_model,
        options=EngineOptions(scale=args.scale, trace=args.trace),
    )
    elapsed = time.time() - start
    app = report.app
    result = report.result
    stats = result.commguard_stats()
    rows = [
        ["app", args.app],
        ["protection", protection.value],
        ["fault model", args.fault_model],
        ["MTBE", "-" if args.mtbe is None else f"{args.mtbe:,.0f}"],
        ["seed", args.seed],
        [f"quality ({app.metric.upper()})", db_or_errorfree(report.quality_db)],
        ["baseline quality", db_or_errorfree(report.baseline_quality_db())],
        ["errors injected", result.errors_injected],
        ["padded items", stats.pads],
        ["discarded items", stats.discarded_items],
        ["data loss ratio", result.data_loss_ratio()],
        ["committed instructions", result.committed_instructions],
        ["simulated in", f"{elapsed:.1f}s"],
    ]
    print(format_table(["metric", "value"], rows))
    if report.trace_path is not None:
        print(f"trace written to {report.trace_path}")
    return 0


def _run_paper_pipeline(
    label: str, tier: str, options: EngineOptions, figure=None, progress=None
):
    """Run the paper pipeline, reporting the grid's executed/hit split on
    stderr; ``None`` when interrupted (completed runs stay in the store)."""
    from repro.experiments.paper import run_paper

    try:
        run = run_paper(tier, figure=figure, options=options, progress=progress)
    except KeyboardInterrupt:
        print(
            f"\n[{label}] interrupted — completed runs are in the store; "
            "re-run the same command to resume with zero re-execution",
            file=sys.stderr,
        )
        return None
    stats = run.stats
    if stats is not None:
        print(
            f"[{label}] grid: {stats.executed} executed, "
            f"{stats.cache_hits} store hits, {stats.failed} failed "
            f"(campaign {run.report.campaign} in {run.store.path})",
            file=sys.stderr,
        )
    return run


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.paper import figure_sections

    if args.list or args.name is None:
        if args.name is None and not args.list:
            print("usage: repro figure <name> (or --list)", file=sys.stderr)
        _print_figure_listing()
        return 0 if args.list else 2
    run = _run_paper_pipeline(
        "figure", args.scale, EngineOptions(jobs=args.jobs), figure=args.name
    )
    if run is None:
        return 130
    ((_, section),) = figure_sections(run.report)
    print(section)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    options = _sweep_options(args)
    if args.resume is not None:
        store = options.batch_store()
        try:
            status = store.campaign(args.resume)
        except ValueError as error:
            print(f"repro sweep: {error}", file=sys.stderr)
            return 2
        print(f"[sweep] resuming {status.summary()}", file=sys.stderr)
        # The full frozen grid goes back through the engine: completed
        # positions are store hits (zero re-execution), pending ones run.
        app = api.AppInfo(name=status.app, metric=status.metric)
        specs = list(status.specs)
        options = replace(options, scale=status.scale, store=store)
    elif args.app is None:
        print("repro sweep: an app is required (or --resume CAMPAIGN)",
              file=sys.stderr)
        return 2
    else:
        app = api.resolve_app(args.app, scale=args.scale)
        specs = api.sweep_grid(
            args.app,
            args.protection,
            args.mtbe,
            args.seeds,
            fault_model=args.fault_model,
        )
    runner = build_engine(
        options,
        options.scale,
        specs,
        campaign=args.resume or args.campaign,
        app=app.name,
        metric=app.metric,
        progress=_progress_printer() if args.progress else None,
    )
    if runner.campaign is not None:
        print(
            f"[sweep] campaign {runner.campaign} in {runner.store.path}",
            file=sys.stderr,
        )
    try:
        records = runner.run_specs(specs)
    except KeyboardInterrupt:
        # Completed points are already flushed to the result store, so a
        # re-run resumes from here; report what survived, exit 130.
        print("\n[sweep] interrupted — completed runs are cached", file=sys.stderr)
        if runner.last_stats is not None:
            print(f"[sweep] {runner.last_stats.summary()}", file=sys.stderr)
        if runner.campaign is not None:
            print(
                f"[sweep] resume with: repro sweep --store {runner.store.path} "
                f"--resume {runner.campaign}",
                file=sys.stderr,
            )
        return 130
    except SweepRunError as error:
        print(f"[sweep] aborted: {error}", file=sys.stderr)
        print(
            "[sweep] use --keep-going to finish the remaining points, "
            "--retries/--run-timeout to tolerate transient faults",
            file=sys.stderr,
        )
        return 1
    report = api.SweepReport.from_records(
        app, specs, records, runner.last_stats, options
    )
    _render_report(report)
    if args.metrics_out is not None and _write_metrics(runner, args.metrics_out):
        return 1
    if args.trace_dir is not None:
        print(f"traces under {args.trace_dir}")
    if args.output is not None:
        if runner.campaign is not None:
            # The store document is canonical: rebuilt purely from what was
            # computed, so an interrupted-then-resumed campaign and an
            # uninterrupted one write byte-identical reports.
            report = api.SweepReport.from_store(runner.store, runner.campaign)
        try:
            Path(args.output).write_text(report.to_json() + "\n")
        except OSError as error:
            print(f"cannot write report: {error}", file=sys.stderr)
            return 1
        print(f"report written to {args.output}")
    return 0


def _write_metrics(runner: ParallelRunner, path: str) -> int:
    """Write the engine's metrics registry as a Prometheus textfile.
    Returns nonzero on I/O failure (the sweep itself already succeeded)."""
    try:
        Path(path).write_text(runner.metrics.to_prometheus())
    except OSError as error:
        print(f"cannot write metrics: {error}", file=sys.stderr)
        return 1
    print(f"metrics written to {path}")
    return 0


def _sweep_options(args: argparse.Namespace) -> EngineOptions:
    """The :class:`EngineOptions` a ``sweep`` command line spells
    (``--campaign`` / ``--resume`` without ``--store`` name the default
    store)."""
    store = args.store
    if store is None and (args.campaign is not None or args.resume is not None):
        store = True
    return EngineOptions(
        scale=args.scale,
        jobs=args.jobs,
        cache=not args.no_cache,
        trace_dir=args.trace_dir,
        retries=args.retries,
        run_timeout=args.run_timeout,
        keep_going=args.keep_going,
        store=store,
    )


def _render_report(report: "api.SweepReport") -> None:
    """Print a report's summary blocks (one per protection level) plus its
    engine stats — what ``repro sweep`` prints for the sweep it ran and
    ``repro report`` for a serialized one, byte for byte.

    Each block is a header line, counting the block's own seeds, plus
    the per-MTBE table: mean ±95% CI of each MTBE point's completed
    records (an empty cell — every run failed — renders as dashes)."""
    if not report.points:
        print("empty report: no sweep points")
        return
    metric = report.app.metric
    for level in report.protections:
        points = [p for p in report.points if p.spec.protection is level]
        seeds = len({p.spec.seed for p in points})
        rows = []
        for mtbe in dict.fromkeys(p.spec.mtbe for p in points):
            label = "-" if mtbe is None else f"{mtbe / 1000:.0f}k"
            chunk = [
                p.record
                for p in points
                if p.spec.mtbe == mtbe and p.record is not None
            ]
            if not chunk:
                rows.append([label, "-", "-"])
                continue
            quality = summarize([r.quality_db for r in chunk], cap=QUALITY_CAP_DB)
            loss = summarize([r.data_loss_ratio for r in chunk])
            rows.append([label, quality.format(), loss.format(4)])
        print(
            f"{report.app.name} under {level.value} ({seeds} seeds/point, "
            f"fault model {points[0].spec.fault_model}, mean ±95% CI)"
        )
        print(format_table(["MTBE", f"{metric.upper()} (dB)", "loss ratio"], rows))
    if report.stats is not None:
        print(f"[sweep] {report.stats.summary()}")
        for failure in report.stats.failures:
            print(f"[sweep] failed: {failure.summary()}", file=sys.stderr)


def cmd_paper(args: argparse.Namespace) -> int:
    from repro.experiments import paper as paper_pipeline

    options = EngineOptions(
        jobs=args.jobs,
        retries=args.retries,
        run_timeout=args.run_timeout,
        keep_going=True,
        store=args.store if args.store is not None else True,
    )
    run = _run_paper_pipeline(
        "paper",
        args.scale,
        options,
        progress=_progress_printer() if args.progress else None,
    )
    if run is None:
        return 130
    paths = paper_pipeline.write_bundle(run, args.out)
    report = run.report
    counts = report.counts()
    print(paper_pipeline.verdict_table(report.results))
    print(
        f"\noverall: {report.verdict.value.upper()} — "
        f"{counts[paper_pipeline.Verdict.PASS]} pass, "
        f"{counts[paper_pipeline.Verdict.WARN]} warn, "
        f"{counts[paper_pipeline.Verdict.FAIL]} fail, "
        f"{counts[paper_pipeline.Verdict.SKIP]} skipped"
    )
    print(f"bundle: {', '.join(str(p) for p in paths[:2])} + per-figure data")
    if args.strict and report.verdict is paper_pipeline.Verdict.FAIL:
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Re-render a serialized sweep report (``repro sweep --output``)."""
    try:
        text = Path(args.file).read_text()
    except OSError as error:
        print(f"cannot read report: {error}", file=sys.stderr)
        return 1
    try:
        report = api.SweepReport.from_json(text)
    except (ValueError, KeyError, TypeError) as error:
        print(f"malformed report: {error}", file=sys.stderr)
        return 1
    _render_report(report)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize (default) or tail a JSONL trace produced by a run."""
    try:
        pairs = list(read_trace(args.file))
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 1
    if args.kind:
        wanted = set(args.kind)
        pairs = [(data, event) for data, event in pairs if data.get("kind") in wanted]

    if args.tail is not None:
        for data, _event in pairs[-args.tail :]:
            print(json.dumps(data, sort_keys=True))
        return 0

    summary = summarize_trace(pairs)
    print(f"trace summary: {args.file}")
    rows = [["events", summary["total"]]]
    if summary["duration"] is not None and summary["duration"] > 0:
        rows.append(["duration", f"{summary['duration']:.3f}s"])
        rows.append(["events/sec", f"{summary['total'] / summary['duration']:,.0f}"])
    for kind, count in summary["by_kind"].most_common():
        rows.append([kind, count])
    rows.append(["errors (masked)", summary["errors"]["masked"]])
    rows.append(["errors (unmasked)", summary["errors"]["unmasked"]])
    if summary["dropped"]:
        rows.append(["events dropped", summary["dropped"]])
    print(format_table(["metric", "value"], rows))
    if summary["high_water"]:
        hw_rows = [
            [f"q{qid}", hw["crossings"], hw["watermark"], hw["units"]]
            for qid, hw in summary["high_water"].items()
        ]
        print("per-queue high-water crossings:")
        print(format_table(["queue", "crossings", "watermark", "peak units"],
                           hw_rows))
    if summary["edges"]:
        edge_rows = [
            [
                f"q{qid}",
                edge["pads"],
                edge["discards"],
                "-"
                if edge["first_fc"] is None
                else f"{edge['first_fc']}..{edge['last_fc']}",
            ]
            for qid, edge in sorted(summary["edges"].items())
        ]
        print("per-edge realignment:")
        print(format_table(["edge", "pads", "discards", "fc range"], edge_rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a run (or render a trace) as Chrome trace-event JSON."""
    from repro.observability.export import (
        profile_to_chrome,
        trace_to_chrome,
        write_chrome_trace,
    )

    if args.profile_command == "trace":
        try:
            pairs = list(read_trace(args.file))
        except OSError as error:
            print(f"cannot read trace: {error}", file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"malformed trace: {error}", file=sys.stderr)
            return 1
        try:
            write_chrome_trace(args.out, trace_to_chrome(pairs))
        except OSError as error:
            print(f"cannot write profile: {error}", file=sys.stderr)
            return 1
        print(
            f"{len(pairs)} event(s) rendered to {args.out} "
            "(load in Perfetto or chrome://tracing)"
        )
        return 0

    from repro.observability.profile import ProfileSession

    protection = ProtectionLevel.parse(args.protection)
    session = ProfileSession()
    result = api.run(
        args.app,
        protection,
        mtbe=args.mtbe,
        seed=args.seed,
        frame_scale=args.frame_scale,
        fault_model=args.fault_model,
        options=EngineOptions(scale=args.scale),
        profile=session,
    ).result
    try:
        write_chrome_trace(
            args.out, profile_to_chrome(sim=session.sim, engine=session.engine)
        )
    except OSError as error:
        print(f"cannot write profile: {error}", file=sys.stderr)
        return 1
    segments = sum(len(segs) for segs in session.sim.threads.values())
    samples = sum(len(series) for series in session.sim.queues.values())
    print(
        f"profiled {args.app} ({protection.value}, seed {args.seed}): "
        f"{result.errors_injected} error(s) injected over "
        f"{result.execution_time():,} cycles"
    )
    print(
        f"  {len(session.sim.threads)} thread track(s), {segments} segment(s), "
        f"{len(session.sim.queues)} queue(s), {samples} occupancy sample(s)"
    )
    print(f"profile written to {args.out} (load in Perfetto or chrome://tracing)")
    if args.timeline_out is not None:
        try:
            Path(args.timeline_out).write_bytes(session.sim.to_json_bytes())
        except OSError as error:
            print(f"cannot write timeline: {error}", file=sys.stderr)
            return 1
        print(f"timeline written to {args.timeline_out}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Store-backed campaign health view."""
    store = RunStore(args.store)
    if args.campaign is None:
        ids = store.campaign_ids()
        if not ids:
            print(f"no campaigns in {store.path}")
            return 0
        print(f"campaigns in {store.path}:")
        for campaign_id in ids:
            print(f"  {store.campaign(campaign_id).summary()}")
        by_app: dict[str, list[float]] = {}
        for row in store.query():
            wall = row.provenance.get("wall_seconds")
            if isinstance(wall, (int, float)):
                by_app.setdefault(row.spec.app, []).append(float(wall))
        if by_app:
            print("executed wall seconds by app (stored provenance):")
            table = [
                [app, len(walls), f"{sum(walls):.1f}s",
                 f"{sum(walls) / len(walls):.2f}s"]
                for app, walls in sorted(by_app.items())
            ]
            print(format_table(["app", "runs", "total", "mean"], table))
        print("(`repro top --store PATH --campaign ID` for one campaign)")
        return 0
    try:
        status = store.campaign(args.campaign)
        runs = store.campaign_runs(args.campaign)
    except ValueError as error:
        print(f"repro top: {error}", file=sys.stderr)
        return 2
    total = len(status.keys)
    done, failed = len(status.done), len(status.failed)
    pending = total - done - failed
    executed = sum(
        1 for _pos, run in runs
        if run.provenance.get("campaign") == args.campaign
    )
    hits = len(runs) - executed
    walls = [
        float(run.provenance["wall_seconds"])
        for _pos, run in runs
        if isinstance(run.provenance.get("wall_seconds"), (int, float))
    ]
    stamps = [
        float(run.provenance["written_at"])
        for _pos, run in runs
        if isinstance(run.provenance.get("written_at"), (int, float))
    ]
    jobs = next(
        (
            run.provenance["jobs"]
            for _pos, run in runs
            if isinstance(run.provenance.get("jobs"), int)
        ),
        status.options.get("jobs") or 1,
    )
    progress = 100.0 * (done + failed) / total if total else 100.0
    rows = [
        ["campaign", args.campaign],
        ["app", f"{status.app} (scale {status.scale:g})"],
        ["grid", total],
        ["done", f"{done} ({progress:.0f}% incl. failed)"],
        ["failed", failed],
        ["pending", pending],
        ["executed", executed],
        ["store hits", hits],
    ]
    if walls:
        mean_wall = sum(walls) / len(walls)
        rows.append(["run wall (mean)", f"{mean_wall:.2f}s"])
        rows.append(["run wall (total)", f"{sum(walls):.1f}s"])
        if pending:
            rows.append(
                ["ETA", f"~{pending * mean_wall / max(jobs, 1):.0f}s "
                        f"({pending} pending at jobs={jobs})"]
            )
    if len(stamps) > 1 and max(stamps) > min(stamps):
        span = max(stamps) - min(stamps)
        rows.append(["throughput", f"{len(stamps) / span:.2f} runs/s"])
    print(format_table(["metric", "value"], rows))
    if failed:
        for position in sorted(status.failed):
            spec = status.specs[position]
            failure = store.failure_for(status.keys[position])
            detail = f": {failure.summary()}" if failure is not None else ""
            print(
                f"  failed #{position} {spec.app} {spec.protection.value} "
                f"mtbe={spec.mtbe} seed={spec.seed}{detail}",
                file=sys.stderr,
            )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    store = RunStore(args.db)
    if args.action == "stats":
        stats = store.stats()
        rows = [
            ["path", stats.path],
            ["runs", stats.runs],
            ["failures", stats.failures],
            ["campaigns", stats.campaigns],
            ["size", f"{stats.size_bytes:,} bytes"],
        ]
        rows += [[f"runs ({app})", count] for app, count in stats.by_app.items()]
        print(format_table(["metric", "value"], rows))
        for campaign_id in store.campaign_ids():
            print(f"  {store.campaign(campaign_id).summary()}")
        return 0
    if args.action == "query":
        rows = store.query(
            app=args.app,
            protection=(
                ProtectionLevel.parse(args.protection).value
                if args.protection is not None
                else None
            ),
            mtbe=args.mtbe,
            seed=args.seed,
            fault_model=args.fault_model,
            limit=args.limit,
        )
        if args.json:
            for row in rows:
                print(
                    json.dumps(
                        {
                            "key": row.key,
                            "app": row.spec.app,
                            "protection": row.spec.protection.value,
                            "mtbe": row.spec.mtbe,
                            "seed": row.spec.seed,
                            "quality_db": row.record.quality_db,
                            "data_loss_ratio": row.record.data_loss_ratio,
                            "provenance": row.provenance,
                        },
                        sort_keys=True,
                    )
                )
            return 0
        table = [
            [
                row.spec.app,
                row.spec.protection.value,
                "-" if row.spec.mtbe is None else f"{row.spec.mtbe:,.0f}",
                row.spec.seed,
                db_or_errorfree(row.record.quality_db),
                f"{row.record.data_loss_ratio:.4f}",
            ]
            for row in rows
        ]
        print(format_table(
            ["app", "protection", "MTBE", "seed", "quality", "loss"], table
        ))
        print(f"{len(rows)} row(s) in {store.path}")
        return 0
    if args.action == "gc":
        collected = store.gc(trace_dirs=args.trace_dir or ())
        print(f"[store] {collected.summary()}")
        return 0
    # export
    if args.output is not None:
        try:
            with open(args.output, "w") as stream:
                count = store.export(stream)
        except OSError as error:
            print(f"cannot write export: {error}", file=sys.stderr)
            return 1
        print(f"exported {count} run(s) to {args.output}")
    else:
        store.export(sys.stdout)
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: REPRO_JOBS or CPU count; 1 = serial)",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    _add_jobs_option(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read/write the default result store "
        "(.repro_store.sqlite / REPRO_STORE); a --store named on the "
        "command line is still used",
    )


def _add_tier_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=["smoke", "reduced", "full"],
        default="reduced",
        help="fidelity tier: smoke (CI-sized), reduced (laptop-sized, "
        "default), full (the paper's Section 6 setup)",
    )


def _add_fault_tolerance_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="retry each failed run up to N times (deterministic backoff)",
    )
    parser.add_argument(
        "--run-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock limit; a hung run is preempted and retried",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="complete the rest of the sweep when a run exhausts its "
        "retries, reporting it as a failure (default: abort)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CommGuard (ASPLOS 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and figures").set_defaults(
        func=cmd_list
    )

    run_parser = sub.add_parser("run", help="run one benchmark once")
    run_parser.add_argument("app", choices=list(APP_ORDER))
    run_parser.add_argument(
        "--protection",
        choices=list(PROTECTION_CHOICES),
        default="commguard",
    )
    run_parser.add_argument("--mtbe", type=_parse_mtbe, default=None,
                            help="per-core MTBE, e.g. 512k or 1M")
    run_parser.add_argument(
        "--fault-model", type=_parse_fault_model, default="bit_flip",
        metavar="NAME[:P=V,...]",
        help="fault model spec, e.g. burst:p_cluster=0.7 (see `repro list`)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--scale", type=float, default=1.0)
    run_parser.add_argument("--frame-scale", type=int, default=1)
    run_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream the run's structured events to a JSONL file",
    )
    run_parser.set_defaults(func=cmd_run)

    figure_parser = sub.add_parser(
        "figure", help="grade one paper figure (its section of `paper`)"
    )
    figure_parser.add_argument(
        "name",
        nargs="?",
        default=None,
        choices=sorted(figure_names(include_aliases=True)),
        help="canonical name or alias (fig3 and fig03 both work)",
    )
    figure_parser.add_argument(
        "--list", action="store_true", help="list the registered figures and exit"
    )
    _add_tier_option(figure_parser)
    _add_jobs_option(figure_parser)
    figure_parser.set_defaults(func=cmd_figure)

    sweep_parser = sub.add_parser("sweep", help="MTBE sweep of one benchmark")
    sweep_parser.add_argument(
        "app",
        nargs="?",
        default=None,
        choices=list(APP_ORDER),
        help="benchmark to sweep (omit with --resume: the campaign "
        "remembers its grid)",
    )
    sweep_parser.add_argument(
        "--mtbe", nargs="+", type=_parse_mtbe,
        default=[64_000.0, 256_000.0, 1_000_000.0, 4_000_000.0],
        help="per-core MTBE ladder, e.g. 64k 256k 1M (default: 64k 256k 1M 4M)",
    )
    sweep_parser.add_argument(
        "--protection", choices=list(PROTECTION_CHOICES), default="commguard"
    )
    sweep_parser.add_argument(
        "--fault-model", type=_parse_fault_model, default="bit_flip",
        metavar="NAME[:P=V,...]",
        help="fault model spec, e.g. burst:p_cluster=0.7 (see `repro list`)",
    )
    sweep_parser.add_argument("--seeds", type=_positive_int, default=3)
    sweep_parser.add_argument("--scale", type=float, default=0.5)
    sweep_parser.add_argument(
        "--progress", action="store_true", help="print progress lines to stderr"
    )
    sweep_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one JSONL trace per executed run into DIR",
    )
    sweep_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the sweep as a versioned JSON report "
        "(re-render it later with `repro report FILE`)",
    )
    sweep_parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the engine's metrics registry as a Prometheus "
        "textfile (node_exporter textfile-collector format)",
    )
    sweep_parser.add_argument(
        "--store", nargs="?", const=True, default=None, metavar="PATH",
        help="record the sweep as a resumable campaign in the SQLite "
        "result store (default path: .repro_store.sqlite / REPRO_STORE)",
    )
    sweep_parser.add_argument(
        "--campaign", default=None, metavar="ID",
        help="campaign id to record under (default: derived from the "
        "grid, so identical command lines resume each other); implies "
        "--store",
    )
    sweep_parser.add_argument(
        "--resume", default=None, metavar="ID",
        help="resume a stored campaign: re-run only its missing points "
        "and render the canonical report; implies --store",
    )
    _add_engine_options(sweep_parser)
    _add_fault_tolerance_options(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    report_parser = sub.add_parser(
        "report", help="re-render a sweep report written by sweep --output"
    )
    report_parser.add_argument("file", help="JSON report file")
    report_parser.set_defaults(func=cmd_report)

    trace_parser = sub.add_parser(
        "trace", help="summarize or tail a JSONL trace file"
    )
    trace_parser.add_argument("file", help="trace file written by run --trace")
    trace_parser.add_argument(
        "--tail", type=_positive_int, default=None, metavar="N",
        help="print the last N raw events instead of the summary",
    )
    trace_parser.add_argument(
        "--kind", action="append", default=None, metavar="KIND",
        help="only consider events of this kind (repeatable; applies to "
        "both the summary and --tail)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="profile a run (or render a trace) as Perfetto-loadable JSON",
    )
    profile_sub = profile_parser.add_subparsers(
        dest="profile_command", required=True
    )
    profile_run = profile_sub.add_parser(
        "run",
        help="run one benchmark with the simulated-time timeline recorder "
        "and engine span profiler attached",
    )
    profile_run.add_argument("app", choices=list(APP_ORDER))
    profile_run.add_argument(
        "--protection", choices=list(PROTECTION_CHOICES), default="commguard"
    )
    profile_run.add_argument("--mtbe", type=_parse_mtbe, default=None,
                             help="per-core MTBE, e.g. 512k or 1M")
    profile_run.add_argument(
        "--fault-model", type=_parse_fault_model, default="bit_flip",
        metavar="NAME[:P=V,...]",
        help="fault model spec, e.g. burst:p_cluster=0.7 (see `repro list`)",
    )
    profile_run.add_argument("--seed", type=int, default=0)
    profile_run.add_argument("--scale", type=float, default=1.0)
    profile_run.add_argument("--frame-scale", type=int, default=1)
    profile_run.add_argument(
        "--out", default="profile.json", metavar="FILE",
        help="Chrome trace-event JSON output (default: profile.json)",
    )
    profile_run.add_argument(
        "--timeline-out", default=None, metavar="FILE",
        help="also write the canonical simulated-time timeline JSON "
        "(the deterministic, byte-comparable artifact)",
    )
    profile_run.set_defaults(func=cmd_profile)
    profile_trace = profile_sub.add_parser(
        "trace",
        help="render an existing JSONL trace as Chrome trace-event JSON",
    )
    profile_trace.add_argument("file", help="trace file written by run --trace")
    profile_trace.add_argument(
        "--out", default="profile.json", metavar="FILE",
        help="Chrome trace-event JSON output (default: profile.json)",
    )
    profile_trace.set_defaults(func=cmd_profile)

    top_parser = sub.add_parser(
        "top", help="campaign health view over the SQLite result store"
    )
    top_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="store database (default: .repro_store.sqlite / REPRO_STORE)",
    )
    top_parser.add_argument(
        "--campaign", default=None, metavar="ID",
        help="campaign to inspect (default: list campaigns and per-app "
        "wall seconds)",
    )
    top_parser.set_defaults(func=cmd_top)

    paper_parser = sub.add_parser(
        "paper",
        help="run the whole paper reproduction and grade it vs the paper",
    )
    _add_tier_option(paper_parser)
    paper_parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="bundle directory for REPRODUCTION.md / reproduction.json / "
        "reproduction_data/ (default: current directory)",
    )
    paper_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="store database recording the resumable campaign "
        "(default: .repro_store.sqlite / REPRO_STORE)",
    )
    paper_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the overall verdict is FAIL",
    )
    paper_parser.add_argument(
        "--progress", action="store_true",
        help="print progress lines to stderr",
    )
    _add_jobs_option(paper_parser)
    _add_fault_tolerance_options(paper_parser)
    paper_parser.set_defaults(func=cmd_paper)

    store_parser = sub.add_parser(
        "store", help="inspect/maintain the SQLite result store"
    )
    store_parser.add_argument(
        "action", choices=["stats", "query", "gc", "export"]
    )
    store_parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="store database (default: .repro_store.sqlite / REPRO_STORE)",
    )
    store_parser.add_argument(
        "--app", default=None, choices=list(APP_ORDER), help="query: app filter"
    )
    store_parser.add_argument(
        "--protection", default=None, choices=list(PROTECTION_CHOICES),
        help="query: protection filter",
    )
    store_parser.add_argument(
        "--mtbe", type=_parse_mtbe, default=None, help="query: MTBE filter"
    )
    store_parser.add_argument(
        "--seed", type=int, default=None, help="query: seed filter"
    )
    store_parser.add_argument(
        "--fault-model", type=_parse_fault_model, default=None,
        metavar="NAME[:P=V,...]", help="query: fault model filter",
    )
    store_parser.add_argument(
        "--limit", type=_positive_int, default=None, help="query: row limit"
    )
    store_parser.add_argument(
        "--json", action="store_true", help="query: one JSON object per row"
    )
    store_parser.add_argument(
        "--trace-dir", action="append", default=None, metavar="DIR",
        help="gc: also sweep dangling traces under DIR (repeatable)",
    )
    store_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="export: write JSONL here instead of stdout",
    )
    store_parser.set_defaults(func=cmd_store)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        # Configuration errors (bad REPRO_JOBS, invalid engine knobs)
        # surface as one actionable line, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
