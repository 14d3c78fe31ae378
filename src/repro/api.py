"""One-call public API: :func:`run` a benchmark, get a :class:`RunReport`;
:func:`sweep` a grid, get a :class:`SweepReport`.

Historically every entry point (CLI, figure harnesses, examples) composed
the same plumbing by hand: build the app, parse a protection level, pick a
:class:`~repro.core.config.CommGuardConfig`, call
:func:`~repro.machine.system.run_program`, then re-derive quality numbers.
This module is the single front door over that stack::

    import repro.api as api

    report = api.run("jpeg", "commguard", mtbe=512_000, seed=1)
    print(report.quality_db, report.record.data_loss_ratio)

    grid = api.sweep("jpeg", protections=["ppu_only", "commguard"],
                     mtbes=["128k", "512k"], seeds=3)
    for level in grid.protections:
        print(level.name, grid.mean_quality_db(protection=level))

Inputs are forgiving: *app* is a registry name or a prebuilt
:class:`~repro.apps.base.BenchmarkApp`; *protection* is a
:class:`~repro.machine.protection.ProtectionLevel` or any spelling its
:meth:`~repro.machine.protection.ProtectionLevel.parse` accepts;
``options.trace`` is anything :func:`~repro.observability.coerce_tracer`
understands (``True`` collects events in memory, a path streams JSONL
there, a ready tracer passes through).

The shared parsing helpers (:func:`resolve_app`, :func:`parse_mtbe`) and
the sweep grid (:func:`sweep_grid`) live here too, so the CLI and the
examples agree on accepted spellings, error messages and grids.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.apps.base import BenchmarkApp
from repro.apps.registry import APP_BUILDERS, APP_GRADING, build_app
from repro.core.config import CommGuardConfig
from repro.experiments.aggregate import CellStats, summarize
from repro.experiments.cache import (
    record_from_dict,
    record_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.options import EngineOptions, build_engine
from repro.experiments.parallel import (
    FailureRecord,
    RunSpec,
    SweepStats,
    error_free_first,
)
from repro.experiments.store import RunStore
from repro.experiments.runner import RunRecord, SimulationRunner
from repro.machine.errors import ErrorModel
from repro.machine.faults import DEFAULT_FAULT_MODEL, FaultModelSpec
from repro.machine.protection import ProtectionLevel
from repro.machine.runstats import RunResult
from repro.observability.profile import ProfileSession, engine_span
from repro.observability.tracer import InMemoryTracer, JsonlTracer, coerce_tracer
from repro.quality.metrics import QUALITY_CAP_DB, clamp_db

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.events import TraceEvent


def _check_app_name(name: str) -> None:
    if name not in APP_BUILDERS:
        raise ValueError(
            f"unknown app {name!r}; valid choices: {', '.join(sorted(APP_BUILDERS))}"
        )


def resolve_app(app: str | BenchmarkApp, scale: float = 1.0) -> BenchmarkApp:
    """Normalize an app argument: a registry name or a prebuilt app.

    Raises ``ValueError`` listing the valid names for unknown strings.
    """
    if isinstance(app, BenchmarkApp):
        return app
    _check_app_name(app)
    return build_app(app, scale=scale)


def parse_mtbe(text: str | float | int | None) -> float | None:
    """Parse an MTBE argument: plain numbers or ``k``/``M`` suffixes.

    ``"512k"`` -> 512000.0, ``"1M"`` -> 1000000.0, ``64000`` -> 64000.0;
    ``None`` passes through (error-free).  Raises ``ValueError`` for
    non-positive, non-finite (``nan``, ``inf``, ``1e400``) or unparsable
    values.
    """
    if text is None:
        return None
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        cleaned = text.strip().lower()
        factor = 1.0
        if cleaned.endswith("k"):
            factor, cleaned = 1e3, cleaned[:-1]
        elif cleaned.endswith("m"):
            factor, cleaned = 1e6, cleaned[:-1]
        try:
            value = float(cleaned) * factor
        except ValueError:
            raise ValueError(
                f"unparsable MTBE {text!r}; use a number or k/M suffix "
                "(e.g. 512k, 1M, 64000)"
            ) from None
    if not 0 < value < math.inf:
        raise ValueError(
            f"MTBE must be positive and finite, got {text!r}; use a positive "
            "number or k/M suffix (e.g. 512k, 1M, 64000), or None for "
            "error-free"
        )
    return value


#: Version tag written into every serialized report.  Bump when the JSON
#: shape changes incompatibly; readers reject documents from the future
#: with an error naming both versions.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AppInfo:
    """Lightweight app identity: a name and a quality metric.

    It stands in for a :class:`BenchmarkApp` wherever the app was never
    built in this process: in a report loaded with
    :meth:`RunReport.from_json` / :meth:`SweepReport.from_json` or rebuilt
    from the store, and in an engine :func:`sweep`'s report, whose
    workers build the app.  Every aggregation view works; anything
    needing the actual program (e.g.
    :meth:`BenchmarkApp.baseline_quality`) requires rebuilding the app
    via :func:`resolve_app`.
    """

    name: str
    metric: str = "snr"

    @classmethod
    def of(cls, name: str) -> "AppInfo":
        """The identity of registry app *name*, read from
        :data:`~repro.apps.registry.APP_GRADING` without building it.
        Raises ``ValueError`` listing the valid names for unknown ones."""
        _check_app_name(name)
        return cls(name=name, metric=APP_GRADING[name].metric)

    def baseline_quality(self) -> float:
        raise ValueError(
            f"app {self.name!r} is an identity only, with no compiled "
            "program; rebuild it with repro.api.resolve_app(name) to "
            "compute baseline quality"
        )


def _failure_to_dict(failure: FailureRecord) -> dict:
    return {
        "index": failure.index,
        "spec": spec_to_dict(failure.spec),
        "failure": failure.failure,
        "message": failure.message,
        "attempts": failure.attempts,
    }


def _failure_from_dict(data: dict) -> FailureRecord:
    return FailureRecord(
        index=data["index"],
        spec=spec_from_dict(data["spec"]),
        failure=data["failure"],
        message=data["message"],
        attempts=data["attempts"],
    )


def _stats_to_dict(stats: SweepStats) -> dict:
    data = {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "failures"
    }
    data["failures"] = [_failure_to_dict(f) for f in stats.failures]
    return data


def _stats_from_dict(data: dict) -> SweepStats:
    fields_ = dict(data)
    fields_["failures"] = [_failure_from_dict(f) for f in fields_["failures"]]
    return SweepStats(**fields_)


def _check_document(data: dict, kind: str) -> None:
    """Reject documents this reader cannot faithfully interpret."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema_version {version!r}; this reader "
            f"supports version {SCHEMA_VERSION}"
        )
    found = data.get("kind")
    if found != kind:
        raise ValueError(
            f"wrong report kind {found!r}; expected {kind!r} "
            "(run reports and sweep reports are distinct documents)"
        )


@dataclass
class RunReport:
    """Everything one simulated run produced, in one object.

    ``spec`` is the frozen description of the point, ``record`` the flat
    measurements (quality, loss, overhead ratios), ``result`` the raw
    machine outcome (per-thread counters, outputs, metrics registry).
    Reports deserialized with :meth:`from_json` carry ``result=None`` and
    an :class:`AppInfo` stand-in for ``app`` — the raw machine outcome
    and the compiled program are in-memory objects, not part of the
    serialized document.
    """

    spec: RunSpec
    record: RunRecord
    result: RunResult | None = None
    app: BenchmarkApp | AppInfo = AppInfo(name="?")
    #: Where the JSONL trace was written, when the trace was a path.
    trace_path: Path | None = None
    #: Collected events, when the trace was ``True`` (in-memory tracing).
    events: "list[TraceEvent] | None" = field(default=None, repr=False)
    #: The :class:`~repro.observability.ProfileSession` the run filled in,
    #: when one was passed as ``profile=``.  In-memory only, like
    #: ``result`` and ``events`` — never part of the serialized document.
    profile: ProfileSession | None = field(default=None, repr=False)

    # -- convenience views ---------------------------------------------------

    @property
    def quality_db(self) -> float:
        """Run quality vs the app's reference (SNR or PSNR, dB)."""
        return self.record.quality_db

    @property
    def data_loss_ratio(self) -> float:
        return self.record.data_loss_ratio

    @property
    def hung(self) -> bool:
        return self.record.hung

    def baseline_quality_db(self) -> float:
        """Error-free quality of the app (computed lazily; cached on the
        app, so repeated reports for one app pay it once)."""
        return self.app.baseline_quality()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe document of this report (spec + record + app identity).

        The raw :class:`~repro.machine.runstats.RunResult`, collected
        trace events and the compiled app are in-memory objects and are
        not serialized; everything else round-trips losslessly through
        :meth:`from_dict`.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_report",
            "app": {"name": self.app.name, "metric": self.app.metric},
            "spec": spec_to_dict(self.spec),
            "record": record_to_dict(self.record),
            "trace_path": str(self.trace_path) if self.trace_path else None,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        _check_document(data, "run_report")
        trace_path = data.get("trace_path")
        return cls(
            spec=spec_from_dict(data["spec"]),
            record=record_from_dict(data["record"]),
            result=None,
            app=AppInfo(**data["app"]),
            trace_path=Path(trace_path) if trace_path else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json` (see :meth:`to_dict` for what is
        carried; rejects unknown ``schema_version`` values)."""
        return cls.from_dict(json.loads(text))


#: Per-scale runner cache: amortizes app builds (codec encoding, graph
#: construction) across repeated :func:`run` calls in one process.
_RUNNERS: dict[float, SimulationRunner] = {}


def _runner_for(scale: float) -> SimulationRunner:
    if scale not in _RUNNERS:
        _RUNNERS[scale] = SimulationRunner(scale=scale)
    return _RUNNERS[scale]


def _runner_holding(
    app: str | BenchmarkApp, scale: float
) -> tuple[SimulationRunner, BenchmarkApp]:
    """The runner that simulates *app*, and the app it simulates.

    A registry name shares the per-scale runner, which builds each name
    once and keeps that build.  A prebuilt app gets a runner of its own,
    so the app handed is the app simulated, even when the shared runner
    holds another app of the same name.
    """
    if isinstance(app, BenchmarkApp):
        runner = SimulationRunner(scale=scale)
        return runner, runner.adopt_app(app)
    _check_app_name(app)
    runner = _runner_for(scale)
    return runner, runner.app(app)


def run(
    app: str | BenchmarkApp,
    protection: ProtectionLevel | str = ProtectionLevel.COMMGUARD,
    *,
    mtbe: float | str | None = None,
    seed: int = 0,
    config: CommGuardConfig | None = None,
    frame_scale: int = 1,
    error_model: ErrorModel | None = None,
    fault_model: FaultModelSpec | str | None = None,
    options: EngineOptions | None = None,
    profile: ProfileSession | None = None,
) -> RunReport:
    """Run one benchmark once and return a :class:`RunReport`.

    ``config`` supplies the CommGuard design knobs (``frame_scale`` is a
    shorthand used only when ``config`` is omitted); ``error_model``
    overrides the calibrated masking/effect mix and supplies the MTBE
    (an explicit *mtbe* must agree with ``error_model.mtbe``).  The
    override becomes the spec's ``mtbe`` and ``p_*`` fields, so it keys
    the store like any other point.  ``fault_model`` selects the error
    process from the registry in :mod:`repro.machine.faults` — a name or
    ``name:param=val,...`` spec string (default ``bit_flip``, which is
    bit-identical to the pre-registry injector).  See the module
    docstring for the accepted *app*, *protection* and trace spellings.

    Engine knobs come through *options*, the same
    :class:`~repro.experiments.EngineOptions` every entry point shares:
    ``options.scale`` is the app-build input scale and ``options.trace``
    the trace destination (anything
    :func:`~repro.observability.coerce_tracer` understands).

    ``options.store`` points the run at a
    :class:`~repro.experiments.store.RunStore`: an untraced run whose
    point is already in the store returns the stored record without
    simulating — such a report carries ``result=None``, exactly like a
    deserialized one — and an executed run is persisted to the store
    with provenance.  Only a named store is used: ``options.cache``
    does not select the default one here, so a plain ``run()`` always
    simulates and returns its raw result.  A store opened from a path is
    closed before this returns; a
    :class:`~repro.experiments.store.RunStore` handed in stays open.  A
    prebuilt *app* bypasses the store, as :func:`sweep` does: the store
    keys a point by the registry app of its name, which is not the app
    handed.

    ``profile`` takes a :class:`~repro.observability.ProfileSession`: the
    run records its simulated-time timeline into ``profile.sim`` and its
    engine wall-clock spans into ``profile.engine`` (see
    :mod:`repro.observability.profile`).  A profiled run always executes
    — it never returns a store hit, which would have no timeline — but
    its measurements are bit-identical to an unprofiled run of the same
    spec, so storing/caching them stays sound.
    """
    opts = options or EngineOptions()
    scale = opts.scale if opts.scale is not None else 1.0
    trace = opts.trace
    runner, bench = _runner_holding(app, scale)
    level = (
        protection
        if isinstance(protection, ProtectionLevel)
        else ProtectionLevel.parse(protection)
    )
    if config is None:
        config = CommGuardConfig(frame_scale=frame_scale)
    elif frame_scale != 1 and config.frame_scale != frame_scale:
        raise ValueError(
            f"conflicting frame scales: config.frame_scale={config.frame_scale} "
            f"vs frame_scale={frame_scale}"
        )
    rate = parse_mtbe(mtbe)
    mix = {}
    if error_model is not None:
        if rate is not None and rate != error_model.mtbe:
            raise ValueError(
                f"conflicting MTBEs: error_model.mtbe={error_model.mtbe} "
                f"vs mtbe={mtbe!r}"
            )
        rate = error_model.mtbe
        mix = {
            name: getattr(error_model, name)
            for name in ("p_masked", "p_data", "p_control", "p_address")
        }
    error_free = level is ProtectionLevel.ERROR_FREE
    fault = FaultModelSpec.coerce(fault_model)
    tracer, owned = coerce_tracer(trace)

    spec = RunSpec(
        app=bench.name,
        protection=level,
        mtbe=None if error_free else rate,
        seed=seed,
        frame_scale=config.frame_scale,
        workset_units=config.workset_units,
        pad_word=config.pad_word,
        **({} if error_free else mix),
        fault_model=fault.canonical(),
    )
    store = None if isinstance(app, BenchmarkApp) else RunStore.coerce(opts.store)
    try:
        key = spec.content_key(scale) if store is not None else None
        # A store hit has no trace and no timeline: traced and profiled runs
        # always execute.
        if store is not None and trace is None and profile is None:
            cached = store.load(key)
            if cached is not None:
                return RunReport(
                    spec=spec,
                    record=cached,
                    result=None,
                    app=bench,
                )
        engine = profile.engine if profile is not None else None
        try:
            with engine_span(
                engine, "run", app=bench.name, protection=level.value, seed=seed
            ):
                record, result = runner.run_spec(
                    spec,
                    tracer=tracer,
                    profiler=profile.sim if profile is not None else None,
                )
        finally:
            if owned is not None:
                owned.close()
        if store is not None:
            store.store(key, spec, scale, record, provenance={"entry": "api.run"})
    finally:
        if store is not None and store is not opts.store:
            store.close()
    return RunReport(
        spec=spec,
        record=record,
        result=result,
        app=bench,
        trace_path=owned.path if isinstance(owned, JsonlTracer) else None,
        events=list(tracer.events) if isinstance(tracer, InMemoryTracer) else None,
        profile=profile,
    )


# -- grid sweeps ---------------------------------------------------------------


@dataclass
class SweepPoint:
    """One grid point of a sweep: the frozen spec, its flat record, and —
    when the sweep ran with ``collect_results=True`` — the raw
    :class:`~repro.machine.runstats.RunResult` (outputs, metrics).

    Under keep-going mode (``EngineOptions.keep_going=True``) a point
    whose runs exhausted their retry budget carries ``record=None`` and
    the engine's :class:`~repro.experiments.parallel.FailureRecord` in
    ``failure``; strict sweeps (the default) never produce such points.
    """

    spec: RunSpec
    record: RunRecord | None
    result: RunResult | None = None
    failure: FailureRecord | None = None

    @property
    def ok(self) -> bool:
        """Whether this point completed (``False`` = failed, keep-going)."""
        return self.record is not None

    @property
    def quality_db(self) -> float:
        if self.record is None:
            raise ValueError(
                f"sweep point failed, no measurements: {self.failure.summary()}"
            )
        return self.record.quality_db


@dataclass
class SweepReport:
    """Every point of one :func:`sweep`, in grid order.

    Grid order is ``protection``-major, then ``mtbe``, then ``seed``.
    ``stats`` carries the engine's
    :class:`~repro.experiments.parallel.SweepStats` (wall/CPU seconds,
    cache hits, failure/retry counts) when the parallel engine executed
    the sweep.  Keep-going sweeps may contain failed points:
    ``failures`` lists them, and every aggregation view (``select``,
    ``records``, the stats methods) covers completed points only.
    """

    app: BenchmarkApp | AppInfo
    points: list[SweepPoint]
    options: EngineOptions
    stats: SweepStats | None = None

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def records(self) -> list[RunRecord]:
        """Records of the completed points (failed points are skipped)."""
        return [point.record for point in self.points if point.record is not None]

    @property
    def failures(self) -> list[FailureRecord]:
        """Failure records of the points that exhausted their retries."""
        return [point.failure for point in self.points if point.failure is not None]

    @property
    def protections(self) -> tuple[ProtectionLevel, ...]:
        """Protection levels present, in grid order."""
        return tuple(dict.fromkeys(p.spec.protection for p in self.points))

    @property
    def mtbes(self) -> tuple[float | None, ...]:
        """MTBE values present, in grid order (``None`` = error-free)."""
        return tuple(dict.fromkeys(p.spec.mtbe for p in self.points))

    def select(
        self,
        protection: ProtectionLevel | str | None = None,
        mtbe: float | str | None = None,
        seed: int | None = None,
    ) -> list[SweepPoint]:
        """Completed points matching every given axis value (``None`` =
        any); failed keep-going points carry no measurements and are
        excluded (see :attr:`failures`)."""
        level = None
        if protection is not None:
            level = (
                protection
                if isinstance(protection, ProtectionLevel)
                else ProtectionLevel.parse(protection)
            )
        rate = parse_mtbe(mtbe) if mtbe is not None else None
        return [
            point
            for point in self.points
            if point.record is not None
            and (level is None or point.spec.protection is level)
            and (rate is None or point.spec.mtbe == rate)
            and (seed is None or point.spec.seed == seed)
        ]

    def mean_quality_db(
        self,
        protection: ProtectionLevel | str | None = None,
        mtbe: float | str | None = None,
        cap: float = QUALITY_CAP_DB,
    ) -> float:
        """Mean quality over the matching points, each clamped into
        ``[-cap, cap]`` (runs that reproduce the error-free output have
        infinite SNR; garbled runs can report ``-inf``/NaN)."""
        points = self.select(protection=protection, mtbe=mtbe)
        if not points:
            raise ValueError("no sweep points match the given axes")
        return sum(clamp_db(p.quality_db, cap) for p in points) / len(points)

    def quality_stats(
        self,
        protection: ProtectionLevel | str | None = None,
        mtbe: float | str | None = None,
        cap: float = QUALITY_CAP_DB,
        confidence: float = 0.95,
    ) -> CellStats:
        """Multi-seed quality summary of the matching cell.

        Mean, population stdev and a deterministic bootstrap CI over the
        per-seed quality measurements, each first clamped into
        ``[-cap, cap]`` so infinite/NaN SNRs contribute the cap/floor
        instead of poisoning the arithmetic.  With one matching point the
        CI degenerates to the point.
        """
        points = self.select(protection=protection, mtbe=mtbe)
        if not points:
            raise ValueError("no sweep points match the given axes")
        return summarize(
            [p.quality_db for p in points], cap=cap, confidence=confidence
        )

    def loss_stats(
        self,
        protection: ProtectionLevel | str | None = None,
        mtbe: float | str | None = None,
        confidence: float = 0.95,
    ) -> CellStats:
        """Multi-seed data-loss summary (mean/stdev/bootstrap CI of the
        matching points' ``data_loss_ratio``)."""
        points = self.select(protection=protection, mtbe=mtbe)
        if not points:
            raise ValueError("no sweep points match the given axes")
        return summarize(
            [p.record.data_loss_ratio for p in points], confidence=confidence
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe document of this sweep: every point's spec and record
        (or failure), the engine options, and the engine stats.

        Raw :class:`~repro.machine.runstats.RunResult` objects
        (``collect_results=True`` sweeps) and the compiled app are
        in-memory only; everything a report aggregates — records,
        failures, stats — round-trips losslessly through
        :meth:`from_dict`.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep_report",
            "app": {"name": self.app.name, "metric": self.app.metric},
            "options": self.options.to_dict(),
            "points": [
                {
                    "spec": spec_to_dict(point.spec),
                    "record": (
                        record_to_dict(point.record)
                        if point.record is not None
                        else None
                    ),
                    "failure": (
                        _failure_to_dict(point.failure)
                        if point.failure is not None
                        else None
                    ),
                }
                for point in self.points
            ],
            "stats": _stats_to_dict(self.stats) if self.stats is not None else None,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        _check_document(data, "sweep_report")
        points = [
            SweepPoint(
                spec=spec_from_dict(entry["spec"]),
                record=(
                    record_from_dict(entry["record"])
                    if entry.get("record") is not None
                    else None
                ),
                failure=(
                    _failure_from_dict(entry["failure"])
                    if entry.get("failure") is not None
                    else None
                ),
            )
            for entry in data["points"]
        ]
        stats = data.get("stats")
        return cls(
            app=AppInfo(**data["app"]),
            points=points,
            options=EngineOptions.from_dict(data["options"]),
            stats=_stats_from_dict(stats) if stats is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Inverse of :meth:`to_json`: rebuilds every point (records,
        failures) and the engine stats; the app comes back as an
        :class:`AppInfo` stand-in.  Rejects documents whose
        ``schema_version`` this reader does not support."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_records(
        cls,
        app: BenchmarkApp | AppInfo,
        specs: Sequence[RunSpec],
        records: Sequence[RunRecord | None],
        stats: SweepStats,
        options: EngineOptions,
    ) -> "SweepReport":
        """The report of one engine pass: *records* (``None`` for a failed
        keep-going point) in *specs* order, with the engine's *stats*."""
        failures = {failure.index: failure for failure in stats.failures}
        points = [
            SweepPoint(spec=spec, record=record, failure=failures.get(index))
            for index, (spec, record) in enumerate(zip(specs, records))
        ]
        return cls(app=app, points=points, options=options, stats=stats)

    @classmethod
    def from_store(
        cls, store: "RunStore | str | Path", campaign: str
    ) -> "SweepReport":
        """Rebuild a campaign's report straight from a :class:`RunStore`.

        Points come back in the campaign's frozen grid order: completed
        positions carry their stored record, positions whose latest word
        is a failure row carry that
        :class:`~repro.experiments.parallel.FailureRecord`, and
        still-pending positions carry neither.  ``options`` are the ones
        the campaign *began* with and ``stats`` is ``None`` (execution
        timing is not part of what was computed), so the document is
        deterministic: a store-resumed campaign and an uninterrupted one
        serialize byte-identically.  A *store* given as a path is closed
        before this returns; a :class:`RunStore` handed in stays open.
        """
        opened = RunStore.coerce(store)
        try:
            status = opened.campaign(campaign)
            records = opened.load_many(status.keys)
            failures = opened.failures_for(
                key for key in status.keys if key not in records
            )
        finally:
            if opened is not store:
                opened.close()
        points = []
        for position, (spec, key) in enumerate(zip(status.specs, status.keys)):
            record = records.get(key)
            failure = None if record is not None else failures.get(key)
            if failure is not None:
                failure = dataclasses.replace(failure, index=position)
            points.append(SweepPoint(spec=spec, record=record, failure=failure))
        return cls(
            app=AppInfo(name=status.app, metric=status.metric),
            points=points,
            options=EngineOptions.from_dict(status.options),
            stats=None,
        )


def _parse_protection_axis(
    protections: ProtectionLevel | str | Iterable[ProtectionLevel | str],
) -> tuple[ProtectionLevel, ...]:
    if isinstance(protections, (str, ProtectionLevel)):
        protections = [protections]
    levels: list[ProtectionLevel] = []
    for item in protections:
        level = item if isinstance(item, ProtectionLevel) else ProtectionLevel.parse(item)
        if level not in levels:
            levels.append(level)
    if not levels:
        raise ValueError("sweep needs at least one protection level")
    return tuple(levels)


def _parse_mtbe_axis(
    mtbes: float | str | None | Iterable[float | str | None],
) -> tuple[float | None, ...]:
    if mtbes is None or isinstance(mtbes, (str, int, float)):
        mtbes = [mtbes]
    values = tuple(parse_mtbe(item) for item in mtbes)
    if not values:
        raise ValueError("sweep needs at least one MTBE value (None = error-free)")
    return values


def _parse_seed_axis(seeds: int | Iterable[int]) -> tuple[int, ...]:
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("sweep needs at least one seed")
        return tuple(range(seeds))
    values = tuple(seeds)
    if not values:
        raise ValueError("sweep needs at least one seed")
    return values


def sweep_grid(
    app: str,
    protections: ProtectionLevel | str | Iterable[ProtectionLevel | str],
    mtbes: float | str | None | Iterable[float | str | None],
    seeds: int | Iterable[int],
    *,
    frame_scale: int = 1,
    fault_model: FaultModelSpec | str | None = None,
) -> list[RunSpec]:
    """The specs of a ``protections x mtbes x seeds`` grid of *app*, in
    grid order (``protection``-major, then ``mtbe``, then ``seed``).

    :func:`sweep` and ``repro sweep`` both run this grid; see
    :func:`sweep` for the accepted axis spellings.  ``ERROR_FREE``
    contributes one point (``mtbe=None``, first seed, default fault
    model) however wide the error axes are.
    """
    levels = _parse_protection_axis(protections)
    rates = _parse_mtbe_axis(mtbes)
    seed_values = _parse_seed_axis(seeds)
    fault = FaultModelSpec.coerce(fault_model).canonical()
    specs: list[RunSpec] = []
    for level in levels:
        error_free = level is ProtectionLevel.ERROR_FREE
        for rate in (None,) if error_free else rates:
            for seed in seed_values[:1] if error_free else seed_values:
                specs.append(
                    RunSpec(
                        app=app,
                        protection=level,
                        mtbe=rate,
                        seed=seed,
                        frame_scale=frame_scale,
                        fault_model=(
                            DEFAULT_FAULT_MODEL if rate is None else fault
                        ),
                    )
                )
    return specs


def sweep(
    app: str | BenchmarkApp,
    protections: ProtectionLevel | str | Iterable[ProtectionLevel | str] = (
        ProtectionLevel.COMMGUARD
    ),
    *,
    mtbes: float | str | None | Iterable[float | str | None] = None,
    seeds: int | Iterable[int] = 1,
    frame_scale: int = 1,
    fault_model: FaultModelSpec | str | None = None,
    options: EngineOptions | None = None,
    profile: ProfileSession | None = None,
    collect_results: bool = False,
    campaign: str | None = None,
) -> SweepReport:
    """Run one app over a ``protections x mtbes x seeds`` grid.

    Each axis accepts a single value or an iterable (``seeds`` may be an
    int *n*, meaning seeds ``0..n-1``); every spelling :func:`run` accepts
    works here too.  ``ERROR_FREE`` ignores the error axes, so it
    contributes exactly one point (``mtbe=None``, first seed) no matter
    how wide they are.  ``fault_model`` selects the injected error
    process (see :mod:`repro.machine.faults`); it applies only to
    error-injecting points, so the error-free reference point is shared
    (and cache-shared) across fault models.

    *options* is the shared :class:`~repro.experiments.EngineOptions` the
    CLI uses: the sweep executes on the parallel
    engine with its ``jobs``/``trace_dir`` behaviour, and
    ``options.scale`` is the app-build input scale.  The fault-tolerance
    knobs (``retries``, ``run_timeout``, ``keep_going``) flow through
    too: a failed attempt is retried at once, a strict sweep (default)
    raises :class:`~repro.experiments.parallel.SweepRunError` when a
    point exhausts its retries, a keep-going sweep completes the rest of
    the grid and reports the failed points on :attr:`SweepReport.failures`.
    The in-process path honours ``keep_going`` (failed points are
    recorded, the rest of the grid completes) but — running each point
    inline, with no worker to preempt or respawn — not ``retries`` or
    ``run_timeout``.

    ``collect_results=True`` keeps every point's raw
    :class:`~repro.machine.runstats.RunResult` (needed e.g. to decode
    output signals); those runs execute serially in-process and bypass
    the result store, which holds flat records only.  A prebuilt *app*
    forces the same path: worker processes and the store only know how
    to rebuild registry apps by name.

    ``profile`` takes a :class:`~repro.observability.ProfileSession`;
    the sweep records its engine wall-clock spans (the ``sweep`` root,
    cache scans, per-run wall seconds, worker pool lifecycle) into
    ``profile.engine``.  Simulated-time timelines are a per-run
    artifact — use :func:`run` with ``profile=`` for those.  Wall time
    is a nondeterministic side channel: it never enters cache keys,
    trace bytes, stored records, or report documents.

    Completed points are looked up in and written to the store
    :meth:`~repro.experiments.EngineOptions.batch_store` picks: the
    default store unless ``options.cache`` is false, or the one
    ``options.store`` names.  A named store also turns the sweep into a
    resumable **campaign**: the grid is registered under *campaign* (or
    a deterministic id derived from the specs when ``campaign=None``),
    completed points become store hits on a rerun, and
    :meth:`SweepReport.from_store` rebuilds the byte-exact report later.
    A store this call opens (from a path or the default) is closed before
    it returns; a :class:`~repro.experiments.store.RunStore` handed in
    stays open.  The in-process path (``collect_results=True`` or a
    prebuilt app) ignores the store — raw results are not persistable.
    """
    options = options or EngineOptions()
    scale = options.scale if options.scale is not None else 1.0
    in_process = collect_results or isinstance(app, BenchmarkApp)
    if in_process:
        runner, bench = _runner_holding(app, scale)
    else:
        # The engine's workers build the app; this process only needs its
        # name and metric.
        bench = AppInfo.of(app)
    specs = sweep_grid(
        bench.name,
        protections,
        mtbes,
        seeds,
        frame_scale=frame_scale,
        fault_model=fault_model,
    )

    engine = profile.engine if profile is not None else None
    if in_process:
        with engine_span(
            engine, "sweep", app=bench.name, points=len(specs), mode="in-process"
        ):
            points = _sweep_in_process(
                runner, specs, scale, options, collect_results
            )
        return SweepReport(app=bench, points=points, options=options)

    keys = [spec.content_key(scale) for spec in specs]
    runner = build_engine(
        options,
        scale,
        specs,
        keys=keys,
        campaign=campaign,
        app=bench.name,
        metric=bench.metric,
        profiler=engine,
    )
    try:
        with engine_span(
            engine, "sweep", app=bench.name, points=len(specs), jobs=options.jobs
        ):
            records = runner.run_specs(specs, keys)
    finally:
        if runner.store is not None and runner.store is not options.store:
            runner.store.close()
    return SweepReport.from_records(
        bench, specs, records, runner.last_stats, options
    )


def reproduce(
    scale: str = "reduced",
    *,
    store: object = True,
    out: str | Path | None = None,
    options: EngineOptions | None = None,
    progress=None,
):
    """Run the whole-paper reproduction pipeline and grade it.

    The one-call form of ``repro paper``: executes every registered
    :class:`~repro.experiments.fidelity.PaperTarget` at the *scale* tier
    (``"smoke"`` / ``"reduced"`` / ``"full"``) through the store-backed
    engine and returns the :class:`~repro.experiments.paper.PaperRun`
    (``.report`` is the graded :class:`ReproductionReport`).  With *out*
    set, the artifact bundle (``REPRODUCTION.md``, ``reproduction.json``,
    per-figure data) is written under that directory.

    *store* follows the usual spellings (``True`` = the default store
    path; a path string selects a file) — the pipeline always records a
    resumable campaign, so an interrupted call picks up where it stopped.
    A store opened from a path is closed before the call returns; a
    ``RunStore`` passed in stays open.
    *options* carries the remaining engine knobs; its ``store`` field is
    overridden by the *store* argument.
    """
    from repro.experiments.paper import run_paper, write_bundle

    opts = replace(options or EngineOptions(), store=store)
    paper_run = run_paper(scale, options=opts, progress=progress)
    if out is not None:
        write_bundle(paper_run, out)
    return paper_run


def _sweep_in_process(
    runner: SimulationRunner,
    specs: Sequence[RunSpec],
    scale: float,
    options: EngineOptions,
    collect_results: bool,
) -> list[SweepPoint]:
    """Serial sweep through *runner* (the one :func:`run` would use for the
    app), keeping each raw result when asked.  ``trace_dir`` still
    ships one JSONL trace per run, named by content key as the parallel
    engine does.  Error-free points run first, as in the engine, so the
    runs after them score against their output."""
    points: list[SweepPoint | None] = [None] * len(specs)
    order = sorted(range(len(specs)), key=lambda i: error_free_first(specs[i]))
    for index in order:
        spec = specs[index]
        trace = None
        if options.trace_dir is not None:
            trace = Path(options.trace_dir) / f"{spec.content_key(scale)}.jsonl"
        try:
            record, result = runner.run_spec(spec, tracer=trace)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if not options.keep_going:
                raise
            points[index] = SweepPoint(
                spec=spec,
                record=None,
                failure=FailureRecord(
                    index=index,
                    spec=spec,
                    failure="exception",
                    message=f"{type(exc).__name__}: {exc}",
                    attempts=1,
                ),
            )
            continue
        points[index] = SweepPoint(
            spec=spec,
            record=record,
            result=result if collect_results else None,
        )
    return points
