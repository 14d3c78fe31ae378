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

The shared parsing helpers (:func:`resolve_app`, :func:`parse_mtbe`) live
here too, so the CLI and the examples agree on accepted spellings and
error messages.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.apps.base import BenchmarkApp
from repro.apps.registry import APP_BUILDERS, build_app
from repro.core.config import CommGuardConfig
from repro.experiments.aggregate import CellStats, summarize
from repro.experiments.cache import (
    record_from_dict,
    record_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.options import EngineOptions
from repro.experiments.store import RunStore, derive_campaign_id
from repro.experiments.parallel import (
    FailureRecord,
    ParallelRunner,
    RunSpec,
    SweepStats,
)
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


def resolve_app(app: str | BenchmarkApp, scale: float = 1.0) -> BenchmarkApp:
    """Normalize an app argument: a registry name or a prebuilt app.

    Raises ``ValueError`` listing the valid names for unknown strings.
    """
    if isinstance(app, BenchmarkApp):
        return app
    if app not in APP_BUILDERS:
        raise ValueError(
            f"unknown app {app!r}; valid choices: {', '.join(sorted(APP_BUILDERS))}"
        )
    return build_app(app, scale=scale)


def parse_mtbe(text: str | float | int | None) -> float | None:
    """Parse an MTBE argument: plain numbers or ``k``/``M`` suffixes.

    ``"512k"`` -> 512000.0, ``"1M"`` -> 1000000.0, ``64000`` -> 64000.0;
    ``None`` passes through (error-free).  Raises ``ValueError`` for
    non-positive or unparsable values.
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
    if value <= 0:
        raise ValueError(
            f"MTBE must be positive, got {text!r}; use a positive number or "
            "k/M suffix (e.g. 512k, 1M, 64000), or None for error-free"
        )
    return value


#: Version tag written into every serialized report.  Bump when the JSON
#: shape changes incompatibly; readers reject documents from the future
#: with an error naming both versions.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AppInfo:
    """Lightweight app identity carried by deserialized reports.

    A serialized report stores only the app's name and quality metric —
    not its compiled program or reference signal — so a report loaded
    with :meth:`RunReport.from_json` / :meth:`SweepReport.from_json`
    carries this stand-in where a live :class:`BenchmarkApp` would be.
    Every aggregation view works; anything needing the actual program
    (e.g. :meth:`BenchmarkApp.baseline_quality`) requires rebuilding the
    app via :func:`resolve_app`.
    """

    name: str
    metric: str = "snr"

    def baseline_quality(self) -> float:
        raise ValueError(
            f"app {self.name!r} came from a deserialized report and has no "
            "compiled program; rebuild it with repro.api.resolve_app(name) "
            "to compute baseline quality"
        )


def _options_to_dict(options: EngineOptions) -> dict:
    """JSON-safe document of :class:`EngineOptions`.

    ``trace`` may hold a live tracer and ``store`` a live
    :class:`~repro.experiments.store.RunStore` — in-memory handles are
    normalized to their path (or dropped) so the document stays
    serializable and deterministic."""
    data = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(EngineOptions)
    }
    if data.get("trace") is not None and not isinstance(data["trace"], (str, bool)):
        data["trace"] = None
    store = data.get("store")
    if isinstance(store, RunStore):
        data["store"] = str(store.path)
    elif isinstance(store, Path):
        data["store"] = str(store)
    return data


def _options_from_dict(data: dict) -> EngineOptions:
    known = {f.name for f in dataclasses.fields(EngineOptions)}
    return EngineOptions(**{k: v for k, v in data.items() if k in known})


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
    overrides the calibrated masking/effect mix.  ``fault_model`` selects
    the error process from the registry in :mod:`repro.machine.faults` —
    a name or ``name:param=val,...`` spec string (default ``bit_flip``,
    which is bit-identical to the pre-registry injector).  See the module
    docstring for the accepted *app*, *protection* and trace spellings.

    Engine knobs come through *options*, the same
    :class:`~repro.experiments.EngineOptions` every entry point shares:
    ``options.scale`` is the app-build input scale, ``options.trace``
    the trace destination (anything
    :func:`~repro.observability.coerce_tracer` understands), and
    ``options.exec_mode`` the execution mode (``"fast"`` quiet-span
    bulk path vs the bit-identical ``"precise"`` per-word oracle).

    ``options.store`` points the run at a
    :class:`~repro.experiments.store.RunStore`: an untraced run whose
    point is already in the store returns the stored record without
    simulating — such a report carries ``result=None``, exactly like a
    deserialized one — and an executed run is persisted to the store
    with provenance.  Only a named store is used: ``options.cache``
    does not select the default one here, so a plain ``run()`` always
    simulates and returns its raw result.
    Runs with an ``error_model`` override never touch the store: the
    override is not part of the spec's content key, so neither a cached
    baseline record nor a store write would be faithful to it.

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
    bench = resolve_app(app, scale=scale)
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
    fault = FaultModelSpec.coerce(fault_model)
    tracer, owned = coerce_tracer(trace)

    spec = RunSpec(
        app=bench.name,
        protection=level,
        mtbe=None if level is ProtectionLevel.ERROR_FREE else rate,
        seed=seed,
        frame_scale=config.frame_scale,
        workset_units=config.workset_units,
        pad_word=config.pad_word,
        push_timeout=config.push_timeout,
        pop_timeout=config.pop_timeout,
        fault_model=fault.canonical(),
        trace=str(owned.path) if owned is not None and owned.path else None,
        exec_mode=opts.exec_mode,
    )
    runner = _runner_for(scale)
    runner.adopt_app(bench)
    store = RunStore.coerce(opts.store)
    # An error_model override is not part of RunSpec (and hence the
    # content key), so a store hit would return a baseline record that
    # ignores the override and a store write would poison the baseline
    # key — overridden runs bypass the store entirely, like traced ones.
    # Profiled runs skip the hit path too: a store hit has no timeline.
    if (
        store is not None
        and trace is None
        and error_model is None
        and profile is None
    ):
        cached = store.load(spec.content_key(scale))
        if cached is not None:
            return RunReport(
                spec=spec,
                record=cached,
                result=None,
                app=runner.app(bench.name),
            )
    engine = profile.engine if profile is not None else None
    try:
        with engine_span(
            engine, "run", app=bench.name, protection=level.name, seed=seed
        ):
            record, result = runner._execute(
                bench.name,
                level,
                mtbe=rate,
                seed=seed,
                commguard_config=config,
                error_model=error_model,
                tracer=tracer,
                fault_model=fault.canonical(),
                exec_mode=opts.exec_mode,
                profiler=profile.sim if profile is not None else None,
            )
    finally:
        if owned is not None:
            owned.close()
    if store is not None and error_model is None:
        store.store(
            spec.content_key(scale), spec, scale, record,
            provenance={"entry": "api.run"},
        )
    return RunReport(
        spec=spec,
        record=record,
        result=result,
        app=runner.app(bench.name),
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
            "options": _options_to_dict(self.options),
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
            options=_options_from_dict(data["options"]),
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
        serialize byte-identically.
        """
        store = RunStore.coerce(store)
        status = store.campaign(campaign)
        points = []
        for position, (spec, key) in enumerate(zip(status.specs, status.keys)):
            record = store.load(key)
            failure = None
            if record is None:
                failure = store.failure_for(key)
                if failure is not None:
                    failure = dataclasses.replace(failure, index=position)
            points.append(SweepPoint(spec=spec, record=record, failure=failure))
        return cls(
            app=AppInfo(name=status.app, metric=status.metric),
            points=points,
            options=_options_from_dict(status.options),
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
    knobs (``retries``, ``run_timeout``, ``retry_backoff``,
    ``keep_going``) flow through too: a strict sweep (default) raises
    :class:`~repro.experiments.parallel.SweepRunError` when a point
    exhausts its retries, a keep-going sweep completes the rest of the
    grid and reports the failed points on :attr:`SweepReport.failures`.
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
    The in-process path (``collect_results=True`` or a prebuilt app)
    ignores the store — raw results are not persistable.
    """
    options = options or EngineOptions()
    scale = options.scale if options.scale is not None else 1.0
    bench = resolve_app(app, scale=scale)
    levels = _parse_protection_axis(protections)
    rates = _parse_mtbe_axis(mtbes)
    seed_values = _parse_seed_axis(seeds)
    fault = FaultModelSpec.coerce(fault_model)

    specs: list[RunSpec] = []
    for level in levels:
        error_free = level is ProtectionLevel.ERROR_FREE
        for rate in (None,) if error_free else rates:
            for seed in seed_values[:1] if error_free else seed_values:
                specs.append(
                    RunSpec(
                        app=bench.name,
                        protection=level,
                        mtbe=rate,
                        seed=seed,
                        frame_scale=frame_scale,
                        fault_model=(
                            DEFAULT_FAULT_MODEL if error_free or rate is None
                            else fault.canonical()
                        ),
                        exec_mode=options.exec_mode,
                    )
                )

    engine = profile.engine if profile is not None else None
    in_process = collect_results or isinstance(app, BenchmarkApp)
    if in_process:
        with engine_span(
            engine, "sweep", app=bench.name, points=len(specs), mode="in-process"
        ):
            points = _sweep_in_process(
                bench, specs, scale, options, collect_results
            )
        return SweepReport(app=bench, points=points, options=options)

    store = options.batch_store()
    if store is not None and options.store is not None:  # a named store
        if campaign is None:
            campaign = derive_campaign_id(specs, scale)
        store.begin_campaign(
            campaign,
            specs,
            scale,
            app=bench.name,
            metric=bench.metric,
            options=_options_to_dict(options),
        )
    else:
        campaign = None
    runner = ParallelRunner(
        scale=scale,
        jobs=options.jobs,
        trace_dir=options.trace_dir,
        retries=options.retries,
        run_timeout=options.run_timeout,
        retry_backoff=options.retry_backoff,
        strict=not options.keep_going,
        profiler=engine,
        store=store,
        campaign=campaign,
    )
    with engine_span(
        engine, "sweep", app=bench.name, points=len(specs), jobs=options.jobs
    ):
        records = runner.run_specs(specs)
    failures = {f.index: f for f in runner.last_stats.failures}
    points = [
        SweepPoint(spec=s, record=r, failure=failures.get(i))
        for i, (s, r) in enumerate(zip(specs, records))
    ]
    return SweepReport(
        app=bench, points=points, options=options, stats=runner.last_stats
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
    bench: BenchmarkApp,
    specs: Sequence[RunSpec],
    scale: float,
    options: EngineOptions,
    collect_results: bool,
) -> list[SweepPoint]:
    """Serial sweep through the shared per-scale runner (same app cache as
    :func:`run`), keeping each raw result when asked.  ``trace_dir`` still
    ships one JSONL trace per run, named by content key as the parallel
    engine does."""
    runner = _runner_for(scale)
    runner.adopt_app(bench)
    points: list[SweepPoint] = []
    for index, spec in enumerate(specs):
        traced = spec
        if options.trace_dir is not None and spec.trace is None:
            key = spec.content_key(scale)
            traced = replace(
                spec, trace=str(Path(options.trace_dir) / f"{key}.jsonl")
            )
        try:
            record, result = runner.run_spec(traced)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if not options.keep_going:
                raise
            points.append(
                SweepPoint(
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
            )
            continue
        points.append(
            SweepPoint(
                spec=spec,
                record=record,
                result=result if collect_results else None,
            )
        )
    return points
