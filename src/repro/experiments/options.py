"""Engine options shared by every execution entry point.

:func:`repro.api.run`, :func:`repro.api.sweep`,
:func:`repro.api.reproduce` / :func:`~repro.experiments.paper.run_paper`
and the CLI (``repro run`` / ``repro sweep`` / ``repro figure`` /
``repro paper``) all accept the same knobs through this dataclass — the
single documented spelling of "how should the engine execute this", so
a paper run and an API sweep configured the same way build the same
:class:`~repro.experiments.parallel.ParallelRunner` (through
:func:`build_engine`, the one place options become an engine), and a
single :func:`~repro.api.run` call reuses the very same option names.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.store import RunStore, derive_campaign_id


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """How the engine executes a run or a batch of runs.

    ``scale`` shrinks app inputs (``None`` keeps each entry point's
    default; the paper pipeline's tier owns its scale);
    ``jobs`` is the worker-process count (``None`` defers to ``REPRO_JOBS``
    or the CPU count, ``1`` forces serial); ``cache`` toggles the default
    result store (see :meth:`batch_store`); ``trace_dir`` ships one JSONL
    trace per executed run, while ``trace`` is the trace destination for
    a one-run entry point (:func:`repro.api.run`) — anything
    :func:`~repro.observability.coerce_tracer` understands: a JSONL
    path, ``True`` for in-memory event collection, or a ready tracer.
    Batch entry points ignore ``trace`` in favour of ``trace_dir``.

    The fault-tolerance knobs mirror
    :class:`~repro.experiments.parallel.ParallelRunner`: ``retries`` is
    the bounded per-spec retry budget (a retry is re-dispatched at once),
    ``run_timeout`` the per-run wall-clock limit in seconds, and
    ``keep_going=True`` turns exhausted failures into
    structured :class:`~repro.experiments.parallel.FailureRecord`\\ s
    instead of raising on the first one (strict mode, the default).

    ``store`` names the :class:`~repro.experiments.store.RunStore` —
    the SQLite result cache: a database path, ``True`` for the default
    location (``.repro_store.sqlite`` / ``REPRO_STORE``), a ready
    :class:`~repro.experiments.store.RunStore`, or ``None`` (default) to
    leave the choice to ``cache``.  A named store is used even with
    ``cache=False``, and turns sweeps into resumable campaigns.
    """

    scale: float | None = None
    jobs: int | None = None
    cache: bool = True
    trace_dir: str | None = None
    trace: object | None = None
    retries: int = 0
    run_timeout: float | None = None
    keep_going: bool = False
    store: object | None = None

    def batch_store(self) -> RunStore | None:
        """The store a batch entry point (a sweep) uses.

        ``store`` when set; otherwise the default store when ``cache`` is
        true; otherwise none.  Only a named ``store`` records campaigns:
        the implicit default acts as a plain result cache.
        """
        if self.store is not None:
            return RunStore.coerce(self.store)
        return RunStore() if self.cache else None

    def to_dict(self) -> dict:
        """JSON-safe document of these options.

        ``trace`` may hold a live tracer and ``store`` a live
        :class:`~repro.experiments.store.RunStore` — in-memory handles are
        normalized to their path (or dropped) so the document stays
        serializable and deterministic."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if data["trace"] is not None and not isinstance(data["trace"], (str, bool)):
            data["trace"] = None
        store = data["store"]
        if isinstance(store, RunStore):
            data["store"] = str(store.path)
        elif isinstance(store, Path):
            data["store"] = str(store)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineOptions":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def build_engine(
    options: EngineOptions,
    scale: float,
    specs: Sequence[RunSpec] | None = None,
    *,
    keys: Sequence[str] | None = None,
    campaign: str | None = None,
    app: str | None = None,
    metric: str = "snr",
    progress=None,
    profiler=None,
) -> ParallelRunner:
    """The :class:`~repro.experiments.parallel.ParallelRunner` *options*
    spell, building apps at *scale*: every batch entry point's engine.

    The engine uses the store :meth:`EngineOptions.batch_store` picks.
    Given the grid's *specs* and a named ``options.store``, the grid is
    registered there first as a resumable campaign — *campaign*, or the
    id :func:`~repro.experiments.store.derive_campaign_id` derives from
    the grid — with *app*, *metric* and these options as its document.
    Registration is idempotent, so a rerun (or ``--resume``) of the grid
    lands in the same campaign.  *keys* are the specs' content keys at
    *scale*, when the caller holds them: pass the same list on to
    :meth:`~repro.experiments.parallel.ParallelRunner.run_specs`, so each
    spec is hashed once.  Without *specs* the caller owns the
    registration and *campaign* stamps the rows as given.  The engine's
    ``campaign`` attribute is the id in use (``None`` without a named
    store).  *progress* and *profiler* pass through to the engine.
    """
    store = options.batch_store()
    if store is None or options.store is None:
        campaign = None
    elif specs is not None:
        campaign = campaign or derive_campaign_id(specs, scale, keys)
        store.begin_campaign(
            campaign, specs, scale, app=app, metric=metric,
            options=options.to_dict(), keys=keys,
        )
    return ParallelRunner(
        scale=scale,
        jobs=options.jobs,
        progress=progress,
        trace_dir=options.trace_dir,
        retries=options.retries,
        run_timeout=options.run_timeout,
        strict=not options.keep_going,
        profiler=profiler,
        store=store,
        campaign=campaign,
    )
