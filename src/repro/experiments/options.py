"""Engine options shared by every execution entry point.

:func:`repro.api.run`, :func:`repro.api.sweep`,
:func:`repro.api.reproduce` / :func:`~repro.experiments.paper.run_paper`
and the CLI (``repro run`` / ``repro sweep`` / ``repro figure`` /
``repro paper``) all accept the same knobs through this dataclass — the
single documented spelling of "how should the engine execute this", so
a paper run and an API sweep configured the same way build the same
:class:`~repro.experiments.parallel.ParallelRunner`, and a single
:func:`~repro.api.run` call reuses the very same option names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.store import RunStore


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

    ``exec_mode`` selects the simulation execution mode: ``"fast"`` (the
    quiet-span bulk path, the default) or ``"precise"`` (the per-word
    oracle).  The two are bit-identical by contract — same records, same
    cache keys, byte-identical traces — so this knob trades nothing but
    wall-clock time.

    The fault-tolerance knobs mirror
    :class:`~repro.experiments.parallel.ParallelRunner`: ``retries`` is
    the bounded per-spec retry budget, ``run_timeout`` the per-run
    wall-clock limit in seconds, ``retry_backoff`` the deterministic
    backoff base (attempt *n* waits ``retry_backoff * 2**n`` seconds — no
    jitter), and ``keep_going=True`` turns exhausted failures into
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
    exec_mode: str = "fast"
    retries: int = 0
    run_timeout: float | None = None
    retry_backoff: float = 0.0
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
