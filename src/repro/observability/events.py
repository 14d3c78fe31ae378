"""The typed trace-event taxonomy.

Each event class records one observable act of the simulated machine or of
the experiment engine driving it.  Events are plain frozen dataclasses with
a stable ``kind`` tag; :meth:`TraceEvent.to_dict` produces the flat JSON
object the :class:`~repro.observability.tracer.JsonlTracer` writes, and
:func:`event_from_dict` inverts it.

Counting contracts (relied on by tests and ``repro trace summary``):

* ``ErrorInjected`` events per run == ``RunResult.errors_injected``
  (masked flips included, flagged ``masked=True``).
* ``AlignmentAction`` events with ``action="pad"`` == ``CommGuardStats.pads``;
  ``action="discard-item"`` == ``discarded_items``;
  ``action="discard-header"`` == ``discarded_headers``.
* ``QMTimeout`` events == ``CommGuardStats.timeouts``.
* ``ForcedUnblock`` events == ``RunResult.forced_unblocks``.
* ``HeaderInserted`` events == ``CommGuardStats.header_stores``.
* The last ``SweepProgress`` event of a sweep mirrors its final
  ``SweepStats``: ``completed``/``total``/``executed``/``cache_hits``/
  ``failures`` equal ``SweepStats.completed``/``total``/``executed``/
  ``cache_hits``/``failed``.

Adding an event: subclass :class:`TraceEvent`, give it a unique ``kind``
class attribute, register it in :data:`EVENT_KINDS`, emit it behind an
``if tracer is not None`` guard, and document it in OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: every concrete event carries a stable ``kind`` tag."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        data.update(asdict(self))
        return data


@dataclass(frozen=True, slots=True)
class ErrorInjected(TraceEvent):
    """One register-file flip drawn by a core's error injector.

    ``effect`` is the architectural-effect class (``data`` / ``control`` /
    ``address``) or ``None`` when the flip was architecturally masked.
    ``model`` is the fault-model identity from the registry in
    :mod:`repro.machine.faults` (``"burst"``, ``"sticky"``, ...); it is
    ``None`` — and omitted from the JSON encoding — for the default
    ``bit_flip`` model, so default-model traces stay byte-identical to
    traces written before the registry existed.
    """

    kind: ClassVar[str] = "error-injected"

    core: int
    at_instruction: int
    effect: str | None
    masked: bool
    model: str | None = None

    def to_dict(self) -> dict:
        # Explicit base call: zero-arg super() is unusable in a
        # slots=True dataclass (the decorator rebuilds the class).
        data = TraceEvent.to_dict(self)
        if data["model"] is None:
            del data["model"]  # legacy encoding for the default model
        return data


@dataclass(frozen=True, slots=True)
class HeaderInserted(TraceEvent):
    """The Header Inserter pushed one frame header into a queue."""

    kind: ClassVar[str] = "header-inserted"

    thread: str
    qid: int
    frame_id: int
    eoc: bool


@dataclass(frozen=True, slots=True)
class AlignmentAction(TraceEvent):
    """The Alignment Manager padded or discarded to realign a queue.

    ``action`` is ``"pad"``, ``"discard-item"`` or ``"discard-header"``;
    ``reason`` is a human-readable cause (future header, stale header,
    uncorrectable ECC, producer EOC, ...).
    """

    kind: ClassVar[str] = "alignment-action"

    thread: str
    qid: int
    action: str
    active_fc: int
    reason: str = ""


@dataclass(frozen=True, slots=True)
class QMTimeout(TraceEvent):
    """A blocked queue operation of a thread timed out (Section 5.1)."""

    kind: ClassVar[str] = "qm-timeout"

    thread: str


@dataclass(frozen=True, slots=True)
class ForcedUnblock(TraceEvent):
    """The run loop armed the QM timeout for one still-blocked thread."""

    kind: ClassVar[str] = "forced-unblock"

    thread: str
    sweep: int


@dataclass(frozen=True, slots=True)
class QueueHighWater(TraceEvent):
    """A queue's occupancy first crossed a capacity watermark."""

    kind: ClassVar[str] = "queue-high-water"

    qid: int
    units: int
    capacity: int
    watermark: float


@dataclass(frozen=True, slots=True)
class SweepProgress(TraceEvent):
    """The parallel sweep engine completed one more run of a sweep.

    ``failures`` counts the sweep points that have exhausted their retry
    budget so far (``SweepStats.failed``) — under keep-going mode a
    trace alone shows whether a sweep is limping, without the report.
    """

    kind: ClassVar[str] = "sweep-progress"

    completed: int
    total: int
    executed: int
    cache_hits: int
    failures: int = 0


@dataclass(frozen=True, slots=True)
class RunRetried(TraceEvent):
    """One sweep point failed an attempt and was requeued.

    ``failure`` is the attempt's failure kind (``"exception"`` /
    ``"timeout"`` / ``"crash"``); ``attempt`` is the 1-based number of the
    retry, which goes back to its queue at once.
    """

    kind: ClassVar[str] = "run-retried"

    app: str
    seed: int
    failure: str
    attempt: int


@dataclass(frozen=True, slots=True)
class RunFailed(TraceEvent):
    """One sweep point exhausted its retry budget and became a failure.

    Mirrors the :class:`~repro.experiments.parallel.FailureRecord` the
    engine files: under keep-going mode the sweep continues past it, under
    strict mode this is the last event before ``SweepRunError``.
    """

    kind: ClassVar[str] = "run-failed"

    app: str
    seed: int
    failure: str
    message: str
    attempts: int


@dataclass(frozen=True, slots=True)
class WorkerCrashed(TraceEvent):
    """A sweep worker process died, breaking its pool.

    ``lost`` counts the in-flight specs whose results died with the pool;
    ``requeued`` counts how many were quarantined for isolated re-runs
    (0 when the crash broke the quarantine's one-worker pool, whose lone
    spec is charged the crash).
    """

    kind: ClassVar[str] = "worker-crashed"

    lost: int
    requeued: int


#: kind tag -> event class, for deserialization and the CLI summary.
EVENT_KINDS: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        ErrorInjected,
        HeaderInserted,
        AlignmentAction,
        QMTimeout,
        ForcedUnblock,
        QueueHighWater,
        SweepProgress,
        RunRetried,
        RunFailed,
        WorkerCrashed,
    )
}


def event_from_dict(data: dict) -> TraceEvent:
    """Rebuild a typed event from its :meth:`TraceEvent.to_dict` form.

    Unknown kinds and extra keys (e.g. the tracer's ``seq``) are tolerated:
    unknown kinds raise ``ValueError`` listing the known taxonomy, extra
    keys are dropped.
    """
    kind = data.get("kind")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown trace event kind {kind!r}; known: {sorted(EVENT_KINDS)}"
        )
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})
