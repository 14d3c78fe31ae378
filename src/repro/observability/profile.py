"""Deep profiling: simulated-time timelines and engine wall-clock spans.

Two recorders with very different contracts live here:

* :class:`SimProfiler` — a **simulated-time timeline recorder**.  Each
  :class:`~repro.machine.thread.NodeThread` owns a monotone per-thread
  clock in simulated cycles (``sim_now``) and, when a profiler is
  attached, reports what those cycles were spent on: ``fire`` segments
  (firings that saw at least one injector event), coalesced ``quiet``
  spans (event-free firings), ``blocked`` spins and frame-boundary
  ``stall`` segments.  Queues report an occupancy sample after every
  *successful* push/pop/corrupt.  Because per-thread clocks never
  observe cross-thread interleaving, and successful queue mutations
  happen in the same order under both exec modes and every worker count,
  the recorded timeline — and its canonical byte serialization,
  :meth:`SimProfiler.to_json_bytes` — is **deterministic**: byte-identical
  across ``--jobs``, across exec modes, and across repeat runs of the
  same seeded spec.

  Like tracing, profiling is strictly opt-in: every emission site is
  guarded by ``if profiler is not None``, and the quiet-span /
  bulk-transfer fast paths decline while a profiler is attached so that
  per-firing and per-operation granularity is preserved.  A run with
  ``profiler=None`` does no profiling work beyond the ``None`` checks
  and stays bit-identical to builds that predate the profiler.

* :class:`EngineProfiler` — a **wall-clock span profiler** for the sweep
  engine (sweep → point → attempt, store lookups, cache hits, worker
  lifetimes).  Wall time is explicitly a *nondeterministic side
  channel*: spans never enter cache keys, trace bytes, stored records,
  or report markdown.  They exist only to be exported
  (:mod:`repro.observability.export`) and looked at.

:class:`ProfileSession` bundles one of each for the ``profile=``
argument of :func:`repro.api.run` / :func:`repro.api.sweep`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "EngineProfiler",
    "EngineSpan",
    "ProfileSession",
    "Segment",
    "SimProfiler",
    "engine_span",
]

#: Segment kinds a :class:`NodeThread` reports, in taxonomy order.
SEGMENT_KINDS = ("fire", "quiet", "blocked", "stall")

#: Kinds whose contiguous runs are coalesced into one segment (quiet
#: spans, blocked spins, frame stalls — the high-multiplicity kinds).
_COALESCE = frozenset({"quiet", "blocked", "stall"})


@dataclass(slots=True)
class Segment:
    """One contiguous stretch of a thread's simulated time."""

    kind: str
    start: int  # simulated cycle the segment begins at
    cycles: int  # duration in simulated cycles
    count: int = 1  # operations coalesced into this segment
    errors: int = 0  # injector events observed inside it

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "cycles": self.cycles,
            "count": self.count,
            "errors": self.errors,
        }


class SimProfiler:
    """Per-thread simulated-time segments plus per-queue occupancy series.

    Threads are registered in deterministic build order
    (:meth:`register_thread`); queues identify themselves by ``qid``.
    Bounded: at most ``max_segments`` segments per thread and
    ``max_samples`` occupancy samples per queue are kept — overflow is
    *counted* (``dropped_segments`` / ``dropped_samples``), never
    silent, and the drop decision depends only on deterministic
    per-thread / per-queue sequence numbers.
    """

    def __init__(
        self,
        max_segments: int = 200_000,
        max_samples: int = 200_000,
    ) -> None:
        self.max_segments = max_segments
        self.max_samples = max_samples
        #: thread name -> list[Segment], insertion = build order.
        self.threads: dict[str, list[Segment]] = {}
        #: thread name -> list[(label, cycle)] point marks.
        self.marks: dict[str, list[tuple[str, int]]] = {}
        #: thread name -> static track metadata (the node's firing shape,
        #: :meth:`repro.machine.plan.FiringPlan.describe`).
        self.thread_meta: dict[str, dict] = {}
        #: qid -> list[(seq, occupancy)] — seq is the queue's own
        #: successful-operation counter, not any global ordering.
        self.queues: dict[int, list[tuple[int, int]]] = {}
        self._queue_seq: dict[int, int] = {}
        self.dropped_segments = 0
        self.dropped_samples = 0

    # -- thread side -------------------------------------------------------

    def register_thread(self, name: str, meta: dict | None = None) -> None:
        """Declare a thread track (idempotent; build order = track order).
        ``meta`` is static track metadata, e.g. the node's firing shape."""
        self.threads.setdefault(name, [])
        self.marks.setdefault(name, [])
        if meta:
            self.thread_meta[name] = meta

    def segment(
        self,
        thread: str,
        kind: str,
        start: int,
        cycles: int,
        errors: int = 0,
    ) -> int:
        """Record ``cycles`` simulated cycles of ``kind`` work on
        ``thread`` starting at cycle ``start``; returns the new clock
        (``start + cycles``).  Zero-length segments are dropped;
        contiguous same-kind segments of coalescible kinds merge."""
        end = start + cycles
        if cycles <= 0:
            return end
        segments = self.threads[thread]
        if (
            kind in _COALESCE
            and segments
            and segments[-1].kind == kind
            and segments[-1].start + segments[-1].cycles == start
        ):
            last = segments[-1]
            last.cycles += cycles
            last.count += 1
            last.errors += errors
            return end
        if len(segments) >= self.max_segments:
            self.dropped_segments += 1
            return end
        segments.append(Segment(kind, start, cycles, 1, errors))
        return end

    def mark(self, thread: str, label: str, at: int) -> None:
        """Record an instantaneous event (e.g. a forced unblock)."""
        self.marks[thread].append((label, at))

    # -- queue side --------------------------------------------------------

    def queue_sample(self, qid: int, occupancy: int) -> None:
        """Record a queue's occupancy after one *successful* mutation.

        The x-axis is the queue's own operation counter — successful
        mutations happen in the same order in both exec modes, so the
        series is exec-mode- and jobs-invariant.  Callers must sample
        only on success (never on a blocked push/pop retry, whose count
        depends on how often the run loop re-steps a blocked thread)."""
        seq = self._queue_seq.get(qid, 0)
        self._queue_seq[qid] = seq + 1
        series = self.queues.setdefault(qid, [])
        if len(series) >= self.max_samples:
            self.dropped_samples += 1
            return
        series.append((seq, occupancy))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical, deterministic dict form (the byte-compared artifact
        is ``to_json_bytes`` of exactly this)."""
        return {
            "version": 1,
            "threads": {
                name: [seg.to_dict() for seg in segments]
                for name, segments in self.threads.items()
            },
            "marks": {
                name: [{"label": label, "at": at} for label, at in marks]
                for name, marks in self.marks.items()
                if marks
            },
            "thread_meta": self.thread_meta,
            "queues": {
                str(qid): [{"seq": seq, "occupancy": occ} for seq, occ in series]
                for qid, series in sorted(self.queues.items())
            },
            "dropped_segments": self.dropped_segments,
            "dropped_samples": self.dropped_samples,
        }

    def to_json_bytes(self) -> bytes:
        """Canonical serialization: sorted keys, compact separators,
        trailing newline.  Byte-identical across ``--jobs`` and exec
        modes for the same seeded spec — CI ``cmp``'s this."""
        import json

        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode("ascii")


@dataclass(slots=True)
class EngineSpan:
    """One wall-clock span in the engine span tree."""

    name: str
    t0: float  # seconds since the profiler's epoch
    t1: float | None = None
    args: dict = field(default_factory=dict)
    children: list["EngineSpan"] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        return None if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "t0": round(self.t0, 6),
            "t1": None if self.t1 is None else round(self.t1, 6),
            "args": self.args,
            "children": [child.to_dict() for child in self.children],
        }


class EngineProfiler:
    """Hierarchical wall-clock spans for the sweep engine.

    Explicitly nondeterministic: wall time is a side channel, never an
    input to cache keys, trace bytes, or reports.  Not thread-safe by
    design — the engine drives it from the coordinating process only
    (worker processes report their wall seconds back through the pool
    result, recorded here via :meth:`record`)."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[EngineSpan] = []
        self._stack: list[EngineSpan] = []
        #: instantaneous events: (name, t, args).
        self.events: list[tuple[str, float, dict]] = []

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    @contextmanager
    def span(self, name: str, **args):
        """Open a span for the duration of the ``with`` block."""
        node = EngineSpan(name, self._now(), args=dict(args))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            self._stack.pop()
            node.t1 = self._now()

    def record(self, name: str, seconds: float, **args) -> None:
        """Record an already-completed leaf span of known duration —
        e.g. a worker-reported run wall time.  Anchored at ``now -
        seconds`` under the currently open span."""
        t0 = max(0.0, self._now() - seconds)
        node = EngineSpan(name, t0, t0 + seconds, dict(args))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(node)

    def event(self, name: str, **args) -> None:
        """Record an instantaneous event (e.g. a cache hit)."""
        self.events.append((name, self._now(), dict(args)))

    def to_dict(self) -> dict:
        return {
            "spans": [span.to_dict() for span in self.roots],
            "events": [
                {"name": name, "t": round(t, 6), "args": args}
                for name, t, args in self.events
            ],
        }


@contextmanager
def engine_span(profiler: EngineProfiler | None, name: str, **args):
    """``profiler.span(...)`` when a profiler is attached, else a no-op —
    the spelling that keeps call sites single-line."""
    if profiler is None:
        yield None
    else:
        with profiler.span(name, **args) as node:
            yield node


@dataclass(slots=True)
class ProfileSession:
    """What ``profile=...`` hands to :func:`repro.api.run` /
    :func:`repro.api.sweep`: a simulated-time recorder plus an engine
    span profiler, bundled so one object collects both sides."""

    sim: SimProfiler = field(default_factory=SimProfiler)
    engine: EngineProfiler = field(default_factory=EngineProfiler)
