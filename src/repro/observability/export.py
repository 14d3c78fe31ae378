"""Exporters: Chrome trace-event JSON (Perfetto) and helpers.

The Chrome trace-event format is the JSON the Perfetto UI
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly: a
``{"traceEvents": [...]}`` document whose entries are complete spans
(``"ph": "X"`` with ``ts``/``dur``), counters (``"ph": "C"``), instants
(``"ph": "i"``) and track metadata (``"ph": "M"``).  We render:

* the **simulated-time timeline** of a :class:`~repro.observability.profile.SimProfiler`
  — one track per :class:`~repro.machine.thread.NodeThread` under the
  ``sim`` process, ``ts`` measured in simulated cycles (displayed as µs;
  the unit is nominal), plus one counter track per queue whose x-axis is
  the queue's successful-operation counter;
* the **engine span tree** of an
  :class:`~repro.observability.profile.EngineProfiler` under a separate
  ``engine`` process, ``ts`` in real microseconds.

Deterministic by construction for the simulated side: events are listed
in track order then segment order, and the serializer sorts keys — the
simulated-side document for a seeded spec is byte-stable across
``--jobs`` and exec modes (CI byte-compares the underlying timeline via
:meth:`SimProfiler.to_json_bytes`; the combined profile additionally
contains nondeterministic engine wall spans).

``trace_to_chrome`` renders a recorded JSONL *trace* (the event bus, not
the profiler) as instants on per-kind tracks — ``repro profile trace``.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.observability.profile import EngineProfiler, SimProfiler

__all__ = [
    "engine_to_chrome",
    "profile_to_chrome",
    "sim_to_chrome",
    "trace_to_chrome",
    "write_chrome_trace",
]

#: Process ids for the two sides of a profile, and for rendered traces.
SIM_PID = 1
ENGINE_PID = 2
TRACE_PID = 3


def _meta(name: str, pid: int, tid: int = 0, *, process: bool = False) -> dict:
    event = {
        "name": "process_name" if process else "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }
    return event


def sim_to_chrome(sim: SimProfiler) -> list[dict]:
    """Trace events for the simulated-time timeline (cycles as µs)."""
    events: list[dict] = [_meta("sim (cycles)", SIM_PID, process=True)]
    for tid, (name, segments) in enumerate(sim.threads.items(), start=1):
        events.append(_meta(name, SIM_PID, tid))
        for seg in segments:
            events.append(
                {
                    "name": seg.kind,
                    "ph": "X",
                    "pid": SIM_PID,
                    "tid": tid,
                    "ts": seg.start,
                    "dur": seg.cycles,
                    "args": {"count": seg.count, "errors": seg.errors},
                }
            )
        for label, at in sim.marks.get(name, ()):
            events.append(
                {
                    "name": label,
                    "ph": "i",
                    "s": "t",
                    "pid": SIM_PID,
                    "tid": tid,
                    "ts": at,
                    "args": {},
                }
            )
    for qid, series in sorted(sim.queues.items()):
        name = f"queue {qid} occupancy"
        for seq, occupancy in series:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": SIM_PID,
                    "tid": 0,
                    "ts": seq,
                    "args": {"occupancy": occupancy},
                }
            )
    return events


def _span_events(span, tid: int, out: list[dict]) -> None:
    t1 = span.t1 if span.t1 is not None else span.t0
    out.append(
        {
            "name": span.name,
            "ph": "X",
            "pid": ENGINE_PID,
            "tid": tid,
            "ts": round(span.t0 * 1e6, 3),
            "dur": round((t1 - span.t0) * 1e6, 3),
            "args": span.args,
        }
    )
    for child in span.children:
        _span_events(child, tid, out)


def engine_to_chrome(engine: EngineProfiler) -> list[dict]:
    """Trace events for the engine wall-clock span tree (real µs)."""
    events: list[dict] = [
        _meta("engine (wall)", ENGINE_PID, process=True),
        _meta("coordinator", ENGINE_PID, 1),
    ]
    for span in engine.roots:
        _span_events(span, 1, events)
    for name, t, args in engine.events:
        events.append(
            {
                "name": name,
                "ph": "i",
                "s": "t",
                "pid": ENGINE_PID,
                "tid": 1,
                "ts": round(t * 1e6, 3),
                "args": args,
            }
        )
    return events


def profile_to_chrome(
    sim: SimProfiler | None = None,
    engine: EngineProfiler | None = None,
) -> dict:
    """The full Chrome trace-event document for a profile session."""
    events: list[dict] = []
    if sim is not None:
        events.extend(sim_to_chrome(sim))
    if engine is not None:
        events.extend(engine_to_chrome(engine))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def trace_to_chrome(pairs: Iterable[tuple[dict, object]]) -> dict:
    """Render a recorded JSONL trace (``read_trace`` pairs) as instants.

    Each event kind gets its own track; ``ts`` is the event's sequence
    number, so the x-axis is bus order rather than any clock."""
    events: list[dict] = [_meta("trace (bus order)", TRACE_PID, process=True)]
    tids: dict[str, int] = {}
    for index, (raw, event) in enumerate(pairs):
        seq = raw.get("seq", index)
        data = event.to_dict()
        kind = data.pop("kind")
        tid = tids.get(kind)
        if tid is None:
            tid = tids[kind] = len(tids) + 1
            events.append(_meta(kind, TRACE_PID, tid))
        events.append(
            {
                "name": kind,
                "ph": "i",
                "s": "t",
                "pid": TRACE_PID,
                "tid": tid,
                "ts": seq,
                "args": data,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, doc: dict) -> None:
    """Write a trace-event document with the canonical serializer
    (sorted keys, compact separators, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
