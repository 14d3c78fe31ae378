"""Golden run digests: the recorded reference for the simulator.

Every point of the grid below runs under both execution modes —
``exec_mode="fast"`` (quiet-span bulk firings and batched queue
transfers, the default) and ``exec_mode="precise"`` (the per-word
oracle) — and each must reproduce the entry recorded for it in
``tests/fixtures/golden_runs.json``:

* ``result``: the sha256 of the run's canonical result JSON (sorted keys,
  compact separators) over the sink outputs, the per-thread counters,
  ``errors_by_kind``, ``errors_injected``, ``sweeps``, ``hung``,
  ``forced_unblocks`` and ``queue_peaks``;
* ``sweeps``, ``forced_unblocks`` and ``errors_injected`` as plain
  numbers, so a failure says what moved;
* ``trace`` (traced points): the sha256 of the :class:`JsonlTracer` bytes;
* ``profile`` (profiled points): the sha256 of
  :meth:`SimProfiler.to_json_bytes`.

The grid covers every protection level at dense, medium and sparse error
rates, the guarded DSP apps whose firings mostly start frames, every
registered fault-model family, traced runs (including the stuck-sweep
regime, where ``ForcedUnblock(thread, sweep)`` sequences pin the
scheduler's virtual-sweep accounting) and one profiled run.

The fixture only changes with a deliberate change to simulated behaviour.
Regenerate it with::

    PYTHONPATH=src python tests/machine/test_golden_runs.py --write

The writer runs every point under both modes and refuses to write when
they disagree.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.apps import build_app
from repro.core.config import CommGuardConfig
from repro.machine.protection import ProtectionLevel
from repro.machine.system import SystemConfig, run_program
from repro.observability import JsonlTracer
from repro.observability.profile import SimProfiler

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "fixtures" / "golden_runs.json"

EXEC_MODES = {
    "fast": SystemConfig(),
    "precise": SystemConfig(exec_mode="precise"),
}

COMMGUARD = ProtectionLevel.COMMGUARD


@dataclasses.dataclass(frozen=True)
class GoldenPoint:
    app: str
    scale: float
    protection: ProtectionLevel
    mtbe: float | None
    seed: int
    fault_model: str = "bit_flip"
    frame_scale: int = 1
    observe: str | None = None  # None, "trace" or "profile"

    @property
    def id(self) -> str:
        rate = "" if self.mtbe is None else f"-{int(self.mtbe) // 1000}k"
        parts = [f"{self.app}-{self.scale}-{self.protection.value}{rate}-s{self.seed}"]
        if self.fault_model != "bit_flip":
            parts.append(self.fault_model)
        if self.frame_scale != 1:
            parts.append(f"fs{self.frame_scale}")
        if self.observe is not None:
            parts.append(f"{self.observe}d")
        return "-".join(parts)


def _mtbes(protection, rates):
    """``error-free`` has no MTBE axis."""
    return (None,) if protection is ProtectionLevel.ERROR_FREE else rates


def grid() -> list[GoldenPoint]:
    points = []
    # Every protection level, dense to sparse errors, guarded and raw queues.
    for app in ("jpeg", "mp3", "fft"):
        for protection in ProtectionLevel:
            for mtbe in _mtbes(protection, (10_000.0, 64_000.0, 1_024_000.0)):
                for seed in (0, 1):
                    points.append(GoldenPoint(app, 0.25, protection, mtbe, seed))
    # Guarded DSP apps: nearly every firing starts a frame, so quiet spans
    # run across aligned frame boundaries (and, at frame_scale=4, only
    # every fourth invocation rolls a frame over).
    for app in ("complex-fir", "channelvocoder"):
        for mtbe in (10_000.0, 1_024_000.0):
            for seed in (0, 1):
                points.append(GoldenPoint(app, 0.05, COMMGUARD, mtbe, seed))
    points.append(
        GoldenPoint("channelvocoder", 0.05, COMMGUARD, 1_024_000.0, 0, frame_scale=4)
    )
    # The DSP apps' multi-firing spans: audiobeamformer's guarded frames,
    # and the raw-queue threads whose quiet spans run across frame
    # boundaries (error-free runs are one span per thread wake).
    for protection in (ProtectionLevel.ERROR_FREE, COMMGUARD):
        for mtbe in _mtbes(protection, (10_000.0, 1_024_000.0)):
            for seed in (0, 1):
                points.append(GoldenPoint("audiobeamformer", 0.05, protection, mtbe, seed))
    for app in ("complex-fir", "channelvocoder"):
        for protection in (
            ProtectionLevel.ERROR_FREE,
            ProtectionLevel.PPU_ONLY,
            ProtectionLevel.PPU_RELIABLE_QUEUE,
        ):
            for mtbe in _mtbes(protection, (10_000.0, 1_024_000.0)):
                for seed in (0, 1):
                    points.append(GoldenPoint(app, 0.05, protection, mtbe, seed))
    # Every registered error process, including sticky registers that
    # re-corrupt values between arrivals.
    for fault_model in (
        "bit_flip", "burst", "control_flow", "queue_state",
        "sticky", "sticky:dwell=200000",
    ):
        for mtbe in (50_000.0, 1_024_000.0):
            points.append(
                GoldenPoint("mp3", 0.2, COMMGUARD, mtbe, 1, fault_model=fault_model)
            )
    # Traced: byte-identical event streams under every protection level.
    for app in ("jpeg", "mp3"):
        for protection in ProtectionLevel:
            for mtbe in _mtbes(protection, (10_000.0, 100_000.0)):
                points.append(
                    GoldenPoint(app, 0.25, protection, mtbe, 1, observe="trace")
                )
    # Traced, stuck-sweep regime: long unproductive stretches, spins and
    # QM timeouts, whose ForcedUnblock(thread, sweep) events pin the
    # scheduler's wake ordering and sweep numbering.
    for protection in (ProtectionLevel.PPU_ONLY, ProtectionLevel.PPU_RELIABLE_QUEUE):
        for mtbe in (8_000.0, 16_000.0, 64_000.0, 128_000.0):
            points.append(GoldenPoint("mp3", 0.2, protection, mtbe, 5, observe="trace"))
    # Profiled: the simulated-time timeline bytes.
    points.append(GoldenPoint("fft", 0.05, COMMGUARD, 100_000.0, 3, observe="profile"))
    return points


POINTS = grid()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """sha256 of the canonical JSON of the result fields the module
    docstring lists."""
    snapshot = {
        "outputs": result.outputs,
        "thread_counters": {
            name: dataclasses.asdict(counters)
            for name, counters in result.thread_counters.items()
        },
        "errors_by_kind": {
            kind.value: count for kind, count in result.errors_by_kind.items()
        },
        "errors_injected": result.errors_injected,
        "sweeps": result.sweeps,
        "hung": result.hung,
        "forced_unblocks": result.forced_unblocks,
        "queue_peaks": {str(qid): peak for qid, peak in result.queue_peaks.items()},
    }
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode())


# Every run resets the graph, so one build per (app, scale) serves every
# point, as SimulationRunner.app does.
@functools.lru_cache(maxsize=None)
def _app(name: str, scale: float):
    return build_app(name, scale=scale)


def run_point(point: GoldenPoint, system_config: SystemConfig) -> dict:
    """Run *point* and return its golden entry."""
    buffer = io.StringIO() if point.observe == "trace" else None
    profiler = SimProfiler() if point.observe == "profile" else None
    result = run_program(
        _app(point.app, point.scale).program,
        point.protection,
        mtbe=point.mtbe,
        seed=point.seed,
        commguard_config=CommGuardConfig(frame_scale=point.frame_scale),
        system_config=system_config,
        fault_model=point.fault_model,
        tracer=JsonlTracer(buffer) if buffer is not None else None,
        profiler=profiler,
    )
    entry = {
        "result": result_digest(result),
        "sweeps": result.sweeps,
        "forced_unblocks": result.forced_unblocks,
        "errors_injected": result.errors_injected,
    }
    if buffer is not None:
        entry["trace"] = sha256(buffer.getvalue().encode())
    if profiler is not None:
        entry["profile"] = sha256(profiler.to_json_bytes())
    return entry


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["points"]


class TestGoldenRuns:
    def test_fixture_covers_the_grid(self, golden):
        assert sorted(golden) == sorted(point.id for point in POINTS)

    @pytest.mark.parametrize("point", POINTS, ids=lambda point: point.id)
    def test_point(self, point, golden):
        expected = golden[point.id]
        for mode, config in EXEC_MODES.items():
            entry = run_point(point, config)
            moved = sorted(key for key in expected if entry.get(key) != expected[key])
            assert entry == expected, f"{point.id} under exec_mode={mode}: {moved} moved"


def write_golden() -> int:
    points = {}
    disagree = []
    for point in POINTS:
        fast, precise = (run_point(point, config) for config in EXEC_MODES.values())
        if fast != precise:
            disagree.append(point.id)
        points[point.id] = fast
    if disagree:
        print("fast and precise disagree; not writing:", *disagree, sep="\n  ")
        return 1
    doc = {"points": points}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(points)} golden entries to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {GOLDEN_PATH.name})")
    sys.exit(write_golden())
