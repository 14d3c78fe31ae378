"""Per-layer host-time split for the traced benchmark run.

The traced run wraps each layer's public functions from outside the
program (nothing under ``src/`` changes) and records one span per
wrapped call: name, start, end and parent.  The spans stay in memory
and are written out once the run ends.  A layer's self time is the
summed duration of its spans minus the time their child spans cover.

The machine's run loop calls into ``core`` (guarded queues, alignment
FSMs, ECC) and into the filters' work functions once per simulated word.
Wrapping those calls would cost more than the work they do, so the self
time of each ``machine.run`` span is split by a CPU-time stack sampler
instead: every sample taken while ``machine.run`` is the innermost span
is charged to the layer owning the innermost ``repro`` frame.  Neither
mechanism touches ``profile=``, the SimProfiler or a trace bus, so the
fast path and batched queue operations stay engaged exactly as in an
untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import signal
import time
from collections import Counter
from pathlib import Path

LAYERS = ("apps", "streamit", "machine", "core", "quality", "experiments")

#: Exact simulated counts read from every RunResult the machine returns.
#: A change that only makes the simulator faster must leave them equal.
SIM_COUNTS = (
    "machine.committed_instructions",
    "machine.firings",
    "machine.sweeps",
    "machine.forced_unblocks",
    "machine.errors_injected",
    "core.header_loads",
    "core.header_stores",
    "core.pads",
    "core.discarded_items",
    "core.timeouts",
    "core.ecc_ops",
    "core.fsm_ops",
    "core.qm_worksets",
)

#: Record fields that must equal the traced counts of the same runs.
RECORD_FIELDS = {
    "machine.committed_instructions": "committed_instructions",
    "machine.errors_injected": "errors_injected",
    "core.pads": "padded_items",
    "core.discarded_items": "discarded_items",
    "core.timeouts": "timeouts",
}


class SpanRecorder:
    """In-memory span list; each span is ``[name, start, end, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, attrs=None):
        """*fn* with a span around every call; ``attrs(args, result)``
        may attach a small dict to the span once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "attrs"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def _run_attrs(args, result) -> dict:
    total = result.aggregate_counters()
    cg = total.commguard
    return {
        "guarded": args[0].protection.uses_commguard,
        "machine.committed_instructions": total.committed_instructions,
        "machine.firings": total.firings,
        "machine.sweeps": result.sweeps,
        "machine.forced_unblocks": result.forced_unblocks,
        "machine.errors_injected": result.errors_injected,
        "core.header_loads": cg.header_loads,
        "core.header_stores": cg.header_stores,
        "core.pads": cg.pads,
        "core.discarded_items": cg.discarded_items,
        "core.timeouts": cg.timeouts,
        "core.ecc_ops": cg.ecc_ops,
        "core.fsm_ops": cg.fsm_ops,
        "core.qm_worksets": cg.qm_get_new_workset,
    }


def _lookup_attrs(args, result) -> dict:
    return {"hit": result is not None}


def _targets():
    """``(owner, attribute, span name, attrs)`` for every wrapped call."""
    import repro.api
    import repro.experiments.paper
    import repro.experiments.runner
    import repro.machine.system
    from repro.apps.base import BenchmarkApp
    from repro.experiments.parallel import ParallelRunner, RunSpec
    from repro.experiments.runner import SimulationRunner
    from repro.experiments.store import RunStore
    from repro.machine.system import MulticoreSystem
    from repro.streamit.program import StreamProgram

    return (
        (repro.api, "build_app", "apps.build", None),
        (repro.experiments.runner, "build_app", "apps.build", None),
        (StreamProgram, "compile", "streamit.compile", None),
        (repro.machine.system, "partition_graph", "streamit.partition", None),
        (MulticoreSystem, "build", "machine.build", None),
        (MulticoreSystem, "run", "machine.run", _run_attrs),
        (BenchmarkApp, "quality", "quality.score", None),
        (BenchmarkApp, "baseline_quality", "quality.baseline", None),
        (ParallelRunner, "run_specs", "experiments.dispatch", None),
        (SimulationRunner, "execute_spec", "experiments.execute", None),
        (RunSpec, "content_key", "experiments.spec_key", None),
        (RunStore, "begin_campaign", "experiments.campaign_begin", None),
        (RunStore, "load", "experiments.store_read", _lookup_attrs),
        (RunStore, "get", "experiments.store_read", _lookup_attrs),
        (RunStore, "campaign", "experiments.store_read", None),
        (RunStore, "store", "experiments.store_write", None),
        (repro.experiments.paper, "evaluate_target", "experiments.grade", None),
    )


class LayerSampler:
    """CPU-time stack sampler charging ``machine.run`` self time to layers."""

    def __init__(self, recorder: SpanRecorder, src_root: Path, interval: float = 0.002):
        self.recorder = recorder
        self.prefix = str(src_root / "repro") + "/"
        self.interval = interval
        self.counts: Counter = Counter()
        self._layer_of: dict[str, str | None] = {}
        self._previous = None

    def _layer(self, filename: str) -> str | None:
        """The layer owning *filename*; ``None`` for helpers outside the six
        layers (``words``, ``observability``, the standard library), whose
        time the stack walk then charges to their caller."""
        layer = self._layer_of.get(filename, False)
        if layer is False:
            layer = None
            if filename.startswith(self.prefix):
                head = filename[len(self.prefix):].split("/", 1)[0]
                if head in LAYERS:
                    layer = head
                elif head in ("api.py", "cli.py"):
                    layer = "experiments"
            self._layer_of[filename] = layer
        return layer

    def _sample(self, signum, frame) -> None:
        if self.recorder.innermost() != "machine.run":
            return
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["machine"] += 1

    def armed(self, fn):
        """*fn* with the sampling timer running only inside the call, so
        no signal lands in store I/O or anywhere else outside the loop."""

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
            try:
                return fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

        return sampled

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


class Tracing:
    """Install the wrappers and the sampler for one traced pass."""

    def __init__(self, src_root: Path) -> None:
        self.recorder = SpanRecorder()
        self.sampler = LayerSampler(self.recorder, src_root)
        self._saved: list[tuple[object, str, object]] = []
        #: Wrap targets the program no longer has; their metrics read zero.
        self.unwrapped: list[str] = []

    def __enter__(self) -> "Tracing":
        for owner, attribute, name, attrs in _targets():
            original = inspect.getattr_static(owner, attribute, None)
            if original is None:
                self.unwrapped.append(f"{owner.__name__}.{attribute}")
                continue
            self._saved.append((owner, attribute, original))
            fn = original.__func__ if isinstance(original, classmethod) else original
            if name == "machine.run":
                fn = self.sampler.armed(fn)
            replacement = self.recorder.wrap(name, fn, attrs)
            if isinstance(original, classmethod):
                replacement = classmethod(replacement)
            setattr(owner, attribute, replacement)
        self.sampler.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.sampler.__exit__(*exc)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (the workload's root call)."""
        span = self.recorder.open(name)
        try:
            yield
        finally:
            self.recorder.close(span)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def sim_counts(spans: list[list]) -> dict[str, int]:
    """The exact simulated counts of the workload's own runs.  The
    error-free reference runs that quality scoring makes for itself (a
    ``machine.run`` under a ``quality`` span) are left out, so caching those
    references differently cannot move the counts."""

    def for_quality(span: list) -> bool:
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0].startswith("quality."):
                return True
        return False

    runs = [s[4] for s in spans if s[0] == "machine.run" and not for_quality(s)]
    return {name: sum(attrs[name] for attrs in runs) for name in SIM_COUNTS}


def layer_metrics(tracing: Tracing) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    spans = tracing.recorder.spans
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    machine_run_self = 0.0
    total = 0.0
    for span, self_s in zip(spans, own):
        if span[3] < 0:
            total += span[2] - span[1]
        if span[0] == "machine.run":
            machine_run_self += self_s
        else:
            layer_self[span[0].split(".", 1)[0]] += self_s
    samples = tracing.sampler.counts
    n_samples = sum(samples.values())
    for layer in LAYERS:
        share = samples[layer] / n_samples if n_samples else float(layer == "machine")
        layer_self[layer] += machine_run_self * share

    def inclusive(name: str) -> tuple[float, int]:
        chosen = [s for s in spans if s[0] == name]
        return sum(s[2] - s[1] for s in chosen), len(chosen)

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    for label, guarded in (("commguard", True), ("unguarded", False)):
        runs = [s for s in spans if s[0] == "machine.run" and s[4]["guarded"] is guarded]
        run_s = sum(s[2] - s[1] for s in runs)
        minstr = sum(s[4]["machine.committed_instructions"] for s in runs) / 1e6
        metrics[f"machine.run_s.{label}"] = run_s
        metrics[f"machine.minstr_per_s.{label}"] = minstr / run_s if run_s else 0.0
    metrics["machine.build_s"], metrics["machine.builds"] = inclusive("machine.build")
    metrics["streamit.partition_s"], _ = inclusive("streamit.partition")
    metrics["streamit.compile_s"], _ = inclusive("streamit.compile")
    metrics["apps.build_s"], metrics["apps.builds"] = inclusive("apps.build")
    metrics["quality.score_s"], metrics["quality.scores"] = inclusive("quality.score")
    metrics["quality.baseline_s"], _ = inclusive("quality.baseline")
    metrics["experiments.spec_key_s"], metrics["experiments.spec_keys"] = inclusive(
        "experiments.spec_key"
    )
    metrics["experiments.campaign_begin_s"], _ = inclusive("experiments.campaign_begin")
    metrics["experiments.store_read_s"], _ = inclusive("experiments.store_read")
    lookups = [s for s in spans if s[0] == "experiments.store_read" and s[4] is not None]
    metrics["experiments.store_lookups"] = len(lookups)
    metrics["experiments.store_hit_ratio"] = (
        sum(s[4]["hit"] for s in lookups) / len(lookups) if lookups else 0.0
    )
    metrics["experiments.store_write_s"], metrics["experiments.store_writes"] = inclusive(
        "experiments.store_write"
    )
    metrics["experiments.dispatch_self_s"] = sum(
        self_s for span, self_s in zip(spans, own) if span[0] == "experiments.dispatch"
    )
    metrics["experiments.grade_s"], _ = inclusive("experiments.grade")
    counts = sim_counts(spans)
    metrics["machine.committed_minstr"] = counts.pop("machine.committed_instructions") / 1e6
    metrics.update(counts)
    metrics["trace.spans"] = len(spans)
    metrics["trace.samples"] = n_samples
    return metrics


def top_layers(metrics: dict[str, float], n: int = 3) -> list[tuple[str, float]]:
    ranked = sorted(LAYERS, key=lambda layer: metrics[f"{layer}.share"], reverse=True)
    return [(layer, metrics[f"{layer}.share"]) for layer in ranked[:n]]
