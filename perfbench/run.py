"""CommGuard campaign benchmark: one command, three workloads, every metric
by name with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-reduced|sweep-jpeg|sweep-resume \\
        --seed N --seconds S --trace 0|1 [--pin]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
(``perfbench-detail {...}``) carries the environment, the exact simulated
fingerprint, the top layers and any problem found; the same and more (one
sample per timed call) is written to ``.perfbench_out/``.  The exit code is
0 when every check passed, 1 when a correctness check, an isolation
assertion or the exact fingerprint failed, and 2 when there is no source
tree to benchmark.  Metric names, units and directions are declared in
``BENCHMARK.json``; every number is host time unless its name says
simulated.

``--trace 0`` measures the end-to-end metrics, untraced:

* ``setup_s``: importing ``repro`` in a fresh interpreter plus creating an
  empty store, median of three; for ``sweep-resume`` plus filling the store
  with the ``sweep-jpeg`` campaign (once per run, at 2 jobs).
* ``wall_s``: one timed call.
* ``runs_per_s``: completed runs (executed or store hits) per wall second.
* ``sim_minstr_per_s``: simulated committed instructions of the completed
  runs, in millions, per wall second (served from the store on the replay).
* ``cpu_s``: user+sys time of this process and its workers per call.
* ``peak_rss_mb``: the larger of this process's and any worker's peak RSS.

The four above are per-call figures over the calls made in ``--seconds``
(about 80 replays, 3 jpeg sweeps or 2 reproductions), each reported as its
slow quartile (see ``quartile``).

Failed runs are reported by the ``failed`` count against ``attempted``.

``--trace 1`` reruns the workload to get the per-layer metrics: one
untraced call at 2 jobs (``experiments.pool_util``, worker CPU over wall
times jobs), one untraced and one traced call in-process at 1 job.  The
traced call wraps each layer's public functions (see ``layers.py``); its
spans go to ``.perfbench_out/<workload>-seed<n>-spans.json`` and
``trace.overhead_frac`` is its wall time against the untraced call's.

Each per-layer metric, and the end-to-end metric it should move:

* ``machine.run_s.commguard``, ``machine.minstr_per_s.commguard``:
  ``wall_s`` on paper-reduced; nothing on sweep-resume.
* ``machine.run_s.unguarded``, ``machine.minstr_per_s.unguarded``,
  ``machine.build_s``, ``machine.builds``, ``streamit.partition_s``,
  ``experiments.store_write_s``, ``experiments.store_writes``,
  ``quality.score_s``, ``quality.scores``, ``quality.baseline_s``,
  ``experiments.dispatch_self_s``: ``runs_per_s`` on sweep-jpeg.
* ``experiments.spec_key_s``, ``experiments.spec_keys``,
  ``experiments.campaign_begin_s``, ``experiments.store_read_s``,
  ``experiments.store_lookups``, ``experiments.store_hit_ratio``,
  ``apps.build_s``, ``apps.builds``: ``wall_s`` on sweep-resume.
* ``experiments.grade_s``, ``experiments.pool_util``: ``wall_s`` on
  paper-reduced.
* ``streamit.compile_s``: ``setup_s`` and ``wall_s`` where apps are built.
* The simulated counts (``machine.committed_minstr`` to
  ``core.qm_worksets``) must not move under a change that only makes the
  simulator faster.

``--pin`` records this run's fingerprint in ``perfbench/expected.json``
instead of comparing against it.  Do that only for a change that is meant
to alter simulated results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.api, repro.experiments; "
    "print(time.perf_counter() - t)"
)


class Context:
    """Where a run may write: a scratch tree inside the checkout."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path


def isolate(work: Path) -> None:
    """Point every default location the program reads at this run's own
    scratch tree, so a developer's store, cache or job count never leaks in."""
    os.environ["REPRO_STORE"] = str(work / "default-store.sqlite")
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["REPRO_JOBS"] = "2"
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["PYTHONPATH"] = str(SRC)
    (work / "tmp").mkdir(parents=True)


def isolation_leaks(work: Path) -> list[str]:
    return [
        f"isolation: {name} was created"
        for name in ("default-store.sqlite", "default-cache")
        if (work / name).exists()
    ]


def environment() -> dict:
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
    }


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    outcome: object

    def row(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "worker_cpu_s": self.worker_cpu_s,
            "runs": self.outcome.total,
            "executed": self.outcome.executed,
            "hits": self.outcome.hits,
        }


def measure(workload, state, jobs: int, calls: int = 1, tracing=None) -> list[Sample]:
    """Time *calls* calls.  Under *tracing* each sample's ``outcome`` is
    the raw handle, finished by the caller once the wrappers are gone."""
    samples = []
    for _ in range(calls):
        own0, children0 = _cpu()
        start = time.perf_counter()
        if tracing is None:
            handle = workload.call(state, jobs)
        else:
            with tracing.span(workload.entry):
                handle = workload.call(state, jobs)
        wall = time.perf_counter() - start
        own1, children1 = _cpu()
        samples.append(
            Sample(
                wall_s=wall,
                cpu_s=(own1 - own0) + (children1 - children0),
                worker_cpu_s=children1 - children0,
                outcome=handle if tracing else workload.finish(handle),
            )
        )
    return samples


def setup_seconds(workload, ctx: Context) -> tuple[float, object, list[float]]:
    """Median set-up time over SETUP_REPEATS imports plus store creations,
    plus the workload's own set-up (the replay's store fill), done once."""
    from repro.experiments import RunStore

    repeats = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        start = time.perf_counter()
        RunStore(ctx.fresh_dir() / "store.sqlite").close()
        repeats.append(float(probe.stdout) + time.perf_counter() - start)
    start = time.perf_counter()
    state = workload.setup()
    fill = time.perf_counter() - start
    return statistics.median(repeats) + fill, state, repeats


def quartile(values: list[float], upper: bool) -> float:
    """The slow quartile of per-call figures: the 75th percentile of a
    time (``upper``), the 25th of a rate.

    Not the median: the CPUs of a shared host run at a baseline speed
    with episodes up to ~1.5x faster that last seconds.  A median or mean
    moves with the share of a run those episodes cover; the slower quarter
    of the calls mostly stays at the baseline."""
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] if upper else quartiles[0]


def end_to_end(workload, ctx: Context, seconds: float) -> tuple[dict, list[Sample], dict]:
    setup_s, state, setup_repeats = setup_seconds(workload, ctx)
    samples: list[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples += measure(workload, state, jobs=2)
    metrics = {
        "wall_s": quartile([s.wall_s for s in samples], upper=True),
        "runs_per_s": quartile([s.outcome.total / s.wall_s for s in samples], upper=False),
        "sim_minstr_per_s": quartile(
            [s.outcome.sim_instructions / 1e6 / s.wall_s for s in samples], upper=False
        ),
        "cpu_s": quartile([s.cpu_s for s in samples], upper=True),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, samples, {"setup_repeats_s": setup_repeats}


def per_layer(workload, ctx: Context, out: Path) -> tuple[dict, list[Sample], dict]:
    from layers import Tracing, layer_metrics, sim_counts, top_layers

    state = workload.setup()
    pool = measure(workload, state, jobs=2)[0]
    calls = workload.calls_per_traced_pass
    untraced = measure(workload, state, jobs=1, calls=calls)
    with Tracing(SRC) as tracing:
        traced = measure(workload, state, jobs=1, calls=calls, tracing=tracing)
    for sample in traced:
        sample.outcome = workload.finish(sample.outcome)
    tracing.recorder.dump(out)
    metrics = layer_metrics(tracing)
    metrics["experiments.pool_util"] = pool.worker_cpu_s / (pool.wall_s * 2)
    metrics["trace.overhead_frac"] = (
        sum(s.wall_s for s in traced) / sum(s.wall_s for s in untraced) - 1.0
    )
    extra = {
        "top_layers": top_layers(metrics),
        "sim_counts": sim_counts(tracing.recorder.spans),
        "spans_file": str(out.relative_to(ROOT)),
        "unwrapped": tracing.unwrapped,
    }
    return metrics, [pool] + untraced + traced, extra


def check_pins(workload, fingerprint: dict, sim_counts: dict | None, pin: bool) -> list[str]:
    """Compare against (or with ``pin``, record) the exact expected values."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    group, key = workload.pin
    slot = expected.setdefault(group, {})
    if key is not None:
        slot = slot.setdefault(key, {})
    current = {"records": fingerprint}
    if sim_counts is not None:
        current["sim_counts"] = sim_counts
    if pin:
        slot.update(current)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return []
    problems = []
    for name, value in current.items():
        if name not in slot:
            problems.append(f"no pinned {name} for {group} {key or ''}".rstrip())
        elif slot[name] != value:
            problems.append(f"{name} differ from the pinned fingerprint: {value}")
    return problems


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import RECORD_FIELDS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    tag = f"{args.workload}-seed{args.seed}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    isolate(work)
    try:
        ctx = Context(ROOT, work)
        workload = WORKLOADS[args.workload](args.seed, ctx)
        if args.trace:
            metrics, samples, extra = per_layer(workload, ctx, out_dir / f"{tag}-spans.json")
        else:
            metrics, samples, extra = end_to_end(workload, ctx, args.seconds)
        problems = isolation_leaks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [sample.outcome for sample in samples]
    prints = [outcome.fingerprint for outcome in outcomes]
    for outcome in outcomes:
        problems += [p for p in outcome.problems if p not in problems]
    if any(p != prints[0] for p in prints):
        problems.append("fingerprint differs between calls of one run")
    executes = any(outcome.executed for outcome in outcomes)
    counts = extra.get("sim_counts") if executes else None
    if counts is not None:
        problems += [
            f"traced {name} disagrees with the records"
            for name, field in RECORD_FIELDS.items()
            if counts[name] != prints[0][field]
        ]
    problems += check_pins(workload, prints[0], counts, args.pin)

    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
            "are not declared in BENCHMARK.json the way they are measured"
        )
    result = {
        "correct": not problems,
        "attempted": sum(outcome.total for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "fingerprint": prints[0],
        "problems": problems,
        **{k: v for k, v in extra.items() if k != "setup_repeats_s"},
    }
    if "top_layers" in extra:
        print(
            "perfbench: top layers by self time: "
            + ", ".join(f"{layer} {share:.1%}" for layer, share in extra["top_layers"])
        )
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(
            {**detail, **extra, "result": result, "samples": [s.row() for s in samples]},
            indent=1,
        )
        + "\n"
    )
    print("perfbench-detail " + json.dumps(detail, separators=(",", ":")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
