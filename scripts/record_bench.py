#!/usr/bin/env python3
"""Record the simulator fast-path benchmark into ``BENCH_simulator.json``.

Times the quiet-span fast path (``exec_mode="fast"``, the default) against
the per-word precise oracle (``exec_mode="precise"``) on the high-MTBE
rungs of the reduced Figure 10 quality campaign — jpeg plus mp3 at two
frame sizes, CommGuard, one seed — the sparse-error regime the fast path
is built for.  Also records absolute fast and precise seconds per DSP app
(the apps whose quiet spans run the span kernels of ``Filter.work_many``),
guarded on the same high-MTBE rungs and error-free; those rows are
recorded, not checked.  Writes one machine-readable report at the repo
root.

Usage::

    PYTHONPATH=src python scripts/record_bench.py [--scale 0.25]
        [--repeats 2] [--out BENCH_simulator.json] [--check]

``--check`` exits non-zero when the fast path falls under 1.2x over
precise — CI runs with it so a fast-path regression fails the build.
Timings are best-of-``--repeats`` wall clock; both modes produce
bit-identical results (enforced by ``tests/machine/test_golden_runs.py``
and ``tests/machine/test_exec_mode_equivalence.py``), so only time
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import CommGuardConfig  # noqa: E402
from repro.experiments.runner import SimulationRunner  # noqa: E402
from repro.experiments.sweeps import MTBE_LADDER_QUALITY  # noqa: E402
from repro.machine.protection import ProtectionLevel  # noqa: E402
from repro.machine.system import SystemConfig, run_program  # noqa: E402

EXEC_CONFIGS = {
    "precise": SystemConfig(exec_mode="precise"),
    "fast": SystemConfig(),  # exec_mode="fast" is the default
}

#: The fast-path target is defined on the sparse-error rungs: at MTBE >=
#: 1024k nearly every firing sits inside an error-quiet span.
HIGH_MTBE_FLOOR = 1_024_000

#: Minimum fast-over-precise campaign speedup ``--check`` accepts.
FAST_PATH_CHECK_FLOOR = 1.2

#: The DSP apps: one firing per frame on many threads, so their quiet
#: spans are where the span kernels run.
DSP_APPS = ("audiobeamformer", "channelvocoder", "complex-fir", "fft")


def campaign_points() -> list[tuple[str, int, int]]:
    """The high-MTBE rungs of the reduced Figure 10 grid: jpeg plus mp3
    frame sizes, 1 seed."""
    points = [("jpeg", 1, mtbe) for mtbe in MTBE_LADDER_QUALITY]
    points += [
        ("mp3", frame_scale, mtbe)
        for frame_scale in (1, 2)
        for mtbe in MTBE_LADDER_QUALITY
    ]
    return [point for point in points if point[2] >= HIGH_MTBE_FLOOR]


def dsp_rows(runner: SimulationRunner, repeats: int) -> list[dict]:
    """Fast and precise seconds per DSP app: CommGuard on the high-MTBE
    rungs, and the error-free run, seed 0."""
    rows = []
    for app_name in DSP_APPS:
        program = runner.app(app_name).program
        for protection, mtbes in (
            (ProtectionLevel.COMMGUARD, high_mtbes()),
            (ProtectionLevel.ERROR_FREE, [None]),
        ):
            def runs(config, protection=protection, mtbes=mtbes):
                for mtbe in mtbes:
                    run_program(
                        program, protection, mtbe=mtbe, seed=0, system_config=config
                    )

            seconds = {
                name: time_call(lambda: runs(config), repeats)
                for name, config in EXEC_CONFIGS.items()
            }
            rows.append(
                {
                    "app": app_name,
                    "protection": protection.value,
                    "runs": len(mtbes),
                    "precise_s": round(seconds["precise"], 4),
                    "fast_s": round(seconds["fast"], 4),
                    "speedup": round(seconds["precise"] / seconds["fast"], 3),
                }
            )
            print(
                f"  {app_name:16s} {protection.value:10s} ({len(mtbes)} runs): "
                f"precise {seconds['precise']:.3f}s  fast {seconds['fast']:.3f}s"
            )
    return rows


def high_mtbes() -> list[int]:
    return [mtbe for mtbe in MTBE_LADDER_QUALITY if mtbe >= HIGH_MTBE_FLOOR]


def time_call(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        before = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - before)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_simulator.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if the fast path is under {FAST_PATH_CHECK_FLOOR}x "
        "over precise",
    )
    args = parser.parse_args(argv)

    runner = SimulationRunner(scale=args.scale)
    points = campaign_points()
    for app_name in {name for name, _, _ in points} | set(DSP_APPS):
        runner.app(app_name)  # build once, outside the timed region

    def campaign(config: SystemConfig) -> None:
        for app_name, frame_scale, mtbe in points:
            run_program(
                runner.app(app_name).program,
                ProtectionLevel.COMMGUARD,
                mtbe=mtbe,
                seed=0,
                commguard_config=CommGuardConfig(frame_scale=frame_scale),
                system_config=config,
            )

    seconds = {
        name: time_call(lambda: campaign(config), args.repeats)
        for name, config in EXEC_CONFIGS.items()
    }
    speedup = seconds["precise"] / seconds["fast"]
    print(
        f"fast path, high-MTBE campaign ({len(points)} runs, "
        f"MTBE >= {HIGH_MTBE_FLOOR // 1000}k): "
        f"precise {seconds['precise']:.3f}s  "
        f"fast {seconds['fast']:.3f}s  {speedup:.2f}x"
    )
    print(f"DSP apps, CommGuard at MTBE >= {HIGH_MTBE_FLOOR // 1000}k and error-free:")
    dsp = dsp_rows(runner, args.repeats)

    report = {
        "benchmark": "simulator-fast-path",
        "campaign": "fig10-reduced-high-mtbe",
        "configs": {
            "precise": "per-word oracle (exec_mode='precise')",
            "fast": "quiet-span bulk firing (exec_mode='fast', default)",
        },
        "scale": args.scale,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mtbe_floor": HIGH_MTBE_FLOOR,
        "runs": len(points),
        "precise_s": round(seconds["precise"], 4),
        "fast_s": round(seconds["fast"], 4),
        "speedup": round(speedup, 3),
        "dsp": dsp,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check and speedup < FAST_PATH_CHECK_FLOOR:
        print(
            f"FAIL: fast path under {FAST_PATH_CHECK_FLOOR}x over precise "
            "on the high-MTBE campaign",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
