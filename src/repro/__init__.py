"""CommGuard reproduction library.

Reproduction of "CommGuard: Mitigating Communication Errors in Error-Prone
Parallel Execution" (Yetim, Malik, Martonosi — ASPLOS 2015).

Public layers:

* :mod:`repro.streamit` — StreamIt-like streaming-dataflow substrate
  (filters, graphs, SDF scheduling, frame analysis, partitioning).
* :mod:`repro.machine` — multicore PPU simulator with architectural error
  injection and the baseline queue backends.
* :mod:`repro.core` — the CommGuard modules themselves (HI/AM/QM, the
  Table 1 FSM, SEC-DED ECC, suboperation accounting).
* :mod:`repro.apps` — the six StreamIt benchmarks of the evaluation.
* :mod:`repro.quality` — SNR/PSNR metrics and synthetic media inputs.
* :mod:`repro.experiments` — every table and figure as graded paper
  targets, run by the store-backed ``repro paper`` pipeline.

* :mod:`repro.observability` — structured event tracing and labelled
  metrics for every run.
* :mod:`repro.api` — the one-call front door composing all of the above.

Quick start::

    from repro import run, sweep

    report = run("fft", "commguard", mtbe=512_000)
    print(report.quality_db, report.record.data_loss_ratio)

    grid = sweep("fft", protections=["ppu_only", "commguard"],
                 mtbes="512k", seeds=3)
    print(grid.mean_quality_db(protection="commguard"))
"""

from repro.api import RunReport, SweepPoint, SweepReport, reproduce, run, sweep
from repro.core import CommGuard, CommGuardConfig
from repro.experiments.aggregate import CellStats, bootstrap_ci, summarize
from repro.experiments.options import EngineOptions
from repro.experiments.parallel import FailureRecord, RunTimeoutError, SweepRunError
from repro.experiments.store import RunStore, derive_campaign_id
from repro.machine import (
    FAULT_MODELS,
    ErrorModel,
    FaultModel,
    FaultModelSpec,
    MulticoreSystem,
    ProtectionLevel,
    RunResult,
    SystemConfig,
    fault_model_names,
    register_fault_model,
    run_program,
)
from repro.quality import psnr_db, snr_db
from repro.streamit import StreamGraph, StreamProgram

__version__ = "6.0.0"

__all__ = [
    "CellStats",
    "CommGuard",
    "CommGuardConfig",
    "EngineOptions",
    "ErrorModel",
    "FAULT_MODELS",
    "FailureRecord",
    "FaultModel",
    "FaultModelSpec",
    "MulticoreSystem",
    "ProtectionLevel",
    "RunReport",
    "RunResult",
    "RunStore",
    "RunTimeoutError",
    "SweepRunError",
    "StreamGraph",
    "StreamProgram",
    "SweepPoint",
    "SweepReport",
    "SystemConfig",
    "bootstrap_ci",
    "derive_campaign_id",
    "fault_model_names",
    "psnr_db",
    "register_fault_model",
    "reproduce",
    "run",
    "run_program",
    "snr_db",
    "summarize",
    "sweep",
    "__version__",
]
