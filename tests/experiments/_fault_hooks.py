"""Deterministic fault hooks for the sweep-robustness test-suite.

The underscore prefix keeps pytest from collecting this module; the hooks
are plain module-level functions so they pickle by reference into pool
workers.  Every hook keys off ``(spec.seed, attempt)`` or the spec's
protection alone — no clocks, no randomness — so the faults they inject
are bit-reproducible.  The stalling hooks, which hold a sweep mid-run for
a signal, also keep a little state in files of the sweep's working
directory.
"""

import os
import time

from repro.machine.protection import ProtectionLevel

VICTIM_SEED = 1


def crash_once(spec, attempt):
    """Kill the executing process on the victim's first attempt."""
    if spec.seed == VICTIM_SEED and attempt == 0:
        os._exit(17)


def always_crash(spec, attempt):
    """Kill the executing process on every attempt at the victim."""
    if spec.seed == VICTIM_SEED:
        os._exit(17)


def hang_once(spec, attempt):
    """Outlast any sane run timeout on the victim's first attempt."""
    if spec.seed == VICTIM_SEED and attempt == 0:
        time.sleep(30)


def fail_once(spec, attempt):
    """Raise on the victim's first attempt; succeed thereafter."""
    if spec.seed == VICTIM_SEED and attempt == 0:
        raise RuntimeError("injected fault")


def always_fail(spec, attempt):
    """Raise on every attempt at the victim."""
    if spec.seed == VICTIM_SEED:
        raise RuntimeError("injected fault")


def fail_everything(spec, attempt):
    """Raise on every attempt at every spec."""
    raise RuntimeError("injected fault")


def error_free_always_fails(spec, attempt):
    """Raise on every attempt at an error-free point (a reference producer)."""
    if spec.protection is ProtectionLevel.ERROR_FREE:
        raise RuntimeError("injected fault")


def error_free_always_crashes(spec, attempt):
    """Kill the executing process on every attempt at an error-free point."""
    if spec.protection is ProtectionLevel.ERROR_FREE:
        os._exit(17)


#: Specs from this seed on stall in :func:`record_pid_then_stall`.
STALL_SEED = 2
#: File, in the sweep's working directory, that collects the pids of the
#: processes inside stalled runs.
PID_LOG = "worker_pids.txt"
#: File, in the sweep's working directory, that marks the crash of
#: :func:`crash_then_stall` as done.
CRASHED = "crashed.marker"


def _stall():
    """Log the executing process's pid and stall far past any test."""
    with open(PID_LOG, "a") as log:
        log.write(f"{os.getpid()}\n")
    time.sleep(300)


def record_pid_then_stall(spec, attempt):
    """Stall every run from ``STALL_SEED`` on, so a sweep is reliably
    mid-run when signalled."""
    if spec.seed >= STALL_SEED:
        _stall()


def crash_then_stall(spec, attempt):
    """Kill the process at the victim's first run and stall its re-run: a
    crash quarantines the specs it breaks, so the victim stalls in the
    one-worker pool of a quarantined re-run."""
    if spec.seed == VICTIM_SEED:
        if os.path.exists(CRASHED):
            _stall()
        open(CRASHED, "w").close()
        os._exit(17)
