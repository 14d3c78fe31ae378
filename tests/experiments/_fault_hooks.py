"""Deterministic fault hooks for the sweep-robustness test-suite.

The underscore prefix keeps pytest from collecting this module; the hooks
are plain module-level functions so they pickle by reference into pool
workers.  Every hook keys off ``(spec.seed, attempt)`` or the spec's
protection alone — no clocks, no randomness — so the faults they inject
are bit-reproducible.
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
