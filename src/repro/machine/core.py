"""Simulated processor core: an instruction clock, an error injector and
the threads pinned to it.

The paper pins one StreamIt thread per processor; when a graph has more
nodes than cores, the cluster backend time-slices several threads on one
core.  All threads of a core share its error injector (and therefore its
MTBE process and RNG stream), matching the per-core error model of
Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.errors import ErrorInjector
from repro.machine.thread import NodeThread


@dataclass
class SimCore:
    """One core of the simulated multiprocessor."""

    core_id: int
    injector: ErrorInjector
    threads: list[NodeThread] = field(default_factory=list)

    @property
    def clock(self) -> int:
        """Committed instructions + spin time observed by this core."""
        return self.injector.clock
