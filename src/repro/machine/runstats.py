"""Per-run result and statistics aggregation.

Everything the experiment harnesses need to regenerate the paper's tables
and figures is collected here: sink outputs (for SNR/PSNR), pad/discard and
timeout counts (Figs. 7, 8), memory events and header traffic (Fig. 12),
committed instructions and CommGuard suboperations (Fig. 14), and the
execution-time estimate including frame-boundary serialization (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import CommGuardStats, ThreadCounters
from repro.machine.errors import ErrorKind
from repro.observability.metrics import MetricsRegistry


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    Scalar aggregates (``errors_injected``, ``queue_peaks``, ...) are derived
    from :attr:`metrics`, the labeled :class:`MetricsRegistry` the system
    publishes into at collection time; they are kept as plain fields so that
    results stay cheap to pickle and simple to construct in tests.
    """

    outputs: dict[str, list[int]] = field(default_factory=dict)
    thread_counters: dict[str, ThreadCounters] = field(default_factory=dict)
    errors_by_kind: dict[ErrorKind, int] = field(default_factory=dict)
    errors_injected: int = 0
    sweeps: int = 0
    hung: bool = False
    forced_unblocks: int = 0
    #: Per-core serialization stall cycles at frame boundaries (Section 5.3).
    frame_stall_cycles: int = 0
    #: Cost charged per header transferred through a queue, in cycles
    #: (snapshot of :attr:`SystemConfig.header_transfer_cycles`, whose home
    #: is the machine configuration).
    header_transfer_cycles: int = 2
    #: Per-edge buffered-unit high-water marks (qid -> units).
    queue_peaks: dict[int, int] = field(default_factory=dict)
    #: Labeled counters/gauges the run published (per-core, per-thread,
    #: per-edge); the scalar fields above are derived views of this.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    # -- aggregates -------------------------------------------------------------
    #
    # Each derived figure below merges every thread's counters, unless the
    # caller passes *total*, this run's aggregate_counters() computed once.

    def aggregate_counters(self) -> ThreadCounters:
        total = ThreadCounters()
        for counters in self.thread_counters.values():
            total.merge(counters)
        return total

    def commguard_stats(self) -> CommGuardStats:
        return self.aggregate_counters().commguard

    @property
    def committed_instructions(self) -> int:
        return self.aggregate_counters().committed_instructions

    def data_loss_ratio(self, total: ThreadCounters | None = None) -> float:
        """Fig. 8: (padded + discarded items) / accepted items."""
        total = total or self.aggregate_counters()
        lost = total.commguard.lost_data_units()
        accepted = total.items_popped
        return lost / accepted if accepted else 0.0

    def header_memory_ratios(
        self, total: ThreadCounters | None = None
    ) -> tuple[float, float]:
        """Fig. 12: (header loads / all loads, header stores / all stores)."""
        total = total or self.aggregate_counters()
        cg = total.commguard
        all_loads = total.memory.loads + cg.header_loads
        all_stores = total.memory.stores + cg.header_stores
        load_ratio = cg.header_loads / all_loads if all_loads else 0.0
        store_ratio = cg.header_stores / all_stores if all_stores else 0.0
        return load_ratio, store_ratio

    def subop_ratios(self, total: ThreadCounters | None = None) -> dict[str, float]:
        """Fig. 14: CommGuard suboperation classes / committed instructions."""
        total = total or self.aggregate_counters()
        cg = total.commguard
        committed = total.committed_instructions or 1
        return {
            "fsm_counter": cg.fsm_counter_ops() / committed,
            "ecc": cg.total_ecc_ops() / committed,
            "header_bit": cg.is_header_checks / committed,
            "total": cg.total_subops() / committed,
        }

    def execution_time(self, total: ThreadCounters | None = None) -> int:
        """Cycle estimate including CommGuard's serialization and header costs.

        The baseline (no CommGuard) spends only its committed instructions;
        CommGuard adds frame-boundary pipeline stalls and header transfers
        (Fig. 13's measured quantities).
        """
        total = total or self.aggregate_counters()
        cg = total.commguard
        header_cycles = (cg.header_loads + cg.header_stores) * self.header_transfer_cycles
        return total.committed_instructions + total.stall_cycles + header_cycles

    def buffer_requirement_words(self) -> int:
        """Total queue storage a run actually needed (sum of per-edge
        high-water marks) — Section 5.1's memory-region sizing, measured."""
        return sum(self.queue_peaks.values())

    def pad_discard_events(self) -> tuple[int, int]:
        """Fig. 7: number of padding and discarding realignment episodes."""
        cg = self.commguard_stats()
        return cg.pad_events, cg.discard_events

    def completed(self) -> bool:
        return not self.hung
