"""Suboperation and event accounting for CommGuard (Tables 2 and 3, Figs 12/14).

The paper evaluates CommGuard's overhead as counts of hardware suboperations
relative to committed processor instructions (Fig. 14), extra memory events
due to headers relative to all loads/stores (Fig. 12), and pad/discard data
loss relative to accepted data (Fig. 8).  Every counter the harness needs
lives here, incremented inline by the HI/AM/QM code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(slots=True)
class CommGuardStats:
    """Per-thread CommGuard suboperation counters.

    Grouped per Table 3's suboperation classes so Fig. 14's series
    (FSM/Counter, ECC, Header Bit, Total) fall out directly.
    """

    # --- Table 3 suboperation classes -------------------------------------
    prepare_header: int = 0        # read+increment active-fc, set header bit
    is_header_checks: int = 0      # header-bit check per popped data unit
    ecc_ops: int = 0               # single-word ECC set/check operations
    fsm_ops: int = 0               # 5-state FSM check/update operations
    counter_ops: int = 0           # active-fc / saturating-counter operations
    qm_push_local: int = 0         # QM local working-set pushes
    qm_pop_local: int = 0          # QM local working-set pops
    qm_get_new_workset: int = 0    # working-set handoffs (each costs 10 ECC ops)

    # --- alignment actions (Figs 7 and 8) ----------------------------------
    pads: int = 0                  # items padded (answered with 0)
    discarded_items: int = 0       # regular items discarded
    discarded_headers: int = 0     # stale/duplicate headers discarded
    pad_events: int = 0            # distinct misalignment episodes resolved by padding
    discard_events: int = 0        # distinct misalignment episodes resolved by discarding
    ecc_uncorrectable: int = 0     # headers dropped due to double-bit errors
    timeouts: int = 0              # blocking-operation timeouts (paper saw none)

    # --- header traffic (Fig. 12) ------------------------------------------
    header_stores: int = 0         # header pushes into queues
    header_loads: int = 0          # header pops out of queues

    def fsm_counter_ops(self) -> int:
        """Fig. 14's "FSM/Counter" series."""
        return self.fsm_ops + self.counter_ops

    def total_ecc_ops(self) -> int:
        """All ECC set/check work, including the QM's shared-pointer accesses."""
        return self.ecc_ops

    def total_subops(self) -> int:
        """Fig. 14's "Total" series.

        Regular item transmissions carry no CommGuard overhead (Table 3);
        only header pushes/pops, the per-unit header-bit check, ECC, FSM and
        counter work, and working-set handoffs count.
        """
        return (
            self.prepare_header
            + self.is_header_checks
            + self.ecc_ops
            + self.fsm_ops
            + self.counter_ops
            + self.header_stores
            + self.header_loads
            + self.qm_get_new_workset
        )

    def lost_data_units(self) -> int:
        """Padded + discarded items: the numerator of Fig. 8."""
        return self.pads + self.discarded_items

    def merge(self, other: "CommGuardStats") -> None:
        """Accumulate *other*'s counters into this object."""
        for name in _COMMGUARD_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


_COMMGUARD_COUNTERS = tuple(f.name for f in fields(CommGuardStats))


@dataclass(slots=True)
class MemoryEvents:
    """Thread-level load/store accounting (Fig. 12 denominator)."""

    loads: int = 0
    stores: int = 0

    def merge(self, other: "MemoryEvents") -> None:
        self.loads += other.loads
        self.stores += other.stores


@dataclass(slots=True)
class ThreadCounters:
    """All counters a simulated thread accumulates during a run."""

    committed_instructions: int = 0
    firings: int = 0
    frame_computations: int = 0
    items_pushed: int = 0
    items_popped: int = 0
    stall_cycles: int = 0          # frame-boundary serialization (Section 5.3)
    spin_instructions: int = 0     # blocked-queue spinning
    memory: MemoryEvents = field(default_factory=MemoryEvents)
    commguard: CommGuardStats = field(default_factory=CommGuardStats)

    def merge(self, other: "ThreadCounters") -> None:
        self.committed_instructions += other.committed_instructions
        self.firings += other.firings
        self.frame_computations += other.frame_computations
        self.items_pushed += other.items_pushed
        self.items_popped += other.items_popped
        self.stall_cycles += other.stall_cycles
        self.spin_instructions += other.spin_instructions
        self.memory.merge(other.memory)
        self.commguard.merge(other.commguard)
