"""CommGuard: the paper's contribution.

This package implements the three reliable hardware modules the paper adds
to each PPU core — the Header Inserter (HI), the Alignment Manager (AM) and
the Queue Manager (QM) — plus their supporting structures: the SEC-DED ECC
used for headers and shared queue pointers, the frame-header data-unit
encoding, the AM's five-state FSM (Table 1 of the paper), the Queue
Information Table (QIT) and the suboperation accounting of Tables 2 and 3.
"""

from repro.core.alignment_manager import AlignmentManager
from repro.core.config import CommGuardConfig
from repro.core.ecc import EccError, ecc_decode, ecc_encode
from repro.core.fsm import AlignmentEvent, AlignmentState, transition
from repro.core.guard import CommGuard
from repro.core.header import (
    END_OF_COMPUTATION,
    DataUnit,
    header_unit,
    item_unit,
)
from repro.core.header_inserter import HeaderInserter
from repro.core.qit import QueueInfoTable
from repro.core.queue_manager import QueueManager
from repro.core.stats import CommGuardStats

__all__ = [
    "AlignmentEvent",
    "AlignmentManager",
    "AlignmentState",
    "CommGuard",
    "CommGuardConfig",
    "CommGuardStats",
    "DataUnit",
    "EccError",
    "END_OF_COMPUTATION",
    "HeaderInserter",
    "QueueInfoTable",
    "QueueManager",
    "ecc_decode",
    "ecc_encode",
    "header_unit",
    "item_unit",
    "transition",
]
