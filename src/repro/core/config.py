"""Configuration knobs for the CommGuard modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CommGuardConfig:
    """Design parameters of the CommGuard hardware (Sections 4 and 5).

    ``frame_scale``
        The saturating-counter downscaling factor for frame-computation
        frequency (Section 5.4).  ``1`` is the StreamIt-default frame size;
        ``2``/``4``/``8`` produce the "2x/4x/8x frame sizes" series of
        Figs. 10, 11 and 13.
    ``workset_units``
        Capacity of one queue working set (sub-region) in data units; full
        working sets hand off through the ECC-protected shared pointers
        (Table 3: 10 ECC ops), and the Header Inserter additionally
        publishes at every frame boundary (a cheaper shared-tail refresh).
        The paper divides a 320 KB region into 8 sub-regions; sub-region
        size is a free design knob.
    ``pad_word``
        The word the AM answers pops with while padding (Table 2: 0).

    The Queue Manager's blocked-operation timeouts (Section 5.1) are a
    machine parameter, :attr:`repro.machine.system.SystemConfig.timeout_sweeps`:
    a timed-out pop returns ``pad_word`` and a timed-out push drops the
    item.
    """

    frame_scale: int = 1
    workset_units: int = 256
    pad_word: int = 0

    def __post_init__(self) -> None:
        if self.frame_scale < 1:
            raise ValueError("frame_scale must be >= 1")
        if self.workset_units < 1:
            raise ValueError("workset_units must be >= 1")
