"""Tables 1-3 and the Section 5.5 storage estimate.

Table 1 is the AM FSM; ``tests/core/test_fsm.py`` checks the implemented
transition table against it.  Tables 2 and 3 enumerate CommGuard
suboperations per interface event; ``tests/experiments/test_figures.py``
drives a probe producer/consumer pair through push / pop /
new-frame-computation events and pins the suboperations each incurs.
Section 5.5's ~82-byte reliable-storage estimate is graded here,
recomputed from the QIT model.
"""

from __future__ import annotations

from repro.experiments.registry import register_figure


def paper_targets():
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="tables.reliable_storage",
            figure="tables",
            description="reliable on-core storage for 4 queues (~82 B)",
            paper_value=656.0,
            unit="bits",
            band=ToleranceBand(pass_within=0.1, warn_within=0.25, relative=True),
            measure=Measurement("storage_bits"),
            source="Section 5.5 (~82 bytes)",
        ),
    )


register_figure(
    "tables",
    module=__name__,
    description="Tables 1-3 + storage estimate",
    paper_section="Sections 4-5 / Tables 1-3",
)

