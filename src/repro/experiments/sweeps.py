"""Shared sweep parameters (Section 6 of the paper).

The paper varies per-core MTBE from 64k to 8192k instructions in powers of
two (its figure axes print "258" for what is evidently 256k), runs 5 seeds
per point, and scales frame sizes by 1x/2x/4x/8x via the saturating
counter.
"""

from __future__ import annotations

#: MTBE ladder of the data-loss figure (Fig. 8), in instructions.
MTBE_LADDER_LOSS = tuple(k * 1000 for k in (64, 128, 256, 512, 1024, 2048, 4096))

#: MTBE ladder of the quality figures (Figs. 9-11), in instructions.
MTBE_LADDER_QUALITY = MTBE_LADDER_LOSS + (8_192_000,)

#: Seeds per (app, MTBE, config) point, as in the paper.
PAPER_SEEDS = 5

#: Frame-size scaling factors (Section 5.4; Figs. 10, 11, 13).
FRAME_SCALES = (1, 2, 4, 8)

