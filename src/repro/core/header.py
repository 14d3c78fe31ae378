"""Queue data units: regular items and ECC-protected frame headers.

A queue transports *data units*.  A unit is either a regular 32-bit item or
a frame header.  In hardware the distinction is a small "header bit" of
metadata travelling with the word (Table 3: the header-bit check is the most
frequent CommGuard suboperation); headers additionally carry a SEC-DED ECC
so a corrupted header never silently misleads the Alignment Manager.

Units are packed integers (hot path of the whole simulator):

* item unit:   bits 0..31 hold the word; the header flag is clear.
* header unit: bits 0..38 hold the 39-bit ECC codeword of the frame ID;
  bit 40 (``HEADER_FLAG``) is set.

The header's payload is the frame ID — the producer's ``active-fc`` at
insertion time; the reserved ID ``END_OF_COMPUTATION`` marks the end of the
producer thread's computation (Section 4.1).  The flag bit and the header
payload are assumed reliably transmitted end-to-end (headers are ECC
protected; the paper's Section 6 makes the same assumption), while item
payloads are exposed to the error injector.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.ecc import EccError, ecc_decode, ecc_encode
from repro.words import WORD_MASK

#: Reserved frame ID signalling "this producer has finished its computation".
END_OF_COMPUTATION = WORD_MASK

#: Flag bit distinguishing headers from items (above the 39-bit codeword).
HEADER_FLAG = 1 << 40

_CODEWORD_MASK = (1 << 39) - 1

#: Type alias for documentation purposes: a packed queue data unit.
DataUnit = int


def item_unit(word: int) -> DataUnit:
    """Wrap a 32-bit word as a regular queue item."""
    return word & WORD_MASK


@lru_cache(maxsize=4096)
def header_unit(frame_id: int) -> DataUnit:
    """Build an ECC-protected frame-header unit for *frame_id*.

    Memoised, so the queues, Header Inserters and Alignment Managers of a
    run encode each frame's header once: a run's threads stay within a
    few frames of each other (queue capacity bounds the lag), far inside
    the cache's bound, which caps what a long-lived process keeps.
    """
    if not 0 <= frame_id <= END_OF_COMPUTATION:
        raise ValueError(f"frame id {frame_id} out of 32-bit range")
    return HEADER_FLAG | ecc_encode(frame_id)


def is_header_unit(unit: DataUnit) -> bool:
    """The header-bit check (Table 3's most frequent suboperation)."""
    return bool(unit & HEADER_FLAG)


def unit_word(unit: DataUnit) -> int:
    """The 32-bit payload of a regular item unit."""
    return unit & WORD_MASK


def header_frame_id(unit: DataUnit) -> int:
    """Decode the frame ID of a header unit (ECC-corrected).

    Raises :class:`repro.core.ecc.EccError` on an uncorrectable header and
    :class:`ValueError` when called on a regular item.
    """
    if not is_header_unit(unit):
        raise ValueError("header_frame_id() called on a non-header unit")
    data, _corrected = ecc_decode(unit & _CODEWORD_MASK)
    return data


def is_end_of_computation(unit: DataUnit) -> bool:
    """True when *unit* is the producer's end-of-computation header."""
    if not is_header_unit(unit):
        return False
    try:
        return header_frame_id(unit) == END_OF_COMPUTATION
    except EccError:
        return False
