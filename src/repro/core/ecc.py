"""SEC-DED error-correcting code for 32-bit words.

The paper protects frame headers and the QM's shared working-set pointers
with word-sized ECC (Table 3: "Single-word ECC set/check").  We implement
the classic Hamming(38,32) + overall-parity construction, i.e. a 39-bit
SEC-DED codeword: any single-bit error is corrected, any double-bit error is
detected.

Codeword layout (bit 0 = LSB):
  * positions 1..38 follow the textbook Hamming layout: parity bits sit at
    power-of-two positions (1, 2, 4, 8, 16, 32) and data bits fill the rest;
  * position 0 holds the overall (even) parity over positions 1..38.

The code is linear over GF(2) — the codeword of ``a ^ b`` is the XOR of the
codewords of ``a`` and ``b`` — so the kernel is table-driven rather than
bit-serial: encoding XORs four 256-entry byte tables built at import from
the 32 single-bit basis codewords, decoding takes the syndrome from six
masked popcounts and gathers the data bits back through five byte tables.
"""

from __future__ import annotations

CODEWORD_BITS = 39

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, CODEWORD_BITS) if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == 32


class EccError(Exception):
    """Raised when a codeword holds an uncorrectable (double-bit) error."""


#: Per parity bit: the mask of every position 1..38 it covers, itself
#: included — a clean codeword has even parity under each mask.
_COVER_MASKS = tuple(
    (parity_bit, sum(1 << pos for pos in range(1, CODEWORD_BITS) if pos & parity_bit))
    for parity_bit in _PARITY_POSITIONS
)


def _basis_codeword(pos: int) -> int:
    """The codeword of the data bit stored at Hamming position *pos*."""
    codeword = 1 << pos
    for parity_bit in _PARITY_POSITIONS:
        if pos & parity_bit:
            codeword |= 1 << parity_bit
    return codeword | (codeword.bit_count() & 1)  # overall parity at bit 0


def _byte_tables(contributions: list[int]) -> tuple[tuple[int, ...], ...]:
    """One 256-entry table per byte of input: entry *b* XORs together the
    contributions of the set bits of *b* (bit ``8k + j`` of the input is
    ``contributions[8k + j]``)."""
    tables = []
    for base in range(0, len(contributions), 8):
        bits = contributions[base : base + 8]
        table = [0] * 256
        for byte in range(1, 256):
            low = (byte & -byte).bit_length() - 1
            table[byte] = table[byte & (byte - 1)] ^ bits[low]
        tables.append(tuple(table))
    return tuple(tables)


_E0, _E1, _E2, _E3 = _byte_tables([_basis_codeword(pos) for pos in _DATA_POSITIONS])

_DATA_INDEX = {pos: i for i, pos in enumerate(_DATA_POSITIONS)}
_D0, _D1, _D2, _D3, _D4 = _byte_tables(
    [
        1 << _DATA_INDEX[pos] if pos in _DATA_INDEX else 0
        for pos in range(CODEWORD_BITS + 1)  # padded to five whole bytes
    ]
)


def ecc_encode(data: int) -> int:
    """Encode a 32-bit word into a 39-bit SEC-DED codeword."""
    if not 0 <= data < (1 << 32):
        raise ValueError("ecc_encode expects a 32-bit word")
    return (
        _E0[data & 255]
        ^ _E1[(data >> 8) & 255]
        ^ _E2[(data >> 16) & 255]
        ^ _E3[data >> 24]
    )


def _extract_data(codeword: int) -> int:
    return (
        _D0[codeword & 255]
        | _D1[(codeword >> 8) & 255]
        | _D2[(codeword >> 16) & 255]
        | _D3[(codeword >> 24) & 255]
        | _D4[codeword >> 32]
    )


def ecc_decode(codeword: int) -> tuple[int, bool]:
    """Decode a 39-bit codeword, correcting a single-bit error if present.

    Returns ``(data, corrected)`` where *corrected* says whether a single-bit
    error was repaired.  Raises :class:`EccError` on a double-bit error.
    """
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError("ecc_decode expects a 39-bit codeword")
    syndrome = 0
    for parity_bit, mask in _COVER_MASKS:
        if (codeword & mask).bit_count() & 1:
            syndrome |= parity_bit
    overall = codeword.bit_count() & 1
    # overall == 0 means the stored overall-parity bit matches positions 1..38.
    if syndrome == 0:
        # overall == 1: only the overall parity bit itself flipped; data is
        # intact.
        return _extract_data(codeword), overall == 1
    if overall == 0:
        # Syndrome set but total parity even: two bits flipped.
        raise EccError(f"double-bit error detected (syndrome={syndrome:#x})")
    if syndrome >= CODEWORD_BITS:
        raise EccError(f"invalid syndrome {syndrome:#x}")
    return _extract_data(codeword ^ (1 << syndrome)), True


def flip_codeword_bit(codeword: int, bit: int) -> int:
    """Flip one bit of a codeword (used by tests and the error injector)."""
    if not 0 <= bit < CODEWORD_BITS:
        raise ValueError(f"bit index {bit} outside {CODEWORD_BITS}-bit codeword")
    return codeword ^ (1 << bit)
