"""32-bit machine-word helpers.

Every value travelling through a simulated queue is a 32-bit word, exactly as
in the paper's 32-bit x86 target.  Applications that stream floating-point
samples store them as IEEE-754 single-precision bit patterns; applications
that stream integers store them as two's-complement 32-bit values.  Keeping
everything in word form is what makes *bit-level* error injection meaningful:
a register-file bit flip is a flip of one bit of one word.
"""

from __future__ import annotations

import math
import struct

import numpy as np

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")

#: The one NaN pattern :func:`float_to_word` encodes.
_NAN_WORD = 0x7FC00000


def float_to_word(value: float) -> int:
    """Encode a Python float as a 32-bit IEEE-754 single-precision word.

    Values outside float32 range saturate to +/-inf the way a hardware float
    unit would; NaNs are preserved.
    """
    if math.isnan(value):
        return _NAN_WORD
    try:
        packed = _F32.pack(value)
    except OverflowError:
        packed = _F32.pack(math.inf if value > 0 else -math.inf)
    return _U32.unpack(packed)[0]


def word_to_float(word: int) -> float:
    """Decode a 32-bit word as an IEEE-754 single-precision float."""
    return _F32.unpack(_U32.pack(word & WORD_MASK))[0]


def words_to_float_array(words) -> np.ndarray:
    """The batched :func:`word_to_float`: decode 32-bit words (each in
    ``[0, 2**32)``, as every word a queue carries is) as float32 values,
    returned as a float64 array holding exactly the floats the scalar
    function returns (silencing numpy's warning on signalling NaNs)."""
    single = np.asarray(words, dtype=np.uint32).view(np.float32)
    with np.errstate(invalid="ignore"):
        return single.astype(np.float64)


def float_array_to_words(values: np.ndarray) -> list[int]:
    """The batched :func:`float_to_word`: encode an array of floats as
    float32 words, returned as Python ints of the array's shape (nested
    lists for more than one dimension).

    Bit for bit the scalar function: values beyond float32 range saturate
    to +/-inf (silencing numpy's cast warning), and every NaN becomes the
    one NaN pattern ``0x7FC00000``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        single = np.asarray(values, dtype=np.float64).astype(np.float32)
    words = single.view(np.uint32)
    nan = np.isnan(single)
    if nan.any():
        words = np.where(nan, np.uint32(_NAN_WORD), words)
    return words.tolist()


def int_to_word(value: int) -> int:
    """Encode a Python int as a two's-complement 32-bit word (truncating)."""
    return value & WORD_MASK


def word_to_int(word: int) -> int:
    """Decode a 32-bit word as a signed two's-complement integer."""
    word &= WORD_MASK
    return word - (1 << WORD_BITS) if word & (1 << (WORD_BITS - 1)) else word


def word_to_uint(word: int) -> int:
    """Decode a 32-bit word as an unsigned integer."""
    return word & WORD_MASK


def flip_bit(word: int, bit: int) -> int:
    """Flip bit *bit* (0 = LSB) of a 32-bit word."""
    if not 0 <= bit < WORD_BITS:
        raise ValueError(f"bit index {bit} outside word of {WORD_BITS} bits")
    return (word ^ (1 << bit)) & WORD_MASK


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two words."""
    return ((a ^ b) & WORD_MASK).bit_count()
