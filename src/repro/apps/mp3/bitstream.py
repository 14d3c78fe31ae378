"""Container bitstream for the mp3-style codec.

Layout (MSB-first bits):

* magic (16) = 0x4D41 ("MA"), frame count (16), channel count (8),
  bit-allocation table (32 x 4 bits).  The stream is mono: the channel
  count is always 1, and a reader rejects any other value.
* per frame: 32 scalefactor indices (6 bits each), then for each of the
  12 sample instants, each transmitted band's code (band's allocated
  bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.jpeg.bitio import BitReader, BitWriter
from repro.apps.mp3.filterbank import N_BANDS
from repro.apps.mp3.quantize import SAMPLES_PER_BAND

MAGIC = 0x4D41
CHANNELS = 1


@dataclass(frozen=True)
class Mp3Header:
    n_frames: int
    bit_allocation: tuple[int, ...]


def write_header(writer: BitWriter, n_frames: int, bit_allocation: list[int]) -> None:
    writer.write_bits(MAGIC, 16)
    writer.write_bits(n_frames, 16)
    writer.write_bits(CHANNELS, 8)
    for bits in bit_allocation:
        writer.write_bits(bits, 4)


def read_header(reader: BitReader) -> Mp3Header:
    if reader.read_bits(16) != MAGIC:
        raise ValueError("not a repro-mp3 stream")
    n_frames = reader.read_bits(16)
    if reader.read_bits(8) != CHANNELS:
        raise ValueError("not a mono repro-mp3 stream")
    allocation = tuple(reader.read_bits(4) for _ in range(N_BANDS))
    return Mp3Header(n_frames=n_frames, bit_allocation=allocation)


def write_frame(
    writer: BitWriter,
    scalefactor_indices: list[int],
    codes: list[list[int]],
    bit_allocation: tuple[int, ...] | list[int],
) -> None:
    """Serialize one frame: scalefactors then sample-major band codes."""
    for index in scalefactor_indices:
        writer.write_bits(index, 6)
    for s in range(SAMPLES_PER_BAND):
        for band in range(N_BANDS):
            bits = bit_allocation[band]
            if bits:
                writer.write_bits(codes[band][s], bits)


def read_frame(
    reader: BitReader, bit_allocation: tuple[int, ...]
) -> tuple[list[int], list[list[int]]]:
    """Deserialize one frame; returns (scalefactor indices, codes[band][s])."""
    scalefactors = [reader.read_bits(6) for _ in range(N_BANDS)]
    codes: list[list[int]] = [[] for _ in range(N_BANDS)]
    for _s in range(SAMPLES_PER_BAND):
        for band in range(N_BANDS):
            bits = bit_allocation[band]
            codes[band].append(reader.read_bits(bits) if bits else 0)
    return scalefactors, codes
