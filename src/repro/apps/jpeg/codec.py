"""Baseline-JPEG-style image codec (encoder + reference decoder).

A real lossy DCT image codec with the computational structure of baseline
JPEG: BT.601 color conversion, 8x8 DCT, quality-scaled quantisation,
zigzag + run-length + canonical Huffman entropy coding with differential DC
prediction, using separate luma/chroma quantisation and Huffman tables.
The container is self-defined (DESIGN.md §3): Huffman tables are computed
per image (libjpeg "optimized" mode) and serialized in the header.  Every
MCU is one 8x8 block of each of Y, Cb and Cr (4:4:4); the header's mode
byte is always 0, and a reader rejects any other value.

The block kernels here (:func:`dequantize_blocks`, :func:`idct_blocks`,
:func:`color_channel`, :func:`clamp_pixels`) and the entropy decoder
(:func:`decode_mcus`) are shared with the streaming decoder filters in
:mod:`repro.apps.jpeg.graph`, so the reference decoder and an error-free
simulated run produce bit-identical pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.jpeg.bitio import BitReader, BitWriter
from repro.apps.jpeg.dct import forward_dct, inverse_dct
from repro.apps.jpeg.huffman import CanonicalCode, HuffmanDecoder
from repro.apps.jpeg.tables import (
    CHROMINANCE_BASE,
    LUMINANCE_BASE,
    ZIGZAG,
    quality_scaled_table,
)

MAGIC = 0x4A50  # "JP"
MODE_444 = 0  # the header's mode byte: every MCU is one block per component
EOB = 0x00  # end-of-block AC symbol
ZRL = 0xF0  # zero-run-length-16 AC symbol


# -- color space ----------------------------------------------------------------


def rgb_to_ycbcr(image: np.ndarray) -> np.ndarray:
    """BT.601 full-range RGB -> YCbCr (float64, Cb/Cr biased by +128)."""
    rgb = np.asarray(image, dtype=np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


# -- block transforms -------------------------------------------------------------


def quantize_block(block: np.ndarray, table: np.ndarray) -> list[int]:
    """Forward DCT + quantisation; returns 64 zigzag-ordered coefficients."""
    coefficients = forward_dct(np.asarray(block, dtype=np.float64) - 128.0)
    quantized = np.round(coefficients / table).astype(np.int64)
    flat = quantized.reshape(64)
    return [int(flat[idx]) for idx in ZIGZAG]


# The decoder's block kernels (nodes F1, F2, F3 and F5) map int64 arrays to
# int64 arrays, one block (or one plane) per row.  The streaming filters feed
# them whatever words arrive, and bit flips and garbage loads make those span
# the full signed 32-bit range; every intermediate still fits int64 exactly:
# |coefficient| <= 2**31, times a table entry <= 255 stays below 2**39, and
# |IDCT output| < 2**37.


def dequantize_blocks(coeffs: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Zigzag coefficients -> natural-order dequantized levels (node F1).

    ``coeffs`` holds one block's 64 zigzag-ordered coefficients per row,
    ``tables`` the matching natural-order quantisation tables.
    """
    levels = np.empty_like(coeffs)
    levels[:, ZIGZAG] = coeffs * tables[:, ZIGZAG]
    return levels


def idct_blocks(levels: np.ndarray) -> np.ndarray:
    """Inverse DCT + level shift, rounded half-to-even (node F2).

    One :func:`inverse_dct` call per block: a stacked matmul may round
    differently.  Values are *not* clamped here; clamping is F5's job, as
    in the graph.
    """
    pixels = np.empty(levels.shape)
    for row, block in zip(pixels, levels):
        row[:] = inverse_dct(block).reshape(64)
    return np.round(pixels + 128.0).astype(np.int64)


def color_channel(ycc: np.ndarray, channel: int) -> np.ndarray:
    """One RGB channel from rows of Y, Cb and Cr samples (nodes F3R/F3G/F3B).

    Float64 arithmetic in the order of the scalar formulas, rounded
    half-to-even like Python's ``round``.
    """
    y, cb, cr = ycc.astype(np.float64)
    if channel == 0:  # R
        value = y + 1.402 * (cr - 128.0)
    elif channel == 1:  # G
        value = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    else:  # B
        value = y + 1.772 * (cb - 128.0)
    return np.round(value).astype(np.int64)


def clamp_pixels(values: np.ndarray) -> np.ndarray:
    """Saturate to the 8-bit pixel range (node F5)."""
    return np.clip(values, 0, 255)


# -- amplitude (magnitude-category) coding ----------------------------------------


def bit_size(value: int) -> int:
    """JPEG magnitude category: number of bits to represent |value|."""
    return abs(value).bit_length()


def encode_amplitude(writer: BitWriter, value: int, size: int) -> None:
    """JPEG-style amplitude bits: negatives stored as value + 2^size - 1."""
    if size == 0:
        return
    if value < 0:
        value += (1 << size) - 1
    writer.write_bits(value, size)


def decode_amplitude(reader: BitReader, size: int) -> int:
    if size == 0:
        return 0
    value = reader.read_bits(size)
    if value < (1 << (size - 1)):
        value -= (1 << size) - 1
    return value


# -- block entropy coding ----------------------------------------------------------


def block_symbols(zigzag_coeffs: list[int], dc_predictor: int) -> list[tuple[int, int, int]]:
    """Symbol stream for one block: (symbol, amplitude, size) triples.

    The first triple is the DC (symbol == size of the DC difference); the
    rest are AC (run, size) symbols, ZRL and EOB as in baseline JPEG.
    """
    triples = []
    diff = zigzag_coeffs[0] - dc_predictor
    size = bit_size(diff)
    triples.append((size, diff, size))
    run = 0
    last_nonzero = 0
    for pos in range(63, 0, -1):
        if zigzag_coeffs[pos]:
            last_nonzero = pos
            break
    for pos in range(1, last_nonzero + 1):
        value = zigzag_coeffs[pos]
        if value == 0:
            run += 1
            if run == 16:
                triples.append((ZRL, 0, 0))
                run = 0
            continue
        size = bit_size(value)
        triples.append(((run << 4) | size, value, size))
        run = 0
    if last_nonzero < 63:
        triples.append((EOB, 0, 0))
    return triples


def decode_block(
    reader: BitReader,
    dc_decoder: HuffmanDecoder,
    ac_decoder: HuffmanDecoder,
    dc_predictor: int,
) -> tuple[list[int], int]:
    """Decode one block's 64 zigzag coefficients; returns (coeffs, new DC)."""
    coeffs = [0] * 64
    size = dc_decoder.decode_symbol(reader)
    diff = decode_amplitude(reader, size)
    dc = dc_predictor + diff
    coeffs[0] = dc
    pos = 1
    while pos < 64:
        symbol = ac_decoder.decode_symbol(reader)
        if symbol == EOB:
            break
        if symbol == ZRL:
            pos += 16
            continue
        run, size = symbol >> 4, symbol & 0xF
        pos += run
        if pos >= 64:
            break
        coeffs[pos] = decode_amplitude(reader, size)
        pos += 1
    return coeffs, dc


# -- container ---------------------------------------------------------------------


@dataclass(frozen=True)
class JpegHeader:
    """Parsed container header."""

    width: int
    height: int
    quality: int
    dc_luma: CanonicalCode
    ac_luma: CanonicalCode
    dc_chroma: CanonicalCode
    ac_chroma: CanonicalCode

    @property
    def blocks_x(self) -> int:
        return self.width // 8

    @property
    def blocks_y(self) -> int:
        return self.height // 8

    @property
    def mcus(self) -> int:
        return self.blocks_x * self.blocks_y

    def luma_table(self) -> np.ndarray:
        return quality_scaled_table(LUMINANCE_BASE, self.quality)

    def chroma_table(self) -> np.ndarray:
        return quality_scaled_table(CHROMINANCE_BASE, self.quality)

    def block_tables(self) -> np.ndarray:
        """Natural-order quantisation table of each block of an MCU, (n, 64)."""
        luma = self.luma_table().reshape(64)
        chroma = self.chroma_table().reshape(64)
        return np.stack([luma if cls == "Y" else chroma for cls in MCU_COMPONENTS])


#: The table class of each block of an MCU: one 8x8 block of Y, Cb and
#: Cr.  Each component predicts its own DC.
MCU_COMPONENTS = ("Y", "C", "C")


def _collect_mcu_coefficients(
    image: np.ndarray, quality: int
) -> tuple[list[list[list[int]]], int, int]:
    """Quantized zigzag coefficients for every MCU: [mcu][component][64]."""
    height, width, _ = image.shape
    if width % 8 or height % 8:
        raise ValueError("image dimensions must be multiples of 8")
    ycbcr = rgb_to_ycbcr(image)
    luma = quality_scaled_table(LUMINANCE_BASE, quality)
    chroma = quality_scaled_table(CHROMINANCE_BASE, quality)
    mcus = []
    for by in range(height // 8):
        for bx in range(width // 8):
            window = ycbcr[by * 8 : (by + 1) * 8, bx * 8 : (bx + 1) * 8, :]
            mcus.append(
                [
                    quantize_block(window[..., comp], luma if comp == 0 else chroma)
                    for comp in range(3)
                ]
            )
    return mcus, width, height


def encode_image(image: np.ndarray, quality: int = 75) -> bytes:
    """Encode an RGB uint8 image into the container byte stream."""
    mcus, width, height = _collect_mcu_coefficients(image, quality)

    # Pass 1: symbol statistics for the four Huffman codes.
    freq = {"dc_l": {}, "ac_l": {}, "dc_c": {}, "ac_c": {}}
    predictors = [0, 0, 0]
    for components in mcus:
        for comp, coeffs in enumerate(components):
            dc_key = "dc_l" if MCU_COMPONENTS[comp] == "Y" else "dc_c"
            ac_key = "ac_l" if MCU_COMPONENTS[comp] == "Y" else "ac_c"
            triples = block_symbols(coeffs, predictors[comp])
            predictors[comp] = coeffs[0]
            freq[dc_key][triples[0][0]] = freq[dc_key].get(triples[0][0], 0) + 1
            for symbol, _, _ in triples[1:]:
                freq[ac_key][symbol] = freq[ac_key].get(symbol, 0) + 1
    for table in freq.values():  # guarantee at least EOB-style fallback symbol
        if not table:
            table[0] = 1
    codes = {key: CanonicalCode.from_frequencies(f) for key, f in freq.items()}

    # Pass 2: serialize.
    writer = BitWriter()
    writer.write_bits(MAGIC, 16)
    writer.write_bits(width, 16)
    writer.write_bits(height, 16)
    writer.write_bits(quality, 8)
    writer.write_bits(MODE_444, 8)
    for key in ("dc_l", "ac_l", "dc_c", "ac_c"):
        codes[key].serialize(writer)
    predictors = [0, 0, 0]
    for components in mcus:
        for comp, coeffs in enumerate(components):
            dc_code = codes["dc_l"] if MCU_COMPONENTS[comp] == "Y" else codes["dc_c"]
            ac_code = codes["ac_l"] if MCU_COMPONENTS[comp] == "Y" else codes["ac_c"]
            triples = block_symbols(coeffs, predictors[comp])
            predictors[comp] = coeffs[0]
            symbol, amplitude, size = triples[0]
            dc_code.encode_symbol(writer, symbol)
            encode_amplitude(writer, amplitude, size)
            for symbol, amplitude, size in triples[1:]:
                ac_code.encode_symbol(writer, symbol)
                encode_amplitude(writer, amplitude, size)
    return writer.getvalue()


def parse_header(data: bytes) -> tuple[JpegHeader, BitReader]:
    """Parse the container header; returns the header and a positioned reader."""
    reader = BitReader(data)
    if reader.read_bits(16) != MAGIC:
        raise ValueError("not a repro-jpeg stream")
    width = reader.read_bits(16)
    height = reader.read_bits(16)
    quality = reader.read_bits(8)
    if reader.read_bits(8) != MODE_444:
        raise ValueError("not a 4:4:4 repro-jpeg stream")
    codes = [CanonicalCode.deserialize(reader) for _ in range(4)]
    return JpegHeader(width, height, quality, *codes), reader


def decode_mcus(data: bytes) -> tuple[JpegHeader, list[list[int]]]:
    """Entropy-decode a whole container: its header and, per MCU, the zigzag
    coefficients of its blocks concatenated in component order (64 each).

    The one decoder of the codec: the reference decoder and the streaming
    parser node F0 both use it.
    """
    header, reader = parse_header(data)
    dc = {"Y": header.dc_luma.decoder(), "C": header.dc_chroma.decoder()}
    ac = {"Y": header.ac_luma.decoder(), "C": header.ac_chroma.decoder()}
    predictors = [0, 0, 0]
    mcus = []
    for _ in range(header.mcus):
        coeffs: list[int] = []
        for comp, cls in enumerate(MCU_COMPONENTS):
            block, predictors[comp] = decode_block(
                reader, dc[cls], ac[cls], predictors[comp]
            )
            coeffs += block
        mcus.append(coeffs)
    return header, mcus


def decode_image(data: bytes) -> np.ndarray:
    """Reference (error-free) decoder: container bytes -> RGB uint8 image.

    Runs the streaming pipeline's block kernels over every block at once,
    so its integer arithmetic is exactly the graph's.
    """
    header, mcus = decode_mcus(data)
    n = len(mcus)
    coeffs = np.array(mcus, dtype=np.int64).reshape(-1, 64)
    tables = np.tile(header.block_tables(), (n, 1))
    samples = idct_blocks(dequantize_blocks(coeffs, tables))
    ycc = samples.reshape(n, 3, 64).transpose(1, 0, 2).reshape(3, -1)
    rgb = np.stack([clamp_pixels(color_channel(ycc, ch)) for ch in range(3)], axis=-1)
    return (
        rgb.reshape(header.blocks_y, header.blocks_x, 8, 8, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(header.height, header.width, 3)
        .astype(np.uint8)
    )
