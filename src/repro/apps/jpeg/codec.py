"""Baseline-JPEG-style image codec (encoder + reference decoder).

A real lossy DCT image codec with the computational structure of baseline
JPEG: BT.601 color conversion, 8x8 DCT, quality-scaled quantisation,
zigzag + run-length + canonical Huffman entropy coding with differential DC
prediction, using separate luma/chroma quantisation and Huffman tables.
The container is self-defined (DESIGN.md §3): Huffman tables are computed
per image (libjpeg "optimized" mode) and serialized in the header.

The block kernels here (:func:`dequantize_blocks`, :func:`idct_blocks`,
:func:`color_channel`, :func:`clamp_pixels`) and the entropy decoder
(:func:`decode_mcus`) are shared with the streaming decoder filters in
:mod:`repro.apps.jpeg.graph` and :mod:`repro.apps.jpeg.graph420`, so the
reference decoder and an error-free simulated run produce bit-identical
pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    subsampling: str = "444"  # "444" or "420"

    @property
    def blocks_x(self) -> int:
        return self.width // 8

    @property
    def blocks_y(self) -> int:
        return self.height // 8

    @property
    def mcu_side(self) -> int:
        """Pixels per MCU edge: 8 in 4:4:4, 16 in 4:2:0."""
        return 8 if self.subsampling == "444" else 16

    @property
    def mcus(self) -> int:
        return (self.width // self.mcu_side) * (self.height // self.mcu_side)

    def luma_table(self) -> np.ndarray:
        return quality_scaled_table(LUMINANCE_BASE, self.quality)

    def chroma_table(self) -> np.ndarray:
        return quality_scaled_table(CHROMINANCE_BASE, self.quality)

    def block_tables(self) -> np.ndarray:
        """Natural-order quantisation table of each block of an MCU, (n, 64)."""
        luma = self.luma_table().reshape(64)
        chroma = self.chroma_table().reshape(64)
        return np.stack(
            [luma if cls == "Y" else chroma for cls in MCU_COMPONENTS[self.subsampling]]
        )


def subsample_chroma(plane: np.ndarray) -> np.ndarray:
    """2x2 box average (the 4:2:0 chroma downsample)."""
    h, w = plane.shape
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def upsample_chroma_block(block8: Sequence[int]) -> list[int]:
    """Nearest-neighbour 2x upsampling: 8x8 samples -> 16x16 raster list."""
    out = [0] * 256
    for y in range(16):
        for x in range(16):
            out[y * 16 + x] = block8[(y // 2) * 8 + (x // 2)]
    return out


#: Components per MCU and their table class, by subsampling mode.  In
#: "420" an MCU covers 16x16 pixels: 4 luma blocks + 1 Cb + 1 Cr.
MCU_COMPONENTS = {"444": ("Y", "C", "C"), "420": ("Y", "Y", "Y", "Y", "C", "C")}
#: DC-predictor index per MCU component (JPEG predicts per color component).
MCU_PREDICTOR = {"444": (0, 1, 2), "420": (0, 0, 0, 0, 1, 2)}


def _collect_mcu_coefficients(
    image: np.ndarray, quality: int, subsampling: str = "444"
) -> tuple[list[list[list[int]]], int, int]:
    """Quantized zigzag coefficients for every MCU: [mcu][component][64]."""
    height, width, _ = image.shape
    mcu_px = 8 if subsampling == "444" else 16
    if width % mcu_px or height % mcu_px:
        raise ValueError(f"image dimensions must be multiples of {mcu_px}")
    ycbcr = rgb_to_ycbcr(image)
    luma = quality_scaled_table(LUMINANCE_BASE, quality)
    chroma = quality_scaled_table(CHROMINANCE_BASE, quality)
    mcus = []
    for by in range(height // mcu_px):
        for bx in range(width // mcu_px):
            window = ycbcr[
                by * mcu_px : (by + 1) * mcu_px, bx * mcu_px : (bx + 1) * mcu_px, :
            ]
            if subsampling == "444":
                components = [
                    quantize_block(window[..., comp], luma if comp == 0 else chroma)
                    for comp in range(3)
                ]
            else:
                y_plane = window[..., 0]
                components = [
                    quantize_block(y_plane[0:8, 0:8], luma),
                    quantize_block(y_plane[0:8, 8:16], luma),
                    quantize_block(y_plane[8:16, 0:8], luma),
                    quantize_block(y_plane[8:16, 8:16], luma),
                    quantize_block(subsample_chroma(window[..., 1]), chroma),
                    quantize_block(subsample_chroma(window[..., 2]), chroma),
                ]
            mcus.append(components)
    return mcus, width, height


def encode_image(
    image: np.ndarray, quality: int = 75, subsampling: str = "444"
) -> bytes:
    """Encode an RGB uint8 image into the container byte stream.

    ``subsampling`` selects 4:4:4 (one 8x8 block per component per MCU) or
    4:2:0 (16x16 MCUs, chroma box-averaged 2x2 — the common JPEG mode).
    """
    if subsampling not in MCU_COMPONENTS:
        raise ValueError(f"unknown subsampling {subsampling!r}")
    mcus, width, height = _collect_mcu_coefficients(image, quality, subsampling)
    classes = MCU_COMPONENTS[subsampling]
    predictor_of = MCU_PREDICTOR[subsampling]

    # Pass 1: symbol statistics for the four Huffman codes.
    freq = {"dc_l": {}, "ac_l": {}, "dc_c": {}, "ac_c": {}}
    predictors = [0, 0, 0]
    for components in mcus:
        for comp, coeffs in enumerate(components):
            dc_key = "dc_l" if classes[comp] == "Y" else "dc_c"
            ac_key = "ac_l" if classes[comp] == "Y" else "ac_c"
            pred = predictor_of[comp]
            triples = block_symbols(coeffs, predictors[pred])
            predictors[pred] = coeffs[0]
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
    writer.write_bits(0 if subsampling == "444" else 1, 8)
    for key in ("dc_l", "ac_l", "dc_c", "ac_c"):
        codes[key].serialize(writer)
    predictors = [0, 0, 0]
    for components in mcus:
        for comp, coeffs in enumerate(components):
            dc_code = codes["dc_l"] if classes[comp] == "Y" else codes["dc_c"]
            ac_code = codes["ac_l"] if classes[comp] == "Y" else codes["ac_c"]
            pred = predictor_of[comp]
            triples = block_symbols(coeffs, predictors[pred])
            predictors[pred] = coeffs[0]
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
    subsampling = "444" if reader.read_bits(8) == 0 else "420"
    codes = [CanonicalCode.deserialize(reader) for _ in range(4)]
    header = JpegHeader(width, height, quality, *codes, subsampling=subsampling)
    return header, reader


def decode_mcus(data: bytes) -> tuple[JpegHeader, list[list[int]]]:
    """Entropy-decode a whole container: its header and, per MCU, the zigzag
    coefficients of its blocks concatenated in component order (64 each).

    The one decoder of the codec: the reference decoder and the streaming
    parser node F0 both use it.
    """
    header, reader = parse_header(data)
    dc = {"Y": header.dc_luma.decoder(), "C": header.dc_chroma.decoder()}
    ac = {"Y": header.ac_luma.decoder(), "C": header.ac_chroma.decoder()}
    components = tuple(
        zip(MCU_COMPONENTS[header.subsampling], MCU_PREDICTOR[header.subsampling])
    )
    predictors = [0, 0, 0]
    mcus = []
    for _ in range(header.mcus):
        coeffs: list[int] = []
        for cls, pred in components:
            block, predictors[pred] = decode_block(
                reader, dc[cls], ac[cls], predictors[pred]
            )
            coeffs += block
        mcus.append(coeffs)
    return header, mcus


def assemble_y16(y_blocks: Sequence[Sequence[int]]) -> list[int]:
    """Four 8x8 luma blocks (TL, TR, BL, BR) -> one 16x16 raster list."""
    out = [0] * 256
    offsets = ((0, 0), (0, 8), (8, 0), (8, 8))
    for block, (oy, ox) in zip(y_blocks, offsets):
        for y in range(8):
            for x in range(8):
                out[(oy + y) * 16 + (ox + x)] = block[y * 8 + x]
    return out


#: The 4:2:0 upsampling stage (node F2U) as a gather: entry *i* of the
#: ``[Y16, Cb16, Cr16]`` output is sample ``UPSAMPLE_420[i]`` of the
#: ``[Y0, Y1, Y2, Y3, Cb, Cr]`` input (6 x 64 -> 3 x 256).
UPSAMPLE_420 = (
    assemble_y16([range(b * 64, b * 64 + 64) for b in range(4)])
    + upsample_chroma_block(range(256, 320))
    + upsample_chroma_block(range(320, 384))
)


def decode_image(data: bytes) -> np.ndarray:
    """Reference (error-free) decoder: container bytes -> RGB uint8 image.

    Runs the streaming pipeline's block kernels over every block at once,
    so its integer arithmetic is exactly the graphs' (both subsampling
    modes).
    """
    header, mcus = decode_mcus(data)
    n, side = len(mcus), header.mcu_side
    coeffs = np.array(mcus, dtype=np.int64).reshape(-1, 64)
    tables = np.tile(header.block_tables(), (n, 1))
    samples = idct_blocks(dequantize_blocks(coeffs, tables)).reshape(n, -1)
    if header.subsampling == "420":
        samples = samples[:, UPSAMPLE_420]
    ycc = samples.reshape(n, 3, side * side).transpose(1, 0, 2).reshape(3, -1)
    rgb = np.stack([clamp_pixels(color_channel(ycc, ch)) for ch in range(3)], axis=-1)
    rows, cols = header.height // side, header.width // side
    return (
        rgb.reshape(rows, cols, side, side, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(header.height, header.width, 3)
        .astype(np.uint8)
    )
