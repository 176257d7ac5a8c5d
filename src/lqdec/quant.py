"""Blockwise NormalFloat quantization with two-level scale compression.

A matrix is flattened row-major and cut into blocks of B0 entries.  Each
block stores its absolute maximum s and codes every entry as the nearest
codebook level of u / s.  The vector of block scales is itself quantized:
groups of B1 consecutive scales share one group maximum v, each scale is
coded as an unsigned integer on a uniform [0, v] grid, and v is stored in
a reduced float format.  Storage cost per parameter is therefore

    b0 + b1 / B0 + width(b2) / (B0 * B1)

exactly, which `storage_bits_per_param` reports as a rational number.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codebook import SUPPORTED_BITS, build_codebook
from .errors import FormatError
from .packing import pack_bits, packed_size, padding_is_zero, unpack_bits

# Reduced float formats usable for group scales, tag -> bit width.
FLOAT_FORMATS = {"fp32": 32, "fp16": 16, "bf16": 16}

_FP16_MAX = 65504.0
_BF16_MAX_BITS = np.uint32(0x7F7F0000)  # largest finite bf16, widened


@dataclass(frozen=True)
class QuantConfig:
    """Full description of one double-quantization setting."""

    b0: int
    b1: int
    b2: str
    B0: int
    B1: int

    def __post_init__(self):
        # exact int: JSON gives floats and booleans as written, and
        # 3.0 in SUPPORTED_BITS holds
        if not (type(self.b0) is type(self.b1) is type(self.B0) is type(self.B1) is int):
            raise ValueError(f"b0, b1, B0 and B1 must be integers, got {self.as_tuple()!r}")
        if self.b0 not in SUPPORTED_BITS:
            raise ValueError(f"b0 must be one of {SUPPORTED_BITS}, got {self.b0}")
        if self.b1 not in SUPPORTED_BITS:
            raise ValueError(f"b1 must be one of {SUPPORTED_BITS}, got {self.b1}")
        if not isinstance(self.b2, str) or self.b2 not in FLOAT_FORMATS:
            raise ValueError(f"b2 must be one of {sorted(FLOAT_FORMATS)}, got {self.b2!r}")
        if self.B0 < 1 or self.B1 < 1:
            raise ValueError("block sizes B0 and B1 must be positive")

    @classmethod
    def parse(cls, text: str) -> "QuantConfig":
        """Parse the CLI form 'b0,b1,b2,B0,B1', e.g. '4,8,fp32,64,256'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 5:
            raise ValueError(f"config must have 5 comma-separated fields, got {text!r}")
        try:
            return cls(int(parts[0]), int(parts[1]), parts[2], int(parts[3]), int(parts[4]))
        except ValueError as exc:
            raise ValueError(f"bad config {text!r}: {exc}") from exc

    def label(self) -> str:
        return f"{self.b0},{self.b1},{self.b2},{self.B0},{self.B1}"

    def as_tuple(self):
        return (self.b0, self.b1, self.b2, self.B0, self.B1)

    @functools.cached_property
    def bits_ratio(self):
        """Exact storage cost in bits per matrix entry as (numerator, denominator).

        The cost is ((b0 * B0 + b1) * B1 + width(b2)) / (B0 * B1), returned
        in lowest terms.  The allocator reads the cost of every grid config
        on each solve; a frozen config's cost never changes, so it is
        derived once, on first use.
        """
        num = (self.b0 * self.B0 + self.b1) * self.B1 + FLOAT_FORMATS[self.b2]
        den = self.B0 * self.B1
        g = math.gcd(num, den)
        return num // g, den // g


def storage_bits_per_param(cfg: QuantConfig) -> Fraction:
    """Exact storage cost in bits per matrix entry."""
    return Fraction(*cfg.bits_ratio)


def container_counts(rows: int, cols: int, cfg: QuantConfig):
    """(entries, blocks, groups) of a rows x cols matrix under cfg."""
    n = rows * cols
    n_blocks = -(-n // cfg.B0)
    n_groups = -(-n_blocks // cfg.B1)
    return n, n_blocks, n_groups


def cast_float(values, fmt: str) -> np.ndarray:
    """Round values to a reduced float format, returned widened to fp32.

    Rounding is to nearest, ties to even; out-of-range magnitudes
    saturate to the largest finite value of the target format.
    """
    if fmt not in FLOAT_FORMATS:
        raise ValueError(f"unknown float format {fmt!r}")
    arr = np.asarray(values, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cast_float requires finite inputs")
    if fmt == "fp32":
        return arr.copy()
    if fmt == "fp16":
        clipped = np.clip(arr, -_FP16_MAX, _FP16_MAX)
        return clipped.astype(np.float16).astype(np.float32)
    bits = arr.view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    rounded = rounded.astype(np.uint32) << np.uint32(16)
    overflowed = (rounded & np.uint32(0x7F800000)) == np.uint32(0x7F800000)
    rounded = np.where(overflowed, (rounded & np.uint32(0x80000000)) | _BF16_MAX_BITS, rounded)
    return rounded.view(np.float32)


# Entries per chunk of the entry-level kernels: a chunk's float64
# temporaries (256 KiB) stay in a core's L2 cache instead of spanning
# the matrix.  32k and 64k entries were equally fast at 512^2 and
# 512x1376 on a 2 MiB-L2 Xeon, 16k entries 10-15% slower.
_CHUNK_ENTRIES = 1 << 15


def _chunks(n: int, size: int) -> list:
    """(entry slice, block slice, row width) per chunk of n entries in blocks.

    Blocks hold `size` entries, capped at n, so memory follows the entry
    count for any block size.  A chunk is about _CHUNK_ENTRIES entries of
    whole blocks, or the partial last block alone, so that
    ``flat[entries].reshape(-1, width)`` is a view with one block per row.
    No entries, no chunks.
    """
    width = max(1, min(size, n))
    whole = n // width
    edges = [*range(0, whole, max(1, _CHUNK_ENTRIES // width)), whole]
    chunks = [(slice(a * width, b * width), slice(a, b), width) for a, b in zip(edges, edges[1:])]
    if whole * width < n:
        chunks.append((slice(whole * width, n), slice(whole, whole + 1), n - whole * width))
    return chunks


def _unsigned_codes(values: np.ndarray, bits: int, group_size: int):
    """Uniform unsigned round-to-nearest codes of a nonnegative float64 vector.

    Per group of `group_size` entries the step is max(group) / (2**bits - 1)
    and each code is round(value / step), half away from zero, clamped to
    [0, 2**bits - 1]; all-zero groups get zero codes and step.  Returns
    (codes, group maxima, steps).  Entries reconstruct as (code * group_max)
    / (2**bits - 1): multiplying first keeps a float32 group maximum exact.
    """
    n = values.size
    gmax = np.maximum.reduceat(values, np.arange(0, n, group_size, dtype=np.int64))
    levels = (1 << bits) - 1
    steps = gmax / levels
    # each group's step spread over its entries, the quotients written
    # over it; an infinite divisor gives the zero a skipped division would
    x = np.repeat(np.where(steps > 0, steps, np.inf), min(group_size, n))[:n]
    np.divide(values, x, out=x)
    # round half away from zero; inputs are nonnegative
    np.floor(np.add(x, 0.5, out=x), out=x)
    return np.clip(x, 0, levels, out=x).astype(np.uint8), gmax, steps


@dataclass(frozen=True)
class QuantizedMatrix:
    """Container for one quantized matrix, immutable after construction."""

    rows: int
    cols: int
    config: QuantConfig
    codes: bytes
    s_codes: bytes
    group_scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise FormatError("matrix dimensions must be positive")
        cfg = self.config
        n, n_blocks, n_groups = container_counts(self.rows, self.cols, cfg)
        for name, stream, size in (("code", self.codes, packed_size(n, cfg.b0)),
                                   ("scale-code", self.s_codes, packed_size(n_blocks, cfg.b1))):
            if len(stream) != size:
                raise FormatError(f"{name} stream holds {len(stream)} bytes, expected {size}")
        scales = np.ascontiguousarray(self.group_scales, dtype=np.float32)
        if scales.shape != (n_groups,):
            raise FormatError(f"expected {n_groups} group scales, got {scales.shape}")
        if not np.all(np.isfinite(scales)) or np.any(scales < 0):
            raise FormatError("group scales must be finite and nonnegative")
        scales.flags.writeable = False
        object.__setattr__(self, "group_scales", scales)


def nearest_level_codes(normalized, codebook) -> np.ndarray:
    """Index of the nearest codebook level for each value in [-1, 1].

    A value sitting exactly on the midpoint between two levels takes the
    lower index.  The code is the count of midpoints strictly below the
    value, as ``np.searchsorted(midpoints, values, side="left")`` gives
    it for non-NaN values.
    """
    values = np.asarray(normalized, dtype=np.float64)
    codes = np.zeros(values.shape, dtype=np.uint8)
    above = np.empty(values.shape, dtype=bool)
    for mid in codebook.midpoints:
        np.greater(values, mid, out=above)
        codes += above.view(np.uint8)
    return codes


def _encode(m, cfg: QuantConfig):
    """Unpacked codes of a float32 matrix under one config.

    Returns (entry codes, per-block scales, pack): flat uint8 codes,
    float64 scales as `_block_scales` reconstructs them, and ``pack()``,
    the one packing path, building the container of the codes.
    """
    a = np.ascontiguousarray(m, dtype=np.float32)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    cb = build_codebook(cfg.b0)
    flat = a.reshape(-1)
    chunks = _chunks(a.size, cfg.B0)
    # block starts within a chunk; no chunk holds more blocks than the first
    starts = np.arange(0, chunks[0][0].stop, chunks[0][2])

    # abs and max are exact in float32, and a NaN or infinity survives
    # into its block's maximum; taken per chunk, so no |W| copy is made
    absmax = np.empty(container_counts(*a.shape, cfg)[1], dtype=np.float64)
    for ent, blk, _ in chunks:
        absmax[blk] = np.maximum.reduceat(np.abs(flat[ent]), starts[:blk.stop - blk.start])
    if not np.all(np.isfinite(absmax)):
        raise ValueError("matrix entries must be finite")
    s_codes, gmax, _ = _unsigned_codes(absmax, cfg.b1, cfg.B1)
    scales = cast_float(gmax, cfg.b2)
    shat = _block_scales(s_codes, scales, cfg)

    # Blocks whose coded scale reconstructs to zero carry no signal in
    # their entry codes; an infinite divisor sends every entry to +-0, so
    # they code to the zero level, and repeated quantize/dequantize round
    # trips are byte-stable.  The division promotes to float64.
    absmax[shat == 0.0] = np.inf
    codes = np.empty(a.size, dtype=np.uint8)
    for ent, blk, width in chunks:
        rows = flat[ent].reshape(-1, width)
        codes[ent] = nearest_level_codes(rows / absmax[blk, None], cb).reshape(-1)

    def pack() -> QuantizedMatrix:
        return QuantizedMatrix(*a.shape, cfg, pack_bits(codes, cfg.b0),
                               pack_bits(s_codes, cfg.b1), scales)
    return codes, shat, pack


def _decode(codes: np.ndarray, shat: np.ndarray, cfg: QuantConfig, out: np.ndarray) -> np.ndarray:
    """Write the float32 values of flat unpacked entry codes and per-block scales into `out`.

    `out` is a C-contiguous float32 matrix with one entry per code.
    """
    levels = build_codebook(cfg.b0).levels
    dst = out.reshape(-1)
    # the product is taken in float64 and rounded once, into out
    for ent, blk, width in _chunks(codes.size, cfg.B0):
        np.multiply(np.take(levels, codes[ent]).reshape(-1, width), shat[blk, None],
                    out=dst[ent].reshape(-1, width))
    return out


def quantize_nf(m, cfg: QuantConfig) -> QuantizedMatrix:
    """Quantize a float32 matrix to NormalFloat codes with coded scales."""
    return _encode(m, cfg)[-1]()


def _block_scales(s_codes: np.ndarray, group_scales: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Reconstructed per-block scale vector, in float64."""
    # multiply before dividing: exact for codes up to 8 bits against
    # float32-representable group scales
    n = s_codes.size
    shat = np.repeat(group_scales.astype(np.float64), min(cfg.B1, n))[:n]
    shat *= s_codes
    shat /= (1 << cfg.b1) - 1
    return shat


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Reconstruct the float32 matrix a container encodes."""
    cfg = q.config
    n, n_blocks, _ = container_counts(q.rows, q.cols, cfg)
    codes = unpack_bits(q.codes, cfg.b0, n)
    s_codes = unpack_bits(q.s_codes, cfg.b1, n_blocks)
    return _decode(codes, _block_scales(s_codes, q.group_scales, cfg), cfg,
                   np.empty((q.rows, q.cols), dtype=np.float32))


# ---------------------------------------------------------------------------
# container serialization
# ---------------------------------------------------------------------------

_MAGIC = b"LQQ1"
_HEADER = struct.Struct("<4sHQQBBBII")
_B2_TAGS = {"fp32": 0, "fp16": 1, "bf16": 2}
_B2_NAMES = {v: k for k, v in _B2_TAGS.items()}

HEADER_BYTES = _HEADER.size


def container_layout(rows: int, cols: int, cfg: QuantConfig):
    """Byte sizes of the container sections: header, codes, s_codes, scales."""
    n, n_blocks, n_groups = container_counts(rows, cols, cfg)
    return (
        HEADER_BYTES,
        packed_size(n, cfg.b0),
        packed_size(n_blocks, cfg.b1),
        n_groups * (FLOAT_FORMATS[cfg.b2] // 8),
    )


def exact_container_bytes(rows: int, cols: int, cfg: QuantConfig) -> int:
    """Exact serialized size of a quantized matrix, header included."""
    return sum(container_layout(rows, cols, cfg))


def _scales_to_bytes(scales: np.ndarray, fmt: str) -> bytes:
    if fmt == "fp32":
        return scales.astype("<f4").tobytes()
    if fmt == "fp16":
        # values are already fp16-representable, so the cast is exact
        return scales.astype("<f2").tobytes()
    return (scales.view(np.uint32) >> np.uint32(16)).astype("<u2").tobytes()


def _scales_from_bytes(raw: bytes, fmt: str) -> np.ndarray:
    if fmt == "fp32":
        return np.frombuffer(raw, dtype="<f4").astype(np.float32)
    if fmt == "fp16":
        return np.frombuffer(raw, dtype="<f2").astype(np.float32)
    bits = np.frombuffer(raw, dtype="<u2").astype(np.uint32) << np.uint32(16)
    return bits.view(np.float32).copy()


def write_quantized(path, q: QuantizedMatrix) -> None:
    header = _HEADER.pack(
        _MAGIC, 1, q.rows, q.cols, q.config.b0, q.config.b1,
        _B2_TAGS[q.config.b2], q.config.B0, q.config.B1,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.codes)
        fh.write(q.s_codes)
        fh.write(_scales_to_bytes(q.group_scales, q.config.b2))


def read_quantized(path) -> QuantizedMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_BYTES:
        raise FormatError(f"{path}: truncated header")
    magic, version, rows, cols, b0, b1, b2_tag, bs0, bs1 = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    if b2_tag not in _B2_NAMES:
        raise FormatError(f"{path}: unknown scale format tag {b2_tag}")
    try:
        cfg = QuantConfig(b0, b1, _B2_NAMES[b2_tag], bs0, bs1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    header_b, code_b, scode_b, scale_b = container_layout(rows, cols, cfg)
    if len(blob) != header_b + code_b + scode_b + scale_b:
        raise FormatError(
            f"{path}: payload holds {len(blob) - header_b} bytes, expected "
            f"{code_b + scode_b + scale_b}"
        )
    codes = blob[header_b:header_b + code_b]
    s_codes = blob[header_b + code_b:header_b + code_b + scode_b]
    scales = _scales_from_bytes(blob[header_b + code_b + scode_b:], cfg.b2)
    n, n_blocks, _ = container_counts(rows, cols, cfg)
    if not padding_is_zero(codes, cfg.b0, n) or not padding_is_zero(s_codes, cfg.b1, n_blocks):
        raise FormatError(f"{path}: nonzero padding bits")
    try:
        return QuantizedMatrix(rows, cols, cfg, codes, s_codes, scales)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
