"""LSB-first packing of sub-byte integer codes into byte streams."""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to hold `count` codes of `bits` bits each."""
    return (count * bits + 7) // 8


def pack_bits(codes, bits: int) -> bytes:
    """Pack integer codes into a contiguous little-endian bitstream.

    Bit t of code j lands at stream position j * bits + t; the final
    byte is zero-padded.
    """
    if not 1 <= bits <= 8:
        raise ValueError(f"code width must be in 1..8, got {bits}")
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.size and int(codes.max()) >= (1 << bits):
        raise ValueError(f"code out of range for {bits}-bit packing")
    if codes.size == 0:
        return b""
    bitmat = (codes[:, None] >> np.arange(bits, dtype=np.uint8)) & 1
    return np.packbits(bitmat.ravel(), bitorder="little").tobytes()


def _check_stream(data: bytes, bits: int, count: int) -> None:
    """Raise unless `data` is the packed_size(count, bits) stream of pack_bits."""
    if not 1 <= bits <= 8:
        raise ValueError(f"code width must be in 1..8, got {bits}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if len(data) != packed_size(count, bits):
        raise FormatError(
            f"packed stream holds {len(data)} bytes, expected "
            f"{packed_size(count, bits)} for {count} codes of {bits} bits"
        )


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Exact inverse of pack_bits; padding bits are ignored.

    A code's weighted bit sum is at most 255, so uint8 arithmetic is exact.
    """
    _check_stream(data, bits, count)
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * bits, bitorder="little")
    return raw.reshape(count, bits) @ (1 << np.arange(bits)).astype(np.uint8)


def padding_is_zero(data: bytes, bits: int, count: int) -> bool:
    """True when every bit past count * bits in the stream is zero.

    `data` must be the packed_size(count, bits) bytes that pack_bits writes
    (FormatError otherwise), so padding lies only in its last byte.
    """
    _check_stream(data, bits, count)
    used = count * bits % 8
    return used == 0 or data[-1] >> used == 0
