"""LSB-first packing of sub-byte integer codes into byte streams.

Bit t of code j sits at stream position j * bits + t, so every 8 codes
fill exactly `bits` bytes.  The kernels work a group of 8 codes at a
time as one little-endian 64-bit word holding code k at bit k * bits:
`pack_bits` builds each word with one integer matrix product against
the weights 2**(k * bits) (the bit fields are disjoint, so the sum is
their OR) and keeps its low `bits` bytes; `unpack_bits` reads the 8 bytes
from each group's first byte as its word and shifts every code down to
bit 0 of its own byte.  No array of one entry per bit is built.

Both walk the codes in chunks of _CHUNK_CODES, so their temporaries stay
bounded: 8 bytes per code of one chunk (256 KiB), plus a second copy of
the output while `pack_bits` joins its chunks, and a zero-padded copy of
the stream in `unpack_bits`.  At 2**18 codes of 3 bits the traced peak
beyond input and output is 1.2 bytes per code each way.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

# Codes per chunk: a chunk's uint64 temporaries (256 KiB) stay in a
# core's L2 cache.  Of 2**12 to 2**17, 2**15 was fastest both ways at
# 2**18 and 704,512 codes of 3 and 8 bits on a 2 MiB-L2 Xeon.
_CHUNK_CODES = 1 << 15

# per width: the bit offset of each code of a group within its word
_SHIFTS = {bits: np.arange(0, 8 * bits, bits, dtype=np.uint64) for bits in range(1, 9)}
_WEIGHTS = {bits: np.uint64(1) << shifts for bits, shifts in _SHIFTS.items()}
_COLUMN_SHIFTS = {bits: shifts[:, None] for bits, shifts in _SHIFTS.items()}
_MASKS = {bits: np.array((1 << bits) - 1, dtype=np.uint8) for bits in range(1, 9)}
_WORD = np.dtype("<u8")
_WORD_BYTES = np.dtype((np.uint8, (8,)))


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to hold `count` codes of `bits` bits each."""
    return (count * bits + 7) // 8


def _check_width(bits: int) -> None:
    if not 1 <= bits <= 8:
        raise ValueError(f"code width must be in 1..8, got {bits}")


def pack_bits(codes, bits: int) -> bytes:
    """Pack integer codes into a contiguous little-endian bitstream.

    Bit t of code j lands at stream position j * bits + t; the final
    byte is zero-padded.  `codes` must be a one-dimensional integer array
    with every value in [0, 2**bits); anything else raises ValueError.
    """
    _check_width(bits)
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.dtype.kind not in "ui":
        raise ValueError(f"codes must have an integer dtype, got {codes.dtype}")
    # checked before the cast to uint8, which would wrap them
    if codes.size and (int(codes.max()) >= 1 << bits
                       or codes.dtype.kind == "i" and int(codes.min()) < 0):
        raise ValueError(f"code out of range for {bits}-bit packing")
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    pieces = []
    for start in range(0, codes.size, _CHUNK_CODES):
        piece = codes[start:start + _CHUNK_CODES]
        if piece.size % 8:  # the last group, filled with zero codes
            piece = np.concatenate((piece, np.zeros(-piece.size % 8, dtype=np.uint8)))
        words = (piece.reshape(-1, 8) @ _WEIGHTS[bits]).astype(_WORD, copy=False)
        pieces.append(words.view(_WORD_BYTES)[:, :bits].tobytes())
    if pieces:  # the whole bytes of the filler codes are not part of the stream
        pieces[-1] = pieces[-1][:len(pieces[-1]) - (-codes.size % 8) * bits // 8]
    return b"".join(pieces)


def _check_stream(data: bytes, bits: int, count: int) -> None:
    """Raise unless `data` is the packed_size(count, bits) stream of pack_bits."""
    _check_width(bits)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if len(data) != packed_size(count, bits):
        raise FormatError(
            f"packed stream holds {len(data)} bytes, expected "
            f"{packed_size(count, bits)} for {count} codes of {bits} bits"
        )


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Exact inverse of pack_bits, as uint8 codes; padding bits are ignored."""
    _check_stream(data, bits, count)
    groups = -(-count // 8)
    # group i's word is the 8 bytes from byte i * bits: zero bytes past
    # the stream let the last group read a whole word
    raw = b"".join((data, bytes(groups * bits + 8 - len(data))))
    codes = np.empty((groups, 8), dtype=np.uint8)
    step = _CHUNK_CODES // 8
    for start in range(0, groups, step):
        words = np.ndarray(min(step, groups - start), _WORD, raw, start * bits, (bits,))
        # code k of every group: its word shifted down by the code's
        # offset, cut to the low byte and masked to the code's bits
        out = codes[start:start + step]
        np.copyto(out, np.right_shift(words, _COLUMN_SHIFTS[bits]).T, casting="unsafe")
        np.bitwise_and(out, _MASKS[bits], out=out)
    return codes.reshape(-1)[:count]


def padding_is_zero(data: bytes, bits: int, count: int) -> bool:
    """True when every bit past count * bits in the stream is zero.

    `data` must be the packed_size(count, bits) bytes that pack_bits writes
    (FormatError otherwise), so padding lies only in its last byte.
    """
    _check_stream(data, bits, count)
    used = count * bits % 8
    return used == 0 or data[-1] >> used == 0
