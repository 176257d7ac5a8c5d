"""Bit packing round trips and layout."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqdec.errors import FormatError
from lqdec.packing import pack_bits, packed_size, padding_is_zero, unpack_bits


def test_two_bit_layout():
    # codes fill each byte least significant bits first:
    # 3 | 1<<2 | 0<<4 | 2<<6 == 0x87
    data = pack_bits(np.array([3, 1, 0, 2], dtype=np.uint8), 2)
    assert data == b"\x87"


def test_three_bit_padding():
    data = pack_bits(np.array([5], dtype=np.uint8), 3)
    assert data == b"\x05"
    assert padding_is_zero(data, 3, 1)


def test_empty():
    assert pack_bits(np.array([], dtype=np.uint8), 4) == b""
    assert unpack_bits(b"", 4, 0).size == 0


@pytest.mark.parametrize("bits,count,nbytes", [
    (2, 4, 1), (2, 5, 2), (3, 8, 3), (4, 2, 1), (8, 3, 3), (1, 9, 2),
])
def test_packed_size(bits, count, nbytes):
    assert packed_size(count, bits) == nbytes


@pytest.mark.parametrize("bits", range(1, 9))
def test_round_trip_dense(bits):
    rng = np.random.default_rng(bits)
    random = rng.integers(0, 2 ** bits, size=137).astype(np.uint8)
    # every bit set: 255 at 8 bits, the largest weighted sum
    full = np.full(137, 2 ** bits - 1, dtype=np.uint8)
    for codes in (random, full):
        data = pack_bits(codes, bits)
        assert len(data) == packed_size(137, bits)
        assert np.array_equal(unpack_bits(data, bits, 137), codes)


@given(
    bits=st.integers(min_value=1, max_value=8),
    codes=st.lists(st.integers(min_value=0, max_value=255), max_size=64),
)
@settings(max_examples=200)
def test_round_trip_hypothesis(bits, codes):
    arr = np.array([c % (2 ** bits) for c in codes], dtype=np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(arr, bits), bits, len(arr)), arr)


def test_out_of_range_code_rejected():
    with pytest.raises(ValueError):
        pack_bits(np.array([4], dtype=np.uint8), 2)


def test_bad_width_rejected():
    with pytest.raises(ValueError):
        pack_bits(np.array([0], dtype=np.uint8), 0)
    with pytest.raises(ValueError):
        pack_bits(np.array([0], dtype=np.uint8), 9)


def test_wrong_byte_count_is_format_error():
    with pytest.raises(FormatError):
        unpack_bits(b"\x00\x00", 2, 4)
    with pytest.raises(FormatError):
        unpack_bits(b"", 2, 4)
    with pytest.raises(FormatError):
        padding_is_zero(b"\x00\x00", 2, 4)
    with pytest.raises(FormatError):
        padding_is_zero(b"\x00", 3, 3)


def test_padding_check_detects_garbage():
    # one 3-bit code leaves five padding bits that must stay clear
    assert not padding_is_zero(b"\xfd", 3, 1)
    assert padding_is_zero(b"\x05", 3, 1)
    # every padding bit of every width, each set alone after all-ones codes
    for bits in range(1, 9):
        for count in (0, 1, 5, 8, 13):
            data = bytearray(pack_bits(np.full(count, 2 ** bits - 1, dtype=np.uint8), bits))
            assert padding_is_zero(bytes(data), bits, count)
            for pos in range(count * bits, len(data) * 8):
                data[pos // 8] |= 1 << pos % 8
                assert not padding_is_zero(bytes(data), bits, count), (bits, count, pos)
                data[pos // 8] &= ~(1 << pos % 8)


@pytest.mark.parametrize("bits", [3, 8])
def test_unpack_peak_memory(bits):
    # one uint8 per unpacked bit plus the uint8 codes; widening the bit
    # matrix to uint32 for the weighted sum peaked at 19 B per 3-bit code
    count = 1 << 18
    data = pack_bits(np.zeros(count, dtype=np.uint8), bits)
    tracemalloc.start()
    try:
        unpack_bits(data, bits, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (bits + 1.5) * count


def reference_pack(codes, bits):
    """Bit-matrix packing: one uint8 per bit, then np.packbits."""
    codes = np.asarray(codes, dtype=np.uint8)
    bitmat = (codes[:, None] >> np.arange(bits, dtype=np.uint8)) & 1
    return np.packbits(bitmat.ravel(), bitorder="little").tobytes()


def reference_unpack(data, bits, count):
    """Bit-matrix unpacking: np.unpackbits, then each code's weighted bit sum."""
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * bits, bitorder="little")
    return raw.reshape(count, bits) @ (1 << np.arange(bits)).astype(np.uint8)


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 8191, 8193, (1 << 18) + 3])
def test_matches_bit_matrix_reference(bits, count):
    # lengths around a group of 8 codes and around the kernels' chunks
    rng = np.random.default_rng(count * 8 + bits)
    random = rng.integers(0, 2 ** bits, size=count).astype(np.uint8)
    full = np.full(count, 2 ** bits - 1, dtype=np.uint8)
    for codes in (random, full):
        data = reference_pack(codes, bits)
        assert pack_bits(codes, bits) == data
        back = unpack_bits(data, bits, count)
        assert back.dtype == np.uint8
        assert np.array_equal(back, reference_unpack(data, bits, count))


@given(
    bits=st.integers(min_value=1, max_value=8),
    codes=st.lists(st.integers(min_value=0, max_value=255), max_size=80),
)
@settings(max_examples=200)
def test_matches_bit_matrix_reference_hypothesis(bits, codes):
    arr = np.array([c % (2 ** bits) for c in codes], dtype=np.uint8)
    data = reference_pack(arr, bits)
    assert pack_bits(arr, bits) == data
    assert np.array_equal(unpack_bits(data, bits, len(arr)), reference_unpack(data, bits, len(arr)))


def test_group_crossing_byte_boundaries():
    # 3-bit codes 0..7: codes 2 and 5 straddle the group's byte boundaries
    assert pack_bits(np.arange(8, dtype=np.uint8), 3) == bytes.fromhex("88c6fa")
    codes = np.append(np.arange(8, dtype=np.uint8), np.uint8(0))
    assert pack_bits(codes, 3) == bytes.fromhex("88c6fa00")


@pytest.mark.parametrize("codes,bits", [
    (np.array([256, 1]), 2),  # wrapped to 0 by a cast to uint8
    (np.array([-1]), 8),  # wrapped to 255
    (np.array([2.7]), 2),  # truncated to 2
    (np.array([1.0]), 2),  # a float, even when integral
    (np.array([True]), 1),
])
def test_pack_rejects_codes_before_casting(codes, bits):
    with pytest.raises(ValueError):
        pack_bits(codes, bits)


@pytest.mark.parametrize("bits", [3, 8])
def test_pack_peak_memory(bits):
    # the bit matrix held 2 * bits bytes per code: 6 at 3 bits, 16 at 8
    count = 1 << 18
    codes = np.full(count, 2 ** bits - 1, dtype=np.uint8)
    tracemalloc.start()
    try:
        data = pack_bits(codes, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * count + len(data)
