"""Blockwise normal-float quantization, float casts, and the container format."""

import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqdec.alloc import default_grid
from lqdec.codebook import SUPPORTED_BITS, build_codebook
from lqdec.errors import FormatError
from lqdec.packing import pack_bits
from lqdec.quant import (
    HEADER_BYTES,
    QuantConfig,
    QuantizedMatrix,
    _CHUNK_ENTRIES,
    _chunks,
    _decode,
    _encode,
    _unsigned_codes,
    cast_float,
    dequantize,
    exact_container_bytes,
    nearest_level_codes,
    quantize_nf,
    read_quantized,
    storage_bits_per_param,
    write_quantized,
)
from lqdec.tensor_io import gen_matrix

CFG = QuantConfig(4, 8, "fp32", 64, 256)


def encode_decode(m, cfg):
    """One `_encode` then a `_decode` into the encoded buffer, as `lq_decompose` runs them."""
    target = np.array(m, dtype=np.float32)
    shape, codes, shat, _ = _encode(target, cfg)
    return _decode(shape, codes, shat, cfg, out=target)


class TestQuantConfig:
    def test_parse(self):
        assert QuantConfig.parse("4,8,fp32,64,256") == CFG
        assert QuantConfig.parse(" 2, 2, fp16, 16, 16 ") == QuantConfig(2, 2, "fp16", 16, 16)

    def test_label_round_trip(self):
        assert QuantConfig.parse(CFG.label()) == CFG

    @pytest.mark.parametrize("text", [
        "4,8,fp32,64", "5,8,fp32,64,256", "4,9,fp32,64,256",
        "4,8,fp64,64,256", "4,8,fp32,0,256", "4,8,fp32,64,-1", "x",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            QuantConfig.parse(text)

    @pytest.mark.parametrize("fields", [
        (3, 8, "fp32", 64.5, 256), (3.0, 8, "fp32", 64, 256), (3, 8.0, "fp32", 64, 256),
        (3, 8, "fp32", 64, 256.0), (3, 8, "fp32", True, 256), (3, 8, "fp32", "64", 256),
        (3, 8, ["fp32"], 64, 256),
    ])
    def test_rejects_non_integer_fields(self, fields):
        # JSON grids give floats, booleans and strings as they are written
        with pytest.raises(ValueError):
            QuantConfig(*fields)

    @pytest.mark.parametrize("cfg,expected", [
        ((4, 8, "fp32", 64, 256), Fraction(2113, 512)),
        ((3, 8, "fp32", 64, 256), Fraction(1601, 512)),
        ((2, 2, "fp16", 16, 16), Fraction(35, 16)),
        ((8, 8, "fp32", 64, 256), Fraction(4161, 512)),
    ])
    def test_storage_bits_exact(self, cfg, expected):
        assert storage_bits_per_param(QuantConfig(*cfg)) == expected

    def test_bits_ratio_is_the_sum_in_lowest_terms(self):
        for cfg in default_grid().configs + (QuantConfig(3, 4, "bf16", 48, 3),):
            num, den = cfg.bits_ratio
            width = {"fp32": 32, "fp16": 16, "bf16": 16}[cfg.b2]
            want = cfg.b0 + Fraction(cfg.b1, cfg.B0) + Fraction(width, cfg.B0 * cfg.B1)
            assert (num, den) == (want.numerator, want.denominator)

    def test_storage_bits_floats(self):
        assert float(storage_bits_per_param(CFG)) == 4.126953125
        assert float(storage_bits_per_param(QuantConfig(2, 2, "fp16", 16, 16))) == 2.1875


class TestCastFloat:
    def test_fp32_identity(self):
        x = np.array([1.1, -2.5, 3e38], dtype=np.float32)
        assert np.array_equal(cast_float(x, "fp32"), x)

    def test_fp16_clips_to_max_finite(self):
        out = cast_float(np.array([70000.0, -70000.0], dtype=np.float32), "fp16")
        assert np.array_equal(out, np.array([65504.0, -65504.0], dtype=np.float32))
        assert np.all(np.isfinite(out))

    def test_fp16_rounds_to_nearest(self):
        # 1 + 2**-11 sits halfway between adjacent fp16 values around 1.0
        out = cast_float(np.array([1.0 + 2.0 ** -11], dtype=np.float32), "fp16")
        assert out[0] == np.float32(1.0)

    def test_bf16_round_to_nearest_even(self):
        # 1 + 2**-8 is halfway between bf16 neighbors 1.0 and 1 + 2**-7;
        # ties go to the even mantissa on both sides
        out = cast_float(np.array([1.0 + 2.0 ** -8, 1.0 + 3.0 * 2.0 ** -8], dtype=np.float32), "bf16")
        assert out[0] == np.float32(1.0)
        assert out[1] == np.float32(1.0 + 2.0 ** -6)

    def test_bf16_saturates_instead_of_overflowing(self):
        out = cast_float(np.array([3.4e38, -3.4e38], dtype=np.float32), "bf16")
        assert np.all(np.isfinite(out))
        assert out[0] == np.float32(3.3895313892515355e38)
        assert out[1] == -out[0]

    def test_bf16_exact_values_pass_through(self):
        x = np.array([1.0, -0.5, 1.5, 384.0], dtype=np.float32)
        assert np.array_equal(cast_float(x, "bf16"), x)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            cast_float(np.zeros(1, dtype=np.float32), "fp64")


class TestRtnUnsigned:
    def test_frozen_small_case(self):
        # gmax 6, step 6/7; 3 * 7/6 = 3.5 rounds away from zero to 4
        codes, _, steps = _unsigned_codes(np.array([3.0, 6.0]), 3, 2)
        assert codes.tolist() == [4, 7]
        assert steps.tolist() == [6.0 / 7.0]

    def test_half_away_from_zero(self):
        # 5 * 7/14 = 2.5 rounds to 3, not to the even neighbor 2
        codes, _, _ = _unsigned_codes(np.array([5.0, 14.0]), 3, 2)
        assert codes.tolist() == [3, 7]

    def test_zero_group(self):
        codes, _, steps = _unsigned_codes(np.zeros(4), 2, 2)
        assert codes.tolist() == [0, 0, 0, 0]
        assert steps.tolist() == [0.0, 0.0]

    def test_max_maps_to_top_code(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 9, 64)
        codes, _, steps = _unsigned_codes(values, 4, 16)
        top = codes.reshape(4, 16).max(axis=1)
        assert np.all(top == 15)

    def test_multiply_before_divide_is_exact_on_grid(self):
        # values already of the form step * code reconstruct bit exactly
        step = np.float32(0.1)
        codes_in = np.array([0, 3, 7, 15], dtype=np.float64)
        values = (codes_in * np.float64(step)).astype(np.float64)
        codes, _, steps = _unsigned_codes(values, 4, 4)
        recon = (codes.astype(np.float64) * (15.0 * np.float64(steps[0]))) / 15.0
        assert codes.tolist() == [0, 3, 7, 15]
        assert np.array_equal(recon, values)


class TestQuantizeNF:
    def test_exact_signed_unit_values(self):
        w = np.array([[1.0, -1.0, 0.0, 0.5]], dtype=np.float32)
        q = quantize_nf(w, QuantConfig(4, 8, "fp32", 4, 4))
        out = dequantize(q)
        # codebook holds -1, 0, 1 exactly and the block scale is exact
        assert out[0, 0] == 1.0
        assert out[0, 1] == -1.0
        assert out[0, 2] == 0.0

    def test_single_entry_round_trips(self):
        w = np.array([[0.7]], dtype=np.float32)
        q = quantize_nf(w, CFG)
        assert dequantize(q)[0, 0] == np.float32(0.7)

    def test_ties_take_lower_index(self):
        from lqdec.quant import nearest_level_codes
        cb = build_codebook(2)
        eps = 1e-12
        values = np.array([
            cb.midpoints[1], cb.midpoints[1] + eps, cb.midpoints[1] - eps,
            cb.midpoints[2], cb.levels[3],
        ])
        codes = nearest_level_codes(values, cb)
        assert codes.tolist() == [1, 2, 1, 2, 3]

    def test_codes_are_nearest_levels(self):
        from lqdec.quant import nearest_level_codes
        cb = build_codebook(4)
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, 500)
        codes = nearest_level_codes(values, cb)
        dist_chosen = np.abs(values - cb.levels[codes])
        dist_all = np.abs(values[:, None] - cb.levels[None, :]).min(axis=1)
        assert np.array_equal(dist_chosen, dist_all)

    def test_zero_block_canonical_codes(self):
        w = np.zeros((2, 8), dtype=np.float32)
        w[0] = np.linspace(-1, 1, 8)
        cfg = QuantConfig(2, 8, "fp32", 8, 8)
        q = quantize_nf(w, cfg)
        cb = build_codebook(2)
        from lqdec.packing import unpack_bits
        codes = unpack_bits(q.codes, 2, 16).reshape(2, 8)
        assert np.all(codes[1] == cb.zero_index)
        assert np.all(dequantize(q)[1] == 0.0)

    def test_idempotent_at_fp32(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((96, 64)).astype(np.float32)
        q1 = quantize_nf(w, CFG)
        q2 = quantize_nf(dequantize(q1), CFG)
        assert q1.codes == q2.codes
        assert q1.s_codes == q2.s_codes
        assert np.array_equal(q1.group_scales, q2.group_scales)

    def test_on_grid_matrix_round_trips_exactly(self):
        cfg = QuantConfig(3, 4, "fp32", 16, 16)
        w = gen_matrix("on-grid", 48, 32, seed=11, config=cfg)
        q = quantize_nf(w, cfg)
        assert np.array_equal(dequantize(q), w)

    def test_mse_decreases_with_code_bits(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((250, 400)).astype(np.float32)
        mses = []
        for b0 in (2, 3, 4, 8):
            q = quantize_nf(w, QuantConfig(b0, 8, "fp32", 50, 100))
            mses.append(float(np.mean((w - dequantize(q)) ** 2)))
        assert mses == sorted(mses, reverse=True)
        assert mses[-1] < mses[0] / 10

    def test_block_scales_are_nonnegative(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((32, 32)).astype(np.float32)
        q = quantize_nf(w, QuantConfig(4, 8, "fp16", 16, 16))
        assert np.all(q.group_scales >= 0)

    @pytest.mark.parametrize("bad", [
        np.zeros((0, 4), dtype=np.float32),
        np.full((2, 2), np.nan, dtype=np.float32),
        np.zeros(4, dtype=np.float32),
    ])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            quantize_nf(bad, CFG)

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_projection_never_increases_with_exact_scale(self, seed):
        # blocks scaled so the absmax is a power of two reconstruct with
        # error no larger than half the widest level gap times the scale
        rng = np.random.default_rng(seed)
        w = (rng.uniform(-1, 1, (4, 16)) * 0.5).astype(np.float32)
        idx = rng.integers(0, 16, 4)
        w[np.arange(4), idx] = np.float32(1.0)
        cfg = QuantConfig(4, 8, "fp32", 16, 16)
        out = dequantize(quantize_nf(w, cfg))
        cb = build_codebook(4)
        gap = np.max(np.diff(cb.levels))
        assert np.max(np.abs(out - w)) <= gap / 2 + 1e-7

    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        b0=st.sampled_from(SUPPORTED_BITS),
        b1=st.sampled_from(SUPPORTED_BITS),
        b2=st.sampled_from(["fp32", "fp16", "bf16"]),
        B0=st.integers(min_value=1, max_value=160),
        B1=st.integers(min_value=1, max_value=40),
        zero_rows=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_matches_round_trip(self, rows, cols, b0, b1, b2, B0, B1,
                                               zero_rows, seed):
        # block sizes range past the entry count (at most 144) and over
        # non-powers of two; zeroed rows leave all-zero (dead) blocks
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal((rows, cols)) * rng.uniform(1e-3, 1e3)).astype(np.float32)
        w[[r for r in zero_rows if r < rows]] = 0.0
        cfg = QuantConfig(b0, b1, b2, B0, B1)
        fused = encode_decode(w, cfg)
        reference = dequantize(quantize_nf(w, cfg))
        assert fused.dtype == reference.dtype and fused.shape == reference.shape
        assert fused.tobytes() == reference.tobytes()


def _spread(per_segment, size, count):
    """Each segment's value repeated over its entries, by segment lengths."""
    starts = np.arange(0, count, size, dtype=np.int64)
    return np.repeat(per_segment, np.diff(np.append(starts, count)))


def reference_unsigned(values, bits, group_size):
    """Unsigned round-to-nearest as first written: (codes, group maxima, steps)."""
    n = values.size
    gmax = np.maximum.reduceat(values, np.arange(0, n, group_size, dtype=np.int64))
    levels = (1 << bits) - 1
    steps = gmax / levels
    per = _spread(steps, group_size, n)
    x = np.divide(values, per, out=np.zeros_like(values), where=per > 0)
    return np.clip(np.floor(x + 0.5), 0, levels).astype(np.uint8), gmax, steps


def reference_encode(m, cfg):
    """Entry codes, scale codes, group scales and values, as first encoded.

    A binary search over the midpoints finds the codes, per-block values
    are spread by segment lengths, and divisions skip zero divisors,
    leaving zeros.
    """
    a = np.ascontiguousarray(m, dtype=np.float32)
    cb = build_codebook(cfg.b0)
    flat = a.ravel().astype(np.float64)
    n = flat.size
    absmax = np.maximum.reduceat(np.abs(flat), np.arange(0, n, cfg.B0, dtype=np.int64))
    per_entry = _spread(absmax, cfg.B0, n)
    normalized = np.divide(flat, per_entry, out=np.zeros_like(flat), where=per_entry > 0)
    codes = np.searchsorted(cb.midpoints, normalized, side="left").astype(np.uint8)
    s_codes, gmax, _ = reference_unsigned(absmax, cfg.b1, cfg.B1)
    scales = cast_float(gmax, cfg.b2)
    per_block_v = _spread(scales.astype(np.float64), cfg.B1, s_codes.size)
    shat = (s_codes.astype(np.float64) * per_block_v) / ((1 << cfg.b1) - 1)
    codes[_spread(shat == 0.0, cfg.B0, n)] = cb.zero_index
    values = (cb.levels[codes] * _spread(shat, cfg.B0, n)).astype(np.float32).reshape(a.shape)
    return codes, s_codes, scales, values


def _near_midpoints(cb):
    """±0, ±1, the levels, every midpoint and its float64 neighbours."""
    mids = cb.midpoints
    return np.concatenate([[0.0, -0.0, 1.0, -1.0], cb.levels, mids,
                           np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])


class TestMatchesReferenceEncoder:
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        b0=st.sampled_from(SUPPORTED_BITS),
        b1=st.sampled_from(SUPPORTED_BITS),
        b2=st.sampled_from(["fp32", "fp16", "bf16"]),
        B0=st.integers(min_value=1, max_value=160),
        B1=st.integers(min_value=1, max_value=40),
        zero_rows=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
        on_midpoints=st.booleans(),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_encoder_matches_reference(self, rows, cols, b0, b1, b2, B0, B1, zero_rows,
                                       on_midpoints, seed):
        rng = np.random.default_rng(seed)
        scale = np.float32(rng.uniform(1e-3, 1e3))
        if on_midpoints:
            # entries are float32 roundings of the values near midpoints,
            # and each block starts with its maximum, a power of two, so the
            # normalized entries are exactly those roundings (at b0 = 2,
            # -0.5 is itself a midpoint)
            scale = np.float32(2.0 ** rng.integers(-20, 20))
            pool = _near_midpoints(build_codebook(b0)).astype(np.float32)
            w = rng.choice(pool, size=rows * cols) * scale
            w[::B0] = scale * rng.choice([-1, 1], size=w[::B0].size)
            w = w.reshape(rows, cols)
        else:
            w = (rng.standard_normal((rows, cols)) * scale).astype(np.float32)
        w[[r for r in zero_rows if r < rows]] = 0.0
        cfg = QuantConfig(b0, b1, b2, B0, B1)
        codes, s_codes, scales, values = reference_encode(w, cfg)
        q = quantize_nf(w, cfg)
        assert q.codes == pack_bits(codes, b0)
        assert q.s_codes == pack_bits(s_codes, b1)
        assert q.group_scales.tobytes() == scales.tobytes()
        assert encode_decode(w, cfg).tobytes() == values.tobytes()
        assert dequantize(q).tobytes() == values.tobytes()

    @given(
        bits=st.sampled_from(SUPPORTED_BITS),
        extra=st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=40),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_nearest_level_codes_match_binary_search(self, bits, extra, seed):
        cb = build_codebook(bits)
        values = np.random.default_rng(seed).permutation(np.append(_near_midpoints(cb), extra))
        codes = nearest_level_codes(values, cb)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, np.searchsorted(cb.midpoints, values, side="left"))

    @given(
        values=st.lists(st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1e6)),
                        min_size=1, max_size=60),
        bits=st.sampled_from(SUPPORTED_BITS),
        group_size=st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=100, deadline=None)
    def test_rtn_matches_reference(self, values, bits, group_size):
        arr = np.array(values)
        codes, _, steps = _unsigned_codes(arr, bits, group_size)
        ref_codes, _, ref_steps = reference_unsigned(arr, bits, group_size)
        assert codes.tobytes() == ref_codes.tobytes()
        assert steps.tobytes() == ref_steps.tobytes()


def per_entry_encode(m, cfg):
    """`_encode` with every per-block value spread over its entries by np.repeat.

    Returns (entry codes, scale codes, group scales, per-block scales).
    """
    a = np.ascontiguousarray(m, dtype=np.float32)
    cb = build_codebook(cfg.b0)
    flat = a.ravel()
    n = flat.size
    span = min(cfg.B0, n)
    absmax = np.maximum.reduceat(np.abs(flat), np.arange(0, n, cfg.B0)).astype(np.float64)
    codes = nearest_level_codes(
        flat / np.repeat(np.where(absmax > 0, absmax, np.inf), span)[:n], cb)
    s_codes, gmax, _ = reference_unsigned(absmax, cfg.b1, cfg.B1)
    scales = cast_float(gmax, cfg.b2)
    nb = s_codes.size
    per_block_v = np.repeat(scales.astype(np.float64), min(cfg.B1, nb))[:nb]
    shat = (s_codes.astype(np.float64) * per_block_v) / ((1 << cfg.b1) - 1)
    codes[np.repeat(shat == 0.0, span)[:n]] = cb.zero_index
    return codes, s_codes, scales, shat


def per_entry_decode(shape, codes, shat, cfg):
    """`_decode` with per-entry scales, spread by np.repeat."""
    out = np.empty(shape, dtype=np.float32)
    np.multiply(np.take(build_codebook(cfg.b0).levels, codes),
                np.repeat(shat, min(cfg.B0, codes.size))[:codes.size], out=out.reshape(-1))
    return out


ORACLE_CONFIGS = list(default_grid().configs) + [
    QuantConfig(b0, b1, b2, B0, B1)
    for B0 in (1, 7, 37, 1000)
    for b0, b1, b2, B1 in ((2, 2, "fp16", 5), (3, 8, "fp32", 256), (4, 3, "bf16", 1), (8, 4, "fp16", 16))
]


class TestMatchesPerEntryKernels:
    """Block-row kernels against the per-entry ones, byte for byte."""

    @pytest.mark.parametrize("rows, cols, configs", [
        (128, 64, ORACLE_CONFIGS),
        (37, 29, ORACLE_CONFIGS),
        (5, 3, ORACLE_CONFIGS),
        (1, 1, ORACLE_CONFIGS),
        # several chunks of block rows, the last one short, and a
        # partial last block
        (300, 229, ORACLE_CONFIGS[-16:] + [QuantConfig(3, 8, "fp32", 64, 256)]),
    ])
    def test_grid_and_odd_blocks(self, rows, cols, configs):
        rng = np.random.default_rng(rows * cols)
        w = rng.standard_normal((rows, cols)).astype(np.float32)
        if rows > 2:
            w[1] = 0.0  # all-zero blocks wherever B0 <= cols
            w[2] *= np.float32(1e-6)  # blocks whose coded scale is zero
        for cfg in configs:
            codes, s_codes, scales, shat = per_entry_encode(w, cfg)
            values = per_entry_decode(w.shape, codes, shat, cfg)
            q = quantize_nf(w, cfg)
            assert q.codes == pack_bits(codes, cfg.b0), cfg
            assert q.s_codes == pack_bits(s_codes, cfg.b1), cfg
            assert q.group_scales.tobytes() == scales.tobytes(), cfg
            assert encode_decode(w, cfg).tobytes() == values.tobytes(), cfg
            assert dequantize(q).tobytes() == values.tobytes(), cfg


@pytest.mark.parametrize("label", ["3,8,fp32,64,256", "4,8,bf16,16,16", "2,2,fp16,7,5"])
def test_encode_decode_peak_memory(label):
    # per-entry float64 spreads of the block scales took 5.35-5.63x
    w = gen_matrix("gaussian", 512, 512, seed=0)
    cfg = QuantConfig.parse(label)
    encode_decode(w, cfg)  # builds the codebook outside the trace
    tracemalloc.start()
    try:
        encode_decode(w, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * w.nbytes


@pytest.mark.parametrize("n", [1, 7, 64, 65, 2 ** 15 + 3, 255 * 689])
def test_chunks_walk_blocks_as_views(n):
    flat = np.arange(n, dtype=np.float64)
    for size in (1, 7, 16, 64, 1000, n + 1):
        chunks = _chunks(n, size)
        full = min(size, n)
        # entry and block slices each cover their range once, in order
        for spans, stop in (([c[0] for c in chunks], n), ([c[1] for c in chunks], -(-n // size))):
            assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]]
            assert spans[-1].stop == stop and all(s.stop > s.start and s.step is None for s in spans)
        for i, (ent, blk, width) in enumerate(chunks):
            rows = flat[ent].reshape(-1, width)
            assert np.shares_memory(rows, flat)
            # one block per row
            assert np.array_equal(rows[:, 0], np.arange(blk.start, blk.stop) * full)
            if width == full:
                assert rows.size <= max(_CHUNK_ENTRIES, width)
            else:  # the partial last block, alone
                assert i == len(chunks) - 1 and rows.shape == (1, n % full)
    assert _chunks(0, n) == []


@pytest.mark.parametrize("shape", [(255, 689), (256, 688)])
def test_encode_peak_memory_partial_block(shape):
    # B0 = 64 divides 256 x 688 entries but not 255 x 689; a zero-padded
    # float32 copy of W for the partial last block peaked at 1.95x
    w = gen_matrix("gaussian", *shape, seed=0)
    cfg = QuantConfig.parse("3,8,fp32,64,256")
    _encode(w, cfg)  # builds the codebook outside the trace
    tracemalloc.start()
    try:
        _encode(w, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * w.nbytes


class TestContainer:
    def test_exact_container_bytes(self):
        assert HEADER_BYTES == 33
        assert exact_container_bytes(64, 64, CFG) == 33 + 2048 + 64 + 4

    def test_payload_bits_match_config(self):
        rows = cols = 256
        cfg = QuantConfig(3, 8, "fp32", 64, 256)
        layout = exact_container_bytes(rows, cols, cfg)
        codes = (rows * cols * 3 + 7) // 8
        blocks = rows * cols // 64
        s_bytes = (blocks * 8 + 7) // 8
        groups = (blocks + 255) // 256
        assert layout == 33 + codes + s_bytes + 4 * groups

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((40, 24)).astype(np.float32)
        cfg = QuantConfig(2, 4, "bf16", 8, 4)
        q = quantize_nf(w, cfg)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        assert path.stat().st_size == exact_container_bytes(40, 24, cfg)
        back = read_quantized(path)
        assert back.config == cfg
        assert (back.rows, back.cols) == (40, 24)
        assert back.codes == q.codes
        assert back.s_codes == q.s_codes
        assert np.array_equal(back.group_scales, q.group_scales)
        assert np.array_equal(dequantize(back), dequantize(q))

    @pytest.mark.parametrize("B0, B1", [(2**31, 1), (4, 2**31), (2**31, 2**31)])
    def test_blocks_longer_than_the_matrix(self, tmp_path, B0, B1):
        # the header allows any uint32 block size; memory must follow the
        # entry count, and a block or group past the end equals one that
        # ends exactly there
        w = np.random.default_rng(5).standard_normal((4, 4)).astype(np.float32)
        cfg = QuantConfig(4, 8, "fp32", B0, B1)
        exact = quantize_nf(w, QuantConfig(4, 8, "fp32", min(B0, 16), min(B1, 16 // min(B0, 16))))
        q = quantize_nf(w, cfg)
        assert (q.codes, q.s_codes) == (exact.codes, exact.s_codes)
        assert np.array_equal(q.group_scales, exact.group_scales)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        back = read_quantized(path)
        assert back.config == cfg
        assert np.array_equal(dequantize(back), dequantize(exact))
        assert np.array_equal(encode_decode(w, cfg), dequantize(exact))

    @pytest.mark.parametrize("fmt", ["fp32", "fp16", "bf16"])
    def test_scale_serialization_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((16, 16)).astype(np.float32)
        cfg = QuantConfig(4, 8, fmt, 16, 4)
        q = quantize_nf(w, cfg)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        assert np.array_equal(read_quantized(path).group_scales, q.group_scales)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.lqq"
        path.write_bytes(b"LQQ1\x01\x00")
        with pytest.raises(FormatError):
            read_quantized(path)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(5)
        q = quantize_nf(rng.standard_normal((8, 8)).astype(np.float32), QuantConfig(2, 2, "fp32", 4, 4))
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_quantized(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(5)
        q = quantize_nf(rng.standard_normal((8, 8)).astype(np.float32), QuantConfig(2, 2, "fp32", 4, 4))
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_quantized(path)

    def test_nonzero_padding_rejected(self, tmp_path):
        # 2-bit codes for a 2x3 matrix leave padding bits in the last byte
        w = np.ones((2, 3), dtype=np.float32)
        cfg = QuantConfig(2, 2, "fp32", 6, 1)
        q = quantize_nf(w, cfg)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        raw[HEADER_BYTES + 1] |= 0xF0
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_quantized(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        q = quantize_nf(rng.standard_normal((8, 8)).astype(np.float32), QuantConfig(2, 2, "fp32", 4, 4))
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_quantized(path)

    def test_unknown_scale_format_tag(self, tmp_path):
        q = quantize_nf(np.ones((8, 8), dtype=np.float32), QuantConfig(2, 2, "fp32", 4, 4))
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        raw[24] = 7  # the b2 tag
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown scale format tag 7")):
            read_quantized(path)

    def test_invalid_config_with_matching_length(self, tmp_path):
        # b0 = 5 is no supported width; the file is as long as a 5-bit
        # container of its shape would be, so only the config is at fault
        cfg = QuantConfig(4, 2, "fp32", 4, 4)
        q = quantize_nf(np.ones((8, 8), dtype=np.float32), cfg)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        raw[22] = 5  # b0
        codes_end = HEADER_BYTES + 64 * 4 // 8
        raw[codes_end:codes_end] = bytes(64 * (5 - 4) // 8)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{path}: b0 must be one of")):
            read_quantized(path)

    def test_nonfinite_scale_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        cfg = QuantConfig(2, 2, "fp32", 4, 16)
        q = quantize_nf(rng.standard_normal((8, 8)).astype(np.float32), cfg)
        path = tmp_path / "m.lqq"
        write_quantized(path, q)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, len(raw) - 4, np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_quantized(path)


class TestQuantizedMatrixValidation:
    def test_wrong_code_length(self):
        with pytest.raises(FormatError):
            QuantizedMatrix(rows=4, cols=4, config=QuantConfig(2, 2, "fp32", 4, 4),
                            codes=b"\x00", s_codes=b"\x00",
                            group_scales=np.ones(1, dtype=np.float32))

    def test_negative_scale(self):
        cfg = QuantConfig(2, 2, "fp32", 4, 4)
        with pytest.raises(FormatError):
            QuantizedMatrix(rows=4, cols=4, config=cfg,
                            codes=b"\x00" * 4, s_codes=b"\x00",
                            group_scales=-np.ones(1, dtype=np.float32))
