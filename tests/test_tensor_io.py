"""Dense tensor files, synthetic generators, and model presets."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from lqdec.errors import FormatError
from lqdec.quant import QuantConfig, dequantize, quantize_nf
from lqdec.tensor_io import (
    FISHER_KINDS,
    MATRIX_KINDS,
    PRESET_NAMES,
    gen_fisher,
    gen_matrix,
    model_preset,
    read_fisher,
    read_tensor,
    write_tensor,
)


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((17, 5)).astype(np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)

    def test_negative_zero_preserved(self, tmp_path):
        m = np.array([[-0.0, 0.0]], dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        back = read_tensor(path)
        assert np.signbit(back[0, 0])
        assert not np.signbit(back[0, 1])

    def test_header_size_and_layout(self, tmp_path):
        m = np.zeros((3, 4), dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        raw = path.read_bytes()
        assert len(raw) == 24 + 3 * 4 * 4
        assert raw[:4] == b"LQT1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.lqt"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.lqt"
        path.write_bytes(b"LQT1")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_payload_length_mismatch(self, tmp_path):
        m = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize("rows, cols, extra", [(2, 2, 4), (1 << 24, 1 << 24, 0)])
    def test_payload_size_checked_before_reading(self, tmp_path, rows, cols, extra):
        # a header may claim up to 2**48 entries: the file size is checked
        # before the payload is allocated
        path = tmp_path / "m.lqt"
        write_tensor(path, np.zeros((2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes() + b"\x00" * extra)
        struct.pack_into("<QQ", raw, 8, rows, cols)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="payload holds"):
            read_tensor(path)

    def test_read_peak_memory(self, tmp_path):
        # the payload is read into the result: no whole-file bytes, no
        # slice of them and no converted copy
        m = np.ones((512, 512), dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m)
        assert peak <= 1.5 * m.nbytes

    def test_bad_version(self, tmp_path):
        m = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "m.lqt"
        write_tensor(path, np.zeros((2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[6] = 1  # the dtype tag
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown dtype tag 1")):
            read_tensor(path)

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0)])
    def test_zero_dimension(self, tmp_path, rows, cols):
        path = tmp_path / "m.lqt"
        write_tensor(path, np.zeros((2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<QQ", raw, 8, rows, cols)
        path.write_bytes(bytes(raw[:24]))
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad dimensions {rows}x{cols}")):
            read_tensor(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        m = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "m.lqt"
        write_tensor(path, m)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 24, np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_write_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "m.lqt", np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "m.lqt", np.zeros((0, 3), dtype=np.float32))

    def test_fisher_reader_rejects_negative(self, tmp_path):
        m = np.array([[1.0, -1.0]], dtype=np.float32)
        path = tmp_path / "f.lqt"
        write_tensor(path, m)
        read_tensor(path)
        with pytest.raises(FormatError):
            read_fisher(path)


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    def test_shapes_and_dtype(self, kind):
        extra = {}
        if kind == "low-rank":
            extra["rank"] = 3
        if kind == "on-grid":
            extra["config"] = QuantConfig(4, 8, "fp32", 16, 16)
        m = gen_matrix(kind, 20, 16, seed=1, **extra)
        assert m.shape == (20, 16)
        assert m.dtype == np.float32
        assert np.all(np.isfinite(m))

    def test_deterministic(self):
        a = gen_matrix("gaussian", 8, 8, seed=42)
        b = gen_matrix("gaussian", 8, 8, seed=42)
        c = gen_matrix("gaussian", 8, 8, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_decaying_spectrum_ratio(self):
        m = gen_matrix("decaying-spectrum", 32, 32, seed=3, rho=0.5)
        s = np.linalg.svd(m.astype(np.float64), compute_uv=False)
        assert s[1] / s[0] == pytest.approx(0.5, abs=1e-5)
        assert s[2] / s[0] == pytest.approx(0.25, abs=1e-5)

    def test_low_rank_has_given_rank(self):
        m = gen_matrix("low-rank", 30, 24, seed=4, rank=4)
        s = np.linalg.svd(m.astype(np.float64), compute_uv=False)
        assert s[4] / s[0] < 1e-6

    def test_on_grid_requantizes_exactly(self):
        cfg = QuantConfig(2, 4, "fp32", 8, 4)
        m = gen_matrix("on-grid", 16, 16, seed=5, config=cfg)
        assert np.array_equal(dequantize(quantize_nf(m, cfg)), m)

    def test_on_grid_requires_config(self):
        with pytest.raises(ValueError):
            gen_matrix("on-grid", 8, 8, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_matrix("mystery", 4, 4)

    @pytest.mark.parametrize("kind", sorted(FISHER_KINDS))
    def test_fishers_nonnegative(self, kind):
        f = gen_fisher(kind, 12, 10, seed=2)
        assert f.shape == (12, 10)
        assert np.all(f >= 0)
        assert np.all(np.isfinite(f))

    def test_separable_fisher_is_rank_one(self):
        f = gen_fisher("separable", 16, 12, seed=6)
        s = np.linalg.svd(f.astype(np.float64), compute_uv=False)
        assert s[1] / s[0] < 1e-6

    def test_uniform_fisher_is_constant(self):
        f = gen_fisher("uniform", 5, 5, seed=0)
        assert np.all(f == f[0, 0])


class TestPresets:
    def test_names(self):
        assert "llama2-7b-linear" in PRESET_NAMES
        assert "llama2-70b-linear" in PRESET_NAMES

    def test_7b_shape_census(self):
        preset = model_preset("llama2-7b-linear")
        assert len(preset.matrices) == 224
        assert sum(r * c for r, c in preset.shapes()) == 6476005376
        shapes = preset.shapes()
        assert shapes.count((4096, 4096)) == 4 * 32
        assert shapes.count((4096, 11008)) == 2 * 32
        assert shapes.count((11008, 4096)) == 32

    def test_70b_shape_census(self):
        preset = model_preset("llama2-70b-linear")
        assert len(preset.matrices) == 560
        assert sum(r * c for r, c in preset.shapes()) == 68451041280
        shapes = preset.shapes()
        assert shapes.count((8192, 8192)) == 2 * 80
        assert shapes.count((8192, 1024)) == 2 * 80
        assert shapes.count((8192, 28672)) == 2 * 80
        assert shapes.count((28672, 8192)) == 80

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            model_preset("llama3-1t")
