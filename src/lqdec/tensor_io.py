"""Dense tensor file format, synthetic generators, and model presets."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .packing import pack_bits
from .quant import QuantConfig, QuantizedMatrix, container_counts, dequantize

_MAGIC = b"LQT1"
_HEADER = struct.Struct("<4sHBBQQ")
_DTYPE_F32 = 0

MATRIX_KINDS = ("gaussian", "decaying-spectrum", "low-rank", "on-grid")
FISHER_KINDS = ("uniform", "separable", "random-nonneg")


def write_tensor(path, m) -> None:
    """Serialize a finite float32 matrix, little-endian row-major."""
    a = np.ascontiguousarray(m, dtype=np.float32)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    header = _HEADER.pack(_MAGIC, 1, _DTYPE_F32, 0, a.shape[0], a.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.astype("<f4", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, checking header and file size before reading the payload."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, dtype, _reserved, rows, cols = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise FormatError(f"{path}: unsupported version {version}")
        if dtype != _DTYPE_F32:
            raise FormatError(f"{path}: unknown dtype tag {dtype}")
        if rows < 1 or cols < 1 or rows * cols > (1 << 48):
            raise FormatError(f"{path}: bad dimensions {rows}x{cols}")
        expected = rows * cols * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            a = np.empty((rows, cols), dtype="<f4")
            # short if the file shrank after the fstat
            size = fh.readinto(a)
        if size != expected:
            raise FormatError(f"{path}: payload holds {size} bytes, expected {expected}")
    # a copy only on a big-endian host
    a = a.astype(np.float32, copy=False)
    if not np.all(np.isfinite(a)):
        raise FormatError(f"{path}: non-finite entries")
    return a


def read_fisher(path) -> np.ndarray:
    """Read a tensor and validate it as a nonnegative importance matrix."""
    a = read_tensor(path)
    if np.any(a < 0):
        raise FormatError(f"{path}: importance weights must be nonnegative")
    return a


# ---------------------------------------------------------------------------
# synthetic matrices
# ---------------------------------------------------------------------------

def gen_matrix(kind: str, rows: int, cols: int, seed: int = 0, *,
               rank: int | None = None, rho: float = 0.9,
               config: QuantConfig | None = None) -> np.ndarray:
    """Seeded synthetic test matrices.

    gaussian          i.i.d. standard normal entries
    decaying-spectrum singular values rho**i with random orthogonal factors
    low-rank          product of two gaussian factors of width `rank`
    on-grid           exactly representable under `config` (b2 must be fp32)
    """
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((rows, cols)).astype(np.float32)
    if kind == "decaying-spectrum":
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        m = min(rows, cols)
        qu, _ = np.linalg.qr(rng.standard_normal((rows, m)))
        qv, _ = np.linalg.qr(rng.standard_normal((cols, m)))
        sv = rho ** np.arange(m)
        return ((qu * sv) @ qv.T).astype(np.float32)
    if kind == "low-rank":
        if rank is None or not 1 <= rank <= min(rows, cols):
            raise ValueError(f"low-rank generation needs 1 <= rank <= {min(rows, cols)}")
        left = rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols))
        return (left @ right).astype(np.float32)
    if kind == "on-grid":
        if config is None:
            raise ValueError("on-grid generation needs a config")
        return _gen_on_grid(rows, cols, rng, config)
    raise ValueError(f"unknown matrix kind {kind!r}, expected one of {MATRIX_KINDS}")


def _gen_on_grid(rows: int, cols: int, rng, cfg: QuantConfig) -> np.ndarray:
    """Emit dequantized values of a randomly coded container.

    Group scales are (2**b1 - 1) * 2**e so every second-level step is a
    power of two, each group holds one full-scale code and each block one
    endpoint-level code; re-quantizing under the same config then recovers
    the exact scales and codes, making the fixture reproduce bit-for-bit.
    """
    if cfg.b2 != "fp32":
        raise ValueError("on-grid fixtures require b2 = fp32")

    n, n_blocks, n_groups = container_counts(rows, cols, cfg)

    codes = rng.integers(0, 1 << cfg.b0, size=n).astype(np.uint8)
    block_starts = np.arange(0, n, cfg.B0)
    block_lens = np.diff(np.append(block_starts, n))
    anchor = block_starts + rng.integers(0, block_lens)
    codes[anchor] = np.where(rng.random(n_blocks) < 0.5, 0, (1 << cfg.b0) - 1)

    s_codes = rng.integers(0, 1 << cfg.b1, size=n_blocks).astype(np.uint8)
    group_starts = np.arange(0, n_blocks, cfg.B1)
    group_lens = np.diff(np.append(group_starts, n_blocks))
    s_anchor = group_starts + rng.integers(0, group_lens)
    s_codes[s_anchor] = (1 << cfg.b1) - 1

    exponents = rng.integers(-6, 3, size=n_groups)
    scales = (((1 << cfg.b1) - 1) * np.exp2(exponents)).astype(np.float32)

    q = QuantizedMatrix(
        rows=rows, cols=cols, config=cfg,
        codes=pack_bits(codes, cfg.b0),
        s_codes=pack_bits(s_codes, cfg.b1),
        group_scales=scales,
    )
    return dequantize(q)


def gen_fisher(kind: str, rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Seeded nonnegative importance matrices."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return np.ones((rows, cols), dtype=np.float32)
    if kind == "separable":
        r = rng.uniform(0.5, 2.0, size=rows)
        c = rng.uniform(0.5, 2.0, size=cols)
        return np.outer(r, c).astype(np.float32)
    if kind == "random-nonneg":
        return np.abs(rng.standard_normal((rows, cols))).astype(np.float32)
    raise ValueError(f"unknown importance kind {kind!r}, expected one of {FISHER_KINDS}")


# ---------------------------------------------------------------------------
# model shape presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelPreset:
    """Named list of (label, rows, cols) linear-layer shapes."""

    name: str
    matrices: tuple

    def shapes(self):
        return [(r, c) for _, r, c in self.matrices]


def _layered(name: str, layers: int, per_layer) -> ModelPreset:
    return ModelPreset(name=name, matrices=tuple(
        (f"layer{i:02d}.{label}", r, c) for i in range(layers) for label, r, c in per_layer))


_PRESETS = {
    "llama2-7b-linear": lambda: _layered("llama2-7b-linear", 32, [
        ("attn_q", 4096, 4096),
        ("attn_k", 4096, 4096),
        ("attn_v", 4096, 4096),
        ("attn_o", 4096, 4096),
        ("mlp_gate", 4096, 11008),
        ("mlp_up", 4096, 11008),
        ("mlp_down", 11008, 4096),
    ]),
    "llama2-70b-linear": lambda: _layered("llama2-70b-linear", 80, [
        ("attn_q", 8192, 8192),
        ("attn_k", 8192, 1024),
        ("attn_v", 8192, 1024),
        ("attn_o", 8192, 8192),
        ("mlp_gate", 8192, 28672),
        ("mlp_up", 8192, 28672),
        ("mlp_down", 28672, 8192),
    ]),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def model_preset(name: str) -> ModelPreset:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return _PRESETS[name]()
