"""Low-rank plus quantized matrix decomposition with budgeted allocation."""

from .alloc import (
    AllocSolution,
    ConfigGrid,
    LORA_FORMATS,
    NF8_CONFIG,
    StorageReport,
    SweepTable,
    brute_force_mckp,
    default_grid,
    lq_lora_init,
    solve_mckp,
    storage_report,
    sweep,
)
from .codebook import Codebook, build_codebook, inverse_normal_cdf, normal_cdf
from .decompose import LQResult, derive_seed, lq_decompose
from .errors import FormatError, InfeasibleBudgetError
from .factorize import (
    LowRankFactors,
    WeightScalers,
    fisher_scalers,
    weighted_error,
)
from .packing import pack_bits, packed_size, unpack_bits
from .quant import (
    QuantConfig,
    QuantizedMatrix,
    cast_float,
    dequantize,
    exact_container_bytes,
    quantize_nf,
    read_quantized,
    storage_bits_per_param,
    write_quantized,
)
from .tensor_io import (
    ModelPreset,
    PRESET_NAMES,
    gen_fisher,
    gen_matrix,
    model_preset,
    read_fisher,
    read_tensor,
    write_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "AllocSolution",
    "Codebook",
    "ConfigGrid",
    "FormatError",
    "InfeasibleBudgetError",
    "LORA_FORMATS",
    "LQResult",
    "LowRankFactors",
    "ModelPreset",
    "NF8_CONFIG",
    "PRESET_NAMES",
    "QuantConfig",
    "QuantizedMatrix",
    "StorageReport",
    "SweepTable",
    "WeightScalers",
    "brute_force_mckp",
    "build_codebook",
    "cast_float",
    "default_grid",
    "dequantize",
    "derive_seed",
    "exact_container_bytes",
    "fisher_scalers",
    "gen_fisher",
    "gen_matrix",
    "inverse_normal_cdf",
    "lq_decompose",
    "lq_lora_init",
    "model_preset",
    "normal_cdf",
    "pack_bits",
    "packed_size",
    "quantize_nf",
    "read_fisher",
    "read_quantized",
    "read_tensor",
    "solve_mckp",
    "storage_bits_per_param",
    "storage_report",
    "sweep",
    "unpack_bits",
    "weighted_error",
    "write_quantized",
    "write_tensor",
]
