"""Iterative split of a matrix into a quantized part plus low-rank factors.

Alternates two projections: factorize the residual W - dequantize(Q),
then re-quantize W - L1 L2.  From the second iteration on, the previous
factors' L2 warm-starts the randomized range finder.  Neither step is a
joint optimum, so the objective can start climbing; iteration stops on
the first increase and the best iterate seen is returned, not the last
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quant
from .factorize import LowRankFactors, _residual_into, factorize, fisher_scalers, weighted_error
from .quant import QuantConfig, QuantizedMatrix, dequantize, quantize_nf

REASON_INCREASED = "error-increased"
REASON_MAX_ITERS = "max-iters"
REASON_ZERO = "zero-error"

# Relative error floor below which the split is treated as exact.
ZERO_ERROR_RTOL = 1e-7


def derive_seed(seed: int, *parts: int) -> int:
    """Stable per-task seed from a base seed and integer coordinates."""
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in parts]])
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass
class LQResult:
    """Best iterate of the alternating decomposition."""

    q: QuantizedMatrix
    factors: LowRankFactors
    error_trace: list
    chosen_iteration: int
    converged_reason: str

    @property
    def error(self) -> float:
        return self.error_trace[self.chosen_iteration]


def lq_decompose(w, f=None, cfg: QuantConfig = None, rank: int = 1,
                 max_iters: int = 50, seed: int = 0,
                 method: str = "randomized", init: str = "zero") -> LQResult:
    """Decompose ``w ~ dequantize(Q) + L1 @ L2`` under one config.

    Errors are measured on the dequantized container and the factors at
    serialization precision, in the sqrt(f)-weighted Frobenius norm when
    ``f`` (an importance matrix or its ``WeightScalers``) is given,
    accumulated in float64.  ``init`` selects the initial
    quantized part: "zero" starts the factors on plain W, "quantize"
    starts them on the quantization residual.
    """
    if cfg is None:
        raise ValueError("a quantization config is required")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if init not in ("zero", "quantize"):
        raise ValueError(f"init must be 'zero' or 'quantize', got {init!r}")
    w32 = np.ascontiguousarray(w, dtype=np.float32)
    if w32.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(w32)):
        raise ValueError("matrix entries must be finite")
    if f is not None:
        # checked and rooted once: every factorization and error reuses it
        f = fisher_scalers(f)

    # W is held once, in float32; each difference with it is formed in
    # float64.  r is the one float64 buffer: it holds the residual
    # W - dequantize(Q) the next factorization splits, then, dead once
    # split, the product L1 L2 and the iterate's weighted residual.
    reference = weighted_error(w32, None, None, f)
    r = w32.astype(np.float64) if init == "zero" else np.subtract(
        w32, dequantize(quantize_nf(w32, cfg)), dtype=np.float64)
    rows = quant._chunks(r.size, r.shape[1])

    trace: list[float] = []
    best = chosen = None  # the least-error iterate's (pack, factors), index
    prev = np.inf
    reason = REASON_MAX_ITERS
    fac = None
    target = np.empty_like(w32)
    for t in range(1, max_iters + 1):
        # a weighted factorization scales r in place
        fac = factorize(r, f, rank, method=method, seed=derive_seed(seed, t),
                        start=None if fac is None else fac.l2, _overwrite=True)
        fac = LowRankFactors(
            l1=np.ascontiguousarray(fac.l1, dtype=np.float32),
            l2=np.ascontiguousarray(fac.l2, dtype=np.float32),
        )
        # the float64 difference W - L1 L2, rounded once to float32
        np.subtract(w32, fac.product(out=r), out=target)
        # one encode: the winner is packed from the codes it was scored
        # with; the target, dead once encoded, takes the decoded values
        shape, codes, shat, pack = quant._encode(target, cfg)
        deq = quant._decode(shape, codes, shat, cfg, out=target)
        # (W - deq) - L1 L2, in weighted_error's order, weighted by sqrt(F)
        _residual_into(r, w32, deq, rows)
        if f is not None:
            r *= f.root
        eps = weighted_error(r)
        trace.append(eps)
        if best is None or eps < trace[chosen]:
            best, chosen = (pack, fac), t - 1
        if eps <= ZERO_ERROR_RTOL * reference:
            reason = REASON_ZERO
            break
        if eps > prev:
            reason = REASON_INCREASED
            break
        prev = eps
        # r = W - deq: widening W into r first is faster than letting
        # numpy cast the float32 operand inside the subtraction
        np.copyto(r, w32)
        r -= deq

    return LQResult(
        q=best[0](),
        factors=best[1],
        error_trace=trace,
        chosen_iteration=chosen,
        converged_reason=reason,
    )
