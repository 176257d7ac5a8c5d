"""Alternating low-rank plus quantized decomposition."""

import tracemalloc

import numpy as np
import pytest

import lqdec
from lqdec.decompose import (
    REASON_INCREASED,
    REASON_MAX_ITERS,
    REASON_ZERO,
    ZERO_ERROR_RTOL,
    derive_seed,
    lq_decompose,
)
from lqdec.factorize import (
    LowRankFactors,
    WeightScalers,
    factorize,
    fisher_scalers,
    weighted_error,
)
from lqdec.quant import QuantConfig, dequantize, quantize_nf
from lqdec.tensor_io import gen_fisher, gen_matrix

CFG = QuantConfig(3, 8, "fp32", 64, 256)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(0, i, c) for i in range(8) for c in range(8)}
        assert len(seeds) == 64

    def test_part_order_matters(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


def reference_decompose(w, f, cfg, rank, max_iters, seed, method):
    """The alternating loop over packed containers, kept as an oracle.

    Every iteration packs its codes in quantize_nf and unpacks them twice,
    once for the error and once for the next residual.  Returns
    (trace, chosen iteration, stop reason, container, factors).
    """
    w32 = np.ascontiguousarray(w, dtype=np.float32)
    w64 = w32.astype(np.float64)
    reference = weighted_error(w32, None, None, f)
    q = None
    trace, best, prev, reason, fac = [], None, np.inf, REASON_MAX_ITERS, None
    for t in range(1, max_iters + 1):
        resid = w64 if q is None else w64 - dequantize(q).astype(np.float64)
        fac = factorize(resid, f, rank, method=method, seed=derive_seed(seed, t),
                        start=None if fac is None else fac.l2)
        fac = LowRankFactors(
            l1=np.ascontiguousarray(fac.l1, dtype=np.float32),
            l2=np.ascontiguousarray(fac.l2, dtype=np.float32),
        )
        q = quantize_nf((w64 - fac.product()).astype(np.float32), cfg)
        eps = weighted_error(w32, dequantize(q), fac, f)
        trace.append(eps)
        if best is None or eps < best[0]:
            best = (eps, q, fac)
        if eps <= ZERO_ERROR_RTOL * reference:
            reason = REASON_ZERO
            break
        if eps > prev:
            reason = REASON_INCREASED
            break
        prev = eps
    return trace, int(np.argmin(trace)), reason, best[1], best[2]


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("b2", ["fp32", "bf16", "fp16"])
    @pytest.mark.parametrize("B0", [64, 16, 37, 7])
    @pytest.mark.parametrize("method", ["randomized", "exact"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical(self, weighted, method, B0, b2):
        w = gen_matrix("gaussian", 48, 40, seed=B0)
        w[[3, 4, 20]] = 0.0  # whole zero blocks at every B0 above
        f = gen_fisher("separable", 48, 40, seed=B0) if weighted else None
        cfg = QuantConfig(3, 4, b2, B0, 8)
        kwargs = dict(rank=4, max_iters=12, seed=5, method=method)
        res = lq_decompose(w, f, cfg, **kwargs)
        trace, chosen, reason, q, fac = reference_decompose(w, f, cfg, **kwargs)
        assert res.error_trace == trace
        assert res.chosen_iteration == chosen
        assert res.converged_reason == reason
        assert (res.q.rows, res.q.cols, res.q.config) == (q.rows, q.cols, q.config)
        assert (res.q.codes, res.q.s_codes) == (q.codes, q.s_codes)
        assert res.q.group_scales.tobytes() == q.group_scales.tobytes()
        assert res.factors.l1.tobytes() == fac.l1.tobytes()
        assert res.factors.l2.tobytes() == fac.l2.tobytes()


def degenerate_matrix(kind):
    if kind == "zero":
        return np.zeros((64, 48), dtype=np.float32)
    if kind == "rank-1":
        return gen_matrix("low-rank", 64, 48, seed=1, rank=1)
    if kind == "half-zero-rows":
        w = gen_matrix("gaussian", 64, 48, seed=2)
        w[32:] = 0.0
        return w
    return gen_matrix("gaussian", 64, 48, seed=3) * np.float32(1e-30)


class TestDegenerateWarmStart:
    """Iterations after the first start the sketch from the previous L2."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["zero", "rank-1", "half-zero-rows", "1e-30"])
    def test_sound_on_degenerate_matrix(self, kind, weighted):
        w = degenerate_matrix(kind)
        f = gen_fisher("separable", 64, 48, seed=4) if weighted else None
        cfg = QuantConfig(3, 4, "fp32", 16, 8)
        res = lq_decompose(w, f, cfg, rank=4, seed=0)
        # the zero and rank-1 inputs stop at iteration 1, on zero error
        if kind in ("half-zero-rows", "1e-30"):
            assert len(res.error_trace) > 1
        assert np.all(np.isfinite(res.factors.l1)) and np.all(np.isfinite(res.factors.l2))
        assert res.error <= weighted_error(w, dequantize(quantize_nf(w, cfg)), None, f)
        assert res.error == weighted_error(w, dequantize(res.q), res.factors, f)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_warm_call_on_rank_one_matrix(self, weighted):
        # the loop stops on a rank-1 matrix before any warm call
        w = degenerate_matrix("rank-1")
        f = gen_fisher("separable", 64, 48, seed=4) if weighted else None
        cold = factorize(w, f, 4, method="randomized")
        warm = factorize(w, f, 4, method="randomized", start=cold.l2)
        assert np.all(np.isfinite(warm.l1)) and np.all(np.isfinite(warm.l2))
        assert weighted_error(w, None, warm, f) <= 1e-6 * weighted_error(w, None, None, f)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_zero_start_on_zero_matrix(self, weighted):
        # the loop stops on a zero matrix before any warm call
        f = gen_fisher("separable", 64, 48, seed=4) if weighted else None
        fac = factorize(np.zeros((64, 48)), f, 4, method="randomized", start=np.zeros((4, 48)))
        assert np.all(np.isfinite(fac.l1)) and np.all(np.isfinite(fac.l2))
        assert not np.any(fac.product())


class TestLqDecompose:
    def test_beats_quantize_only(self):
        w = gen_matrix("gaussian", 128, 128, seed=0)
        res = lq_decompose(w, None, CFG, rank=16, seed=0)
        q_only = weighted_error(w, dequantize(quantize_nf(w, CFG)))
        assert res.error < q_only

    def test_error_is_min_of_trace(self):
        w = gen_matrix("gaussian", 96, 96, seed=1)
        res = lq_decompose(w, None, CFG, rank=8, seed=1)
        assert res.error == min(res.error_trace)
        assert res.chosen_iteration == int(np.argmin(res.error_trace))

    def test_trace_nonincreasing_except_final(self):
        w = gen_matrix("gaussian", 96, 96, seed=2)
        res = lq_decompose(w, None, CFG, rank=8, seed=2)
        diffs = np.diff(res.error_trace)
        assert np.all(diffs[:-1] <= 1e-12)

    def test_returned_artifacts_reproduce_error(self):
        w = gen_matrix("gaussian", 64, 64, seed=3)
        res = lq_decompose(w, None, CFG, rank=4, seed=3)
        recomputed = weighted_error(w, dequantize(res.q), res.factors)
        assert recomputed == res.error

    def test_deterministic(self):
        w = gen_matrix("gaussian", 64, 64, seed=4)
        r1 = lq_decompose(w, None, CFG, rank=4, seed=9)
        r2 = lq_decompose(w, None, CFG, rank=4, seed=9)
        assert r1.error == r2.error
        assert r1.q.codes == r2.q.codes
        assert np.array_equal(r1.factors.l1, r2.factors.l1)

    def test_seed_changes_randomized_path(self):
        w = gen_matrix("gaussian", 64, 64, seed=5)
        r1 = lq_decompose(w, None, CFG, rank=4, seed=1, method="randomized")
        r2 = lq_decompose(w, None, CFG, rank=4, seed=2, method="randomized")
        assert r1.error != r2.error

    def test_zero_error_stop_on_low_rank_input(self):
        w = gen_matrix("low-rank", 96, 96, seed=6, rank=8)
        res = lq_decompose(w, None, CFG, rank=16, seed=6)
        assert res.converged_reason == REASON_ZERO
        assert res.error <= 1e-7 * weighted_error(w) * 1.01

    def test_max_iters_stop(self):
        w = gen_matrix("gaussian", 64, 64, seed=7)
        res = lq_decompose(w, None, CFG, rank=4, seed=7, max_iters=2)
        assert res.converged_reason == REASON_MAX_ITERS
        assert len(res.error_trace) == 2

    def test_error_increase_stop(self):
        w = gen_matrix("gaussian", 128, 128, seed=8)
        res = lq_decompose(w, None, CFG, rank=16, seed=8, max_iters=200)
        assert res.converged_reason == REASON_INCREASED
        # best iterate is the one before the increase
        assert res.chosen_iteration == len(res.error_trace) - 2

    def test_factor_shapes(self):
        w = gen_matrix("gaussian", 40, 24, seed=9)
        res = lq_decompose(w, None, CFG, rank=5, seed=9)
        assert res.factors.l1.shape == (40, 5)
        assert res.factors.l2.shape == (5, 24)
        assert res.factors.l1.dtype == np.float32
        assert (res.q.rows, res.q.cols) == (40, 24)

    def test_fisher_weighted_run(self):
        w = gen_matrix("gaussian", 64, 64, seed=10)
        f = gen_fisher("separable", 64, 64, seed=10)
        res = lq_decompose(w, f, CFG, rank=8, seed=10)
        recomputed = weighted_error(w, dequantize(res.q), res.factors, f)
        assert recomputed == res.error

    def test_exact_method(self):
        w = gen_matrix("gaussian", 48, 48, seed=12)
        res = lq_decompose(w, None, CFG, rank=6, seed=12, method="exact")
        assert res.error < weighted_error(w, dequantize(quantize_nf(w, CFG)))

    @pytest.mark.parametrize("kwargs", [
        {"cfg": None},
        {"cfg": CFG, "max_iters": 0},
        {"cfg": CFG, "rank": 0},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        w = gen_matrix("gaussian", 16, 16, seed=0)
        rank = kwargs.pop("rank", 2)
        cfg = kwargs.pop("cfg")
        with pytest.raises(ValueError):
            lq_decompose(w, None, cfg, rank, **kwargs)

    def test_no_initial_quantized_part_to_choose(self):
        # every call starts from a zero quantized part
        w = gen_matrix("gaussian", 16, 16, seed=0)
        with pytest.raises(TypeError):
            lq_decompose(w, None, CFG, 2, init="zero")

    def test_rejects_nonfinite(self):
        w = np.full((8, 8), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            lq_decompose(w, None, CFG, 2)


class TestFisherParsedOnce:
    """A weighted call checks and roots F once and reuses it in every iteration."""

    @pytest.mark.parametrize("max_iters", [1, 4, 9])
    def test_one_parse_per_call(self, monkeypatch, max_iters):
        raw = []

        def counting(f):
            if not isinstance(f, WeightScalers):
                raw.append(f)
            return fisher_scalers(f)

        for module in (lqdec.factorize, lqdec.decompose):
            monkeypatch.setattr(module, "fisher_scalers", counting)
        w = gen_matrix("gaussian", 64, 64, seed=13)
        f = gen_fisher("random-nonneg", 64, 64, seed=13)
        res = lq_decompose(w, f, CFG, rank=8, seed=13, max_iters=max_iters)
        assert len(res.error_trace) == max_iters
        assert len(raw) == 1

    @pytest.mark.parametrize("method", ["randomized", "exact"])
    def test_scalers_in_place_of_fisher(self, method):
        w = gen_matrix("gaussian", 48, 40, seed=14)
        f = gen_fisher("random-nonneg", 48, 40, seed=14)
        kwargs = dict(rank=4, max_iters=6, seed=14, method=method)
        raw = lq_decompose(w, f, CFG, **kwargs)
        parsed = lq_decompose(w, fisher_scalers(f), CFG, **kwargs)
        assert parsed.error_trace == raw.error_trace
        assert parsed.chosen_iteration == raw.chosen_iteration
        assert parsed.converged_reason == raw.converged_reason
        assert (parsed.q.codes, parsed.q.s_codes) == (raw.q.codes, raw.q.s_codes)
        assert parsed.q.group_scales.tobytes() == raw.q.group_scales.tobytes()
        assert parsed.factors.l1.tobytes() == raw.factors.l1.tobytes()
        assert parsed.factors.l2.tobytes() == raw.factors.l2.tobytes()


class TestEncodedOnce:
    """Each iterate is encoded once; the winner is packed from those codes."""

    @pytest.mark.parametrize("max_iters", [1, 4, 50])
    def test_one_encode_per_iteration(self, monkeypatch, max_iters):
        calls = []
        real = lqdec.quant._encode

        def counting(m, cfg):
            calls.append(cfg)
            return real(m, cfg)

        monkeypatch.setattr(lqdec.quant, "_encode", counting)
        w = gen_matrix("gaussian", 64, 96, seed=15)
        res = lq_decompose(w, None, CFG, rank=4, seed=15, max_iters=max_iters)
        assert len(calls) == len(res.error_trace)
        assert res.chosen_iteration == int(np.argmin(res.error_trace))


@pytest.mark.parametrize("weighted, bound", [(False, 8.0), (True, 10.5)],
                         ids=["plain", "weighted"])
def test_peak_memory(weighted, bound):
    # W held once in float32, one residual and one target buffer, the
    # winner kept as codes: 7.5x and 9.7x measured, where a float64 copy
    # of W and two float32 targets took 11.3x and 13.3x
    w = gen_matrix("gaussian", 256, 688, seed=16)
    f = gen_fisher("random-nonneg", 256, 688, seed=16) if weighted else None
    cfg = QuantConfig.parse("3,8,fp32,64,256")
    lq_decompose(w, f, cfg, rank=16, max_iters=4, seed=16)  # codebook built outside the trace
    tracemalloc.start()
    try:
        res = lq_decompose(w, f, cfg, rank=16, max_iters=4, seed=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.error_trace) == 4
    assert peak <= bound * w.nbytes


@pytest.mark.parametrize("weighted, bound", [(False, 5.0), (True, 7.0)],
                         ids=["plain", "weighted"])
def test_peak_memory_one_buffer_per_role(weighted, bound):
    # each iterate decoded into the target buffer, the product, the
    # weighted scaling and the weighted residual all in the residual's
    # buffer, and the block maxima taken per chunk: 4.6x and 6.6x
    # measured, 6.5x and 8.5x with a buffer of its own for the product
    # and a scaled copy in each weighted factorization
    w = gen_matrix("gaussian", 256, 688, seed=16)
    f = gen_fisher("random-nonneg", 256, 688, seed=16) if weighted else None
    cfg = QuantConfig.parse("3,8,fp32,64,256")
    lq_decompose(w, f, cfg, rank=16, max_iters=4, seed=16)
    tracemalloc.start()
    try:
        lq_decompose(w, f, cfg, rank=16, max_iters=4, seed=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * w.nbytes
