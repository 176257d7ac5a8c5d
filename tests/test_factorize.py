"""Truncated SVD factorization, Fisher weighting, and weighted errors."""

import math
import tracemalloc

import numpy as np
import pytest

from lqdec.factorize import (
    LowRankFactors,
    WeightScalers,
    _residual_into,
    factorize,
    fisher_scalers,
    weighted_error,
)
from lqdec.quant import _chunks
from lqdec.tensor_io import gen_fisher, gen_matrix


def separable_oracle(a, row_w, col_w, rank):
    """Best weighted rank-k approximation for F = outer(row_w, col_w).

    sqrt(F) splits into diagonal scalings, so the weighted problem is an
    ordinary SVD of D_r A D_c, unscaled afterwards.
    """
    dr = np.sqrt(np.sqrt(row_w))
    dc = np.sqrt(np.sqrt(col_w))
    u, s, vt = np.linalg.svd(dr[:, None] * a * dc[None, :])
    low = (u[:, :rank] * s[:rank]) @ vt[:rank]
    return low / dr[:, None] / dc[None, :]


class TestSvdTruncated:
    def test_exact_recovers_low_rank(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 8)) @ rng.standard_normal((8, 24))
        fac = factorize(a, rank=8, method="exact")
        assert np.linalg.norm(a - fac.product()) < 1e-10 * np.linalg.norm(a)

    def test_randomized_recovers_low_rank(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 32))
        fac = factorize(a, rank=6, method="randomized", seed=0)
        assert np.linalg.norm(a - fac.product()) < 1e-8 * np.linalg.norm(a)

    def test_randomized_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((24, 24))
        f1 = factorize(a, rank=4, method="randomized", seed=5)
        f2 = factorize(a, rank=4, method="randomized", seed=5)
        f3 = factorize(a, rank=4, method="randomized", seed=6)
        assert np.array_equal(f1.l1, f2.l1)
        assert np.array_equal(f1.l2, f2.l2)
        assert not np.array_equal(f1.product(), f3.product())

    def test_factor_norms_balanced(self):
        # the singular values split as sqrt each side
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 16))
        fac = factorize(a, rank=5, method="exact")
        assert np.linalg.norm(fac.l1) == pytest.approx(np.linalg.norm(fac.l2), rel=1e-5)

    def test_rank_bounds(self):
        a = np.eye(4)
        with pytest.raises(ValueError):
            factorize(a, rank=0)
        with pytest.raises(ValueError):
            factorize(a, rank=5)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            factorize(np.eye(4), rank=2, method="magic")

    def test_error_decreases_with_rank(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((32, 32))
        errs = [np.linalg.norm(a - factorize(a, rank=r, method="exact").product())
                for r in (2, 4, 8, 16)]
        assert errs == sorted(errs, reverse=True)

    def test_randomized_close_to_exact_on_decaying_spectrum(self):
        w = gen_matrix("decaying-spectrum", 128, 128, seed=7, rho=0.9).astype(np.float64)
        for rank in (8, 16):
            ee = np.linalg.norm(w - factorize(w, rank=rank, method="exact").product())
            er = np.linalg.norm(w - factorize(w, rank=rank, method="randomized", seed=0).product())
            assert er <= 1.05 * ee


def gapped_matrix(rows, cols, rank, seed):
    """Top `rank` singular values 10..5, the rest 0.5 down to 0.05."""
    rng = np.random.default_rng(seed)
    m = min(rows, cols)
    qu, _ = np.linalg.qr(rng.standard_normal((rows, m)))
    qv, _ = np.linalg.qr(rng.standard_normal((cols, m)))
    sv = np.concatenate([np.linspace(10.0, 5.0, rank), np.linspace(0.5, 0.05, m - rank)])
    return (qu * sv) @ qv.T


class TestWarmStart:
    RANK = 6

    def rel_gap(self, got, want):
        return np.linalg.norm(got.product() - want.product()) / np.linalg.norm(want.product())

    def test_exact_subspace_start_recovers_truncation(self):
        a = gapped_matrix(80, 64, self.RANK, seed=0)
        exact = factorize(a, rank=self.RANK, method="exact")
        _, _, vt = np.linalg.svd(a)
        warm = factorize(a, rank=self.RANK, method="randomized", seed=1, start=vt[:self.RANK])
        assert self.rel_gap(warm, exact) <= 1e-8

    def test_weighted_start_is_mapped_to_scaled_coordinates(self):
        a = gapped_matrix(80, 64, self.RANK, seed=2)
        f = gen_fisher("separable", 80, 64, seed=2)
        f *= np.random.default_rng(2).uniform(0.05, 20.0, 64)[None, :]
        exact = factorize(a, f, rank=self.RANK, method="exact")
        warm = factorize(a, f, rank=self.RANK, method="randomized", seed=3, start=exact.l2)
        assert self.rel_gap(warm, exact) <= 1e-8

    @pytest.mark.parametrize("weighted", [False, True])
    def test_exact_method_ignores_start(self, weighted):
        a = gapped_matrix(40, 32, self.RANK, seed=4)
        f = gen_fisher("separable", 40, 32, seed=4) if weighted else None
        start = np.random.default_rng(4).standard_normal((self.RANK, 32))
        cold = factorize(a, f, rank=self.RANK, method="exact")
        warm = factorize(a, f, rank=self.RANK, method="exact", start=start)
        assert cold.l1.tobytes() == warm.l1.tobytes()
        assert cold.l2.tobytes() == warm.l2.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("shape", [(5, 32), (6, 31), (32, 6), (6, 1), (32,)])
    def test_rejects_wrong_start_shape(self, shape, weighted):
        a = gapped_matrix(40, 32, self.RANK, seed=5)
        f = gen_fisher("separable", 40, 32, seed=5) if weighted else None
        with pytest.raises(ValueError):
            factorize(a, f, rank=self.RANK, method="randomized", start=np.ones(shape))


def robustness_case(kind):
    """(matrix, rank) for the range finder's degenerate inputs."""
    rng = np.random.default_rng(11)
    if kind == "zero":
        return np.zeros((40, 32)), 4
    if kind == "rank-1":
        return np.outer(rng.standard_normal(40), rng.standard_normal(32)), 4
    # rank + OVERSAMPLE exceeds min(d, k) = 6: the sketch is clamped
    return rng.standard_normal((6, 32)), 4


class TestRangeFinderRobustness:
    """The randomized path on degenerate and extreme-scale inputs."""

    def run(self, a, f, rank, warm):
        start = None
        if warm:
            start = factorize(a, f, rank, method="randomized", seed=1).l2
        return factorize(a, f, rank, method="randomized", seed=2, start=start)

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e200])
    @pytest.mark.parametrize("kind", ["zero", "rank-1", "clamped-sketch"])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_finite_and_scale_equivariant(self, weighted, warm, kind, scale):
        a, rank = robustness_case(kind)
        f = gen_fisher("separable", *a.shape, seed=3) if weighted else None
        base = self.run(a, f, rank, warm)
        fac = self.run(scale * a, f, rank, warm)
        for got in (base, fac):
            assert np.all(np.isfinite(got.l1)) and np.all(np.isfinite(got.l2))
        # compared in units of the input scale, so that 1e200 squared
        # does not overflow the norms
        got = fac.product() / scale
        want = base.product()
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        if kind == "zero":
            assert not np.any(fac.l1) and not np.any(fac.l2)
        else:
            # a rank-1 matrix and a sketch of the whole row space are
            # recovered exactly, up to the shift and roundoff
            exact = factorize(a, f, rank, method="exact").product()
            assert np.linalg.norm(want - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("rank", [1, 5, 12])
    def test_randomized_factor_norms_balanced(self, rank, warm):
        a = np.random.default_rng(rank).standard_normal((48, 36))
        fac = self.run(a, None, rank, warm)
        assert np.linalg.norm(fac.l1) == pytest.approx(np.linalg.norm(fac.l2), rel=1e-5)


class TestFisherScalers:
    def test_means_of_sqrt(self):
        f = np.array([[4.0, 16.0], [64.0, 4.0]])
        sc = fisher_scalers(f)
        assert np.allclose(sc.d_row, [3.0, 5.0])
        assert np.allclose(sc.d_col, [5.0, 3.0])

    def test_all_zero_gives_ones(self):
        sc = fisher_scalers(np.zeros((3, 4)))
        assert np.all(sc.d_row == 1.0)
        assert np.all(sc.d_col == 1.0)

    def test_tiny_rows_clamped(self):
        f = np.zeros((2, 2))
        f[0] = 1.0
        sc = fisher_scalers(f)
        assert sc.d_row[1] >= 1e-8 * sc.d_row.max()
        assert np.all(sc.d_row > 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fisher_scalers(np.array([[1.0, -1.0]]))


class TestWeightedFactorize:
    def test_uniform_fisher_matches_unweighted(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((24, 18))
        plain = factorize(a, rank=4, method="exact")
        weighted = factorize(a, np.full(a.shape, 2.5), rank=4, method="exact")
        assert np.linalg.norm(plain.product() - weighted.product()) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_separable_fisher_reaches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((36, 28))
        rw = rng.uniform(0.5, 2.0, 36)
        cw = rng.uniform(0.5, 2.0, 28)
        f = np.outer(rw, cw)
        fac = factorize(a, f, rank=5, method="exact")
        oracle = separable_oracle(a, rw, cw, 5)
        e_got = np.linalg.norm(np.sqrt(f) * (a - fac.product()))
        e_want = np.linalg.norm(np.sqrt(f) * (a - oracle))
        assert e_got <= e_want * (1 + 1e-7)

    def test_weighting_changes_solution(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 20))
        f = np.outer(rng.uniform(0.1, 10, 20), rng.uniform(0.1, 10, 20))
        plain = factorize(a, rank=3, method="exact")
        weighted = factorize(a, f, rank=3, method="exact")
        assert np.linalg.norm(plain.product() - weighted.product()) > 1e-6


class TestWeightedError:
    def test_hand_case(self):
        # residual [[1,0],[0,2]] under fisher [[4,1],[1,9]]:
        # sum of f * r^2 is 4 + 36 = 40
        w = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        f = np.array([[4.0, 1.0], [1.0, 9.0]], dtype=np.float32)
        assert weighted_error(w, f=f) == pytest.approx(math.sqrt(40.0), rel=1e-12)

    def test_unweighted_is_frobenius(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((10, 10)).astype(np.float32)
        assert weighted_error(w) == pytest.approx(float(np.linalg.norm(w.astype(np.float64))), rel=1e-14)

    def test_subtracts_both_terms(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((12, 12)).astype(np.float32)
        qhat = rng.standard_normal((12, 12)).astype(np.float32)
        fac = LowRankFactors(
            rng.standard_normal((12, 2)).astype(np.float32),
            rng.standard_normal((2, 12)).astype(np.float32),
        )
        got = weighted_error(w, qhat, fac)
        resid = w.astype(np.float64) - qhat.astype(np.float64) - fac.product()
        assert got == pytest.approx(float(np.linalg.norm(resid)), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_error(np.zeros((2, 2), dtype=np.float32), f=np.zeros((3, 3)))

    @pytest.mark.parametrize("rows, cols", [(3, 0), (0, 5)])
    def test_no_entries_is_zero(self, rows, cols):
        # no columns: the row chunking must not divide by the row length
        fac = LowRankFactors(np.zeros((rows, 2)), np.zeros((2, cols)))
        assert weighted_error(np.zeros((rows, cols)), None, fac) == 0.0


def reference_weighted_error(w, q_dequant=None, factors=None, f=None):
    """The error as first written: every term a new float64 array."""
    acc = np.asarray(w, dtype=np.float64)
    if q_dequant is not None:
        acc = acc - np.asarray(q_dequant, dtype=np.float64)
    if factors is not None:
        acc = acc - factors.product()
    if f is not None:
        acc = fisher_scalers(f).root * acc
    return float(np.linalg.norm(acc))


def error_inputs(rows, cols, dtype, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rows, cols)).astype(dtype)
    q = (w + 0.1 * rng.standard_normal((rows, cols))).astype(dtype)
    fac = LowRankFactors(
        (0.1 * rng.standard_normal((rows, 3))).astype(np.float32),
        (0.1 * rng.standard_normal((3, cols))).astype(np.float32),
    )
    return w, q, fac, gen_fisher("random-nonneg", rows, cols, seed=seed)


TERMS = {"w": (False, False), "q": (True, False), "factors": (False, True),
         "both": (True, True)}


class TestWeightedErrorBuffers:
    """One float64 buffer per call, filled in row chunks, never an argument."""

    # 300 rows of 256 are 2 chunks of 128 rows and one of 44
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weights", [None, "raw", "scalers"])
    @pytest.mark.parametrize("terms", sorted(TERMS))
    def test_equals_reference_formula(self, dtype, weights, terms):
        w, q, fac, f = error_inputs(300, 256, dtype, seed=21)
        with_q, with_fac = TERMS[terms]
        args = (w, q if with_q else None, fac if with_fac else None,
                {None: None, "raw": f, "scalers": fisher_scalers(f)}[weights])
        got = weighted_error(*args)
        assert got.hex() == reference_weighted_error(*args).hex()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("terms", sorted(TERMS))
    def test_arguments_unchanged(self, dtype, terms):
        w, q, fac, f = error_inputs(300, 256, dtype, seed=22)
        sc = fisher_scalers(f)
        with_q, with_fac = TERMS[terms]
        before = [a.tobytes() for a in (w, q, fac.l1, fac.l2, f, sc.root)]
        for weights in (None, f, sc):
            weighted_error(w, q if with_q else None, fac if with_fac else None, weights)
        assert [a.tobytes() for a in (w, q, fac.l1, fac.l2, f, sc.root)] == before

    # the shape of test_peak_memory; 8.0x and 6.0x when each term was a
    # new float64 array.  A raw float32 F adds its float64 root, 4.26x
    # measured, where a float64 copy of F before the root took 6.18x.
    @pytest.mark.parametrize("terms, bound", [("both", 3.5), ("q", 2.5), ("both+f", 4.6)])
    def test_peak_memory(self, terms, bound):
        w, q, fac, f = error_inputs(256, 688, np.float32, seed=16)
        with_q, with_fac = TERMS[terms.removesuffix("+f")]
        args = (w, q if with_q else None, fac if with_fac else None,
                f if terms.endswith("+f") else None)
        weighted_error(*args)
        tracemalloc.start()
        try:
            weighted_error(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * w.nbytes


def test_residual_peak_is_one_scratch_chunk():
    # W's chunk widened into one float64 scratch chunk, Q subtracted
    # there: 0.46x measured, where a new float64 difference per chunk
    # took 0.92x
    w, q, _, _ = error_inputs(256, 688, np.float32, seed=16)
    acc = np.random.default_rng(16).standard_normal(w.shape)
    want = (w.astype(np.float64) - q.astype(np.float64)) - acc
    chunks = _chunks(acc.size, acc.shape[1])
    tracemalloc.start()
    try:
        _residual_into(acc, w, q, chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acc.tobytes() == want.tobytes()
    assert peak <= 0.6 * w.nbytes


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("method", ["exact", "randomized"])
def test_factorize_leaves_arguments_unchanged(method, weighted):
    # the alternating loop scales its own dead residual in place; the
    # public call never writes a, start or F
    a = gen_matrix("gaussian", 40, 32, seed=23).astype(np.float64)
    start = gen_matrix("gaussian", 4, 32, seed=24).astype(np.float64)
    f = gen_fisher("random-nonneg", 40, 32, seed=23) if weighted else None
    kept = [a, start] if f is None else [a, start, f]
    before = [x.tobytes() for x in kept]
    factorize(a, f, rank=4, method=method, seed=23, start=start)
    assert [x.tobytes() for x in kept] == before


class TestParsedWeights:
    """F is checked and rooted in fisher_scalers; its result stands in for F."""

    def test_scalers_pass_through(self):
        f = gen_fisher("random-nonneg", 12, 9, seed=1)
        sc = fisher_scalers(f)
        assert isinstance(sc, WeightScalers)
        assert fisher_scalers(sc) is sc
        assert sc.root.tobytes() == np.sqrt(f.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("form", ["list", "int64", "bool", "float16"])
    def test_any_numeric_form_roots_as_float64(self, form):
        # a float F is rooted as given, anything else widened first
        f = np.array([[4, 16, 0], [64, 4, 1]])
        given = {"list": f.tolist(), "int64": f, "bool": f > 2, "float16": f.astype(np.float16)}[form]
        want = np.sqrt(np.asarray(given).astype(np.float64))
        assert fisher_scalers(given).root.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weighted_error_rejects_nonfinite(self, bad):
        w = np.ones((2, 2), dtype=np.float32)
        f = np.array([[1.0, bad], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            weighted_error(w, f=f)

    @pytest.mark.parametrize("method", ["exact", "randomized"])
    def test_scalers_equal_raw_fisher(self, method):
        a = gen_matrix("gaussian", 24, 18, seed=2).astype(np.float64)
        f = gen_fisher("random-nonneg", 24, 18, seed=2)
        sc = fisher_scalers(f)
        raw = factorize(a, f, rank=4, method=method, seed=3)
        parsed = factorize(a, sc, rank=4, method=method, seed=3)
        assert raw.l1.tobytes() == parsed.l1.tobytes()
        assert raw.l2.tobytes() == parsed.l2.tobytes()
        assert weighted_error(a, None, raw, f) == weighted_error(a, None, raw, sc)

    def test_scalers_shape_checked(self):
        sc = fisher_scalers(np.ones((3, 3)))
        with pytest.raises(ValueError):
            factorize(np.eye(4), sc, rank=2)
        with pytest.raises(ValueError):
            weighted_error(np.eye(4), f=sc)


class TestLowRankFactors:
    def test_rank_property(self):
        fac = LowRankFactors(np.zeros((6, 3)), np.zeros((3, 8)))
        assert fac.rank == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LowRankFactors(np.zeros((6, 3)), np.zeros((4, 8)))

    def test_finiteness_validation(self):
        with pytest.raises(ValueError):
            LowRankFactors(np.full((2, 1), np.nan), np.zeros((1, 2)))
