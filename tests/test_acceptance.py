"""Acceptance gate.

One test per shipped guarantee.  Each prints a single verdict line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them all)
and then asserts, so a red line always fails the suite.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from lqdec import cli
from lqdec.alloc import (
    AllocSolution,
    LORA_FORMATS,
    SweepTable,
    brute_force_mckp,
    default_grid,
    solve_mckp,
    storage_report,
)
from lqdec.codebook import build_codebook, inverse_normal_cdf
from lqdec.decompose import lq_decompose
from lqdec.errors import InfeasibleBudgetError
from lqdec.factorize import factorize, weighted_error
from lqdec.packing import pack_bits, unpack_bits
from lqdec.quant import (
    QuantConfig,
    dequantize,
    quantize_nf,
    storage_bits_per_param,
)
from lqdec.tensor_io import gen_matrix, model_preset, read_tensor
from lqdec.quant import read_quantized


def verdict(num, passed, description):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_storage_costs_are_exact_rationals():
    cases = [
        ((4, 8, "fp32", 64, 256), Fraction(2113, 512)),
        ((3, 8, "fp32", 64, 256), Fraction(1601, 512)),
        ((2, 2, "fp16", 16, 16), Fraction(35, 16)),
    ]
    storage_bits_per_param(QuantConfig(2, 2, "fp32", 16, 16))  # warm caches
    start = time.monotonic()
    ok = all(storage_bits_per_param(QuantConfig(*cfg)) == want
             for cfg, want in cases)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1e-3
    verdict(1, ok, f"storage bits/param match hand-computed rationals "
                   f"exactly ({elapsed * 1e6:.0f}us < 1ms)")


def test_criterion_02_preset_effective_bits():
    start = time.monotonic()
    results = {}
    for name, target in (("llama2-7b-linear", 2.95), ("llama2-70b-linear", 2.85)):
        report = storage_report(model_preset(name).shapes(), Fraction(11, 4),
                                lora_rank=64,
                                lora_bits_per_param=LORA_FORMATS["nf8"])
        results[name] = (report.effective_bits_per_param, target)
    elapsed = time.monotonic() - start
    ok = all(abs(got - target) <= 0.01 for got, target in results.values())
    ok &= elapsed < 1.0
    detail = ", ".join(f"{name}={got:.4f} (target {target:.2f})"
                       for name, (got, target) in results.items())
    verdict(2, ok, f"effective bits at 2.75+rank-64 adapters: {detail}")


def bisect_quantile(p):
    """Reference inverse normal CDF: bisect scipy's forward CDF on the
    lower half and mirror, so tail probabilities keep full precision."""
    p = np.asarray(p, dtype=np.float64)
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    lo = np.full(q.shape, -40.0)
    hi = np.zeros(q.shape)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = ndtr(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    return np.where(flip, -x, x)


def test_criterion_03_codebook_and_inverse_cdf():
    start = time.monotonic()
    anchors_ok = True
    for bits in (2, 3, 4, 8):
        cb = build_codebook(bits)
        anchors_ok &= len(cb.levels) == 2 ** bits
        anchors_ok &= bool(np.all(np.diff(cb.levels) > 0))
        anchors_ok &= cb.levels[0] == -1.0
        anchors_ok &= cb.levels[-1] == 1.0
        anchors_ok &= cb.levels[cb.zero_index] == 0.0

    rng = np.random.default_rng(0)
    probs = np.concatenate([
        rng.uniform(1e-9, 1 - 1e-9, 10_000),
        [1e-9, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6, 1 - 1e-9],
    ])
    got = np.array([inverse_normal_cdf(float(p)) for p in probs])
    max_diff = float(np.max(np.abs(got - bisect_quantile(probs))))
    elapsed = time.monotonic() - start
    ok = anchors_ok and max_diff <= 1e-9 and elapsed < 10
    verdict(3, ok, f"codebook levels well formed; inverse CDF within "
                   f"{max_diff:.2e} of bisection (tol 1e-9, {elapsed:.1f}s < 10s)")


def test_criterion_04_lossless_codes_and_stable_requantization():
    start = time.monotonic()
    rng = np.random.default_rng(1)

    bijective = True
    for bits in (2, 3, 4, 8):
        for _ in range(1000):
            codes = rng.integers(0, 2 ** bits, size=int(rng.integers(0, 65)),
                                 dtype=np.uint8)
            back = unpack_bits(pack_bits(codes, bits), bits, len(codes))
            bijective &= np.array_equal(codes, back)

    cfgs = [QuantConfig(4, 8, "fp32", 64, 256), QuantConfig(2, 2, "fp32", 16, 16),
            QuantConfig(3, 4, "fp32", 32, 64)]
    grid_exact = True
    idempotent = True
    for i in range(50):
        cfg = cfgs[i % len(cfgs)]
        w = gen_matrix("on-grid", 64, 64, seed=i, config=cfg)
        q1 = quantize_nf(w, cfg)
        grid_exact &= np.array_equal(dequantize(q1), w)
        g = gen_matrix("gaussian", 64, 64, seed=100 + i)
        qa = quantize_nf(g, cfg)
        qb = quantize_nf(dequantize(qa), cfg)
        idempotent &= (qa.codes == qb.codes and qa.s_codes == qb.s_codes
                       and np.array_equal(qa.group_scales, qb.group_scales))

    elapsed = time.monotonic() - start
    ok = bijective and grid_exact and idempotent and elapsed < 30
    verdict(4, ok, f"pack/unpack bijective, on-grid exact, requantization "
                   f"stable ({elapsed:.1f}s < 30s)")


def test_criterion_05_decomposition_beats_quantization_alone():
    start = time.monotonic()
    cfg = QuantConfig(3, 8, "fp32", 64, 256)
    wins = 0
    traces_ok = True
    for seed in range(20):
        w = gen_matrix("gaussian", 512, 512, seed=seed)
        q_only = float(np.linalg.norm(w - dequantize(quantize_nf(w, cfg))))
        res = lq_decompose(w, None, cfg, 64, seed=seed)
        wins += res.error < q_only
        # the trace may only rise at the very step that triggered the stop
        steps = np.diff(res.error_trace)
        traces_ok &= bool(np.all(steps[:-1] <= 0)) if len(steps) > 1 else True
        traces_ok &= res.chosen_iteration == int(np.argmin(res.error_trace))
    elapsed = time.monotonic() - start
    ok = wins == 20 and traces_ok and elapsed < 300
    verdict(5, ok, f"rank-64 split beats quantize-only on {wins}/20 seeds, "
                   f"traces non-increasing until the stop ({elapsed:.0f}s < 300s)")


def test_criterion_06_error_nonincreasing_in_rank():
    start = time.monotonic()
    cfg = QuantConfig(3, 8, "fp32", 64, 256)
    fixtures = [
        gen_matrix("gaussian", 256, 256, seed=0),
        gen_matrix("decaying-spectrum", 256, 256, seed=1),
        gen_matrix("decaying-spectrum", 256, 256, seed=2),
        gen_matrix("low-rank", 256, 256, seed=3, rank=40),
        gen_matrix("gaussian", 256, 256, seed=4),
    ]
    ok = True
    for w in fixtures:
        errs = [lq_decompose(w, None, cfg, r, seed=0, method="exact").error
                for r in (32, 64, 128)]
        ok &= errs[2] <= errs[1] <= errs[0]
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    verdict(6, ok, f"error at rank 128 <= 64 <= 32 on all five fixtures "
                   f"({elapsed:.0f}s < 300s)")


def random_table(rng, n, c):
    configs = list(default_grid().configs[:c])
    sizes = [int(s) for s in rng.integers(1, 64, n)]
    return SweepTable(sizes=sizes, configs=configs,
                      errors=rng.uniform(0, 10, (n, c)),
                      fisher_weighted=False, rank=1, seed=0)


def test_criterion_07_allocator_matches_exhaustive_search():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    agreements = 0
    trials = 0
    while trials < 200:
        n = int(rng.integers(1, 9))
        c = int(rng.integers(1, 7))
        while c ** n > 200_000:
            n -= 1
        table = random_table(rng, n, c)
        lo = sum(min(row) for row in table.storage_bits)
        hi = sum(max(row) for row in table.storage_bits)
        budget = lo + (hi - lo) * Fraction(int(rng.integers(0, 105)), 100)
        got = solve_mckp(table, budget)
        want = brute_force_mckp(table, budget)
        agreements += got.total_error == want.total_error
        trials += 1

    table = random_table(rng, 2, 3)
    tight = sum(min(row) for row in table.storage_bits) - 1
    infeasible_agree = 0
    for solver in (solve_mckp, brute_force_mckp):
        try:
            solver(table, tight)
        except InfeasibleBudgetError:
            infeasible_agree += 1
    elapsed = time.monotonic() - start
    ok = agreements == 200 and infeasible_agree == 2 and elapsed < 60
    verdict(7, ok, f"branch-and-bound equals exhaustive optimum on "
                   f"{agreements}/200 instances, infeasible detected by both "
                   f"({elapsed:.0f}s < 60s)")


def separable_tail(w, row_w, col_w, rank):
    scaled = np.sqrt(row_w)[:, None] * w * np.sqrt(col_w)[None, :]
    s = np.linalg.svd(scaled, compute_uv=False)
    return float(np.sqrt(np.sum(s[rank:] ** 2)))


def test_criterion_08_weighted_factorization_is_optimal_for_separable_weights():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        rows, cols = int(rng.integers(8, 33)), int(rng.integers(8, 33))
        rank = int(rng.integers(1, 7))
        w = rng.standard_normal((rows, cols))
        row_w = rng.uniform(0.1, 4.0, rows)
        col_w = rng.uniform(0.1, 4.0, cols)
        fisher = np.outer(row_w, col_w)
        factors = factorize(w, fisher, rank, method="exact")
        got = weighted_error(w, factors=factors, f=fisher)
        best = separable_tail(w, row_w, col_w, rank)
        worst = max(worst, abs(got - best) / max(best, 1e-30))

    uniform_gap = 0.0
    for seed in range(10):
        w = np.random.default_rng(100 + seed).standard_normal((24, 16))
        plain = factorize(w, None, 4, method="exact")
        flat = factorize(w, np.full((24, 16), 2.5), 4, method="exact")
        a = weighted_error(w, factors=plain)
        b = weighted_error(w, factors=flat)
        uniform_gap = max(uniform_gap, abs(a - b) / max(a, 1e-30))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and uniform_gap <= 1e-9 and elapsed < 60
    verdict(8, ok, f"separable-weight error within {worst:.2e} of closed form "
                   f"(tol 1e-7); constant weights match unweighted "
                   f"({elapsed:.0f}s < 60s)")


def test_criterion_09_randomized_solver_stays_close_to_exact():
    start = time.monotonic()
    cfg = QuantConfig(3, 8, "fp32", 64, 256)
    w = gen_matrix("decaying-spectrum", 256, 256, seed=0, rho=0.9)
    worst = 0.0
    for rank in (8, 16, 32):
        exact = lq_decompose(w, None, cfg, rank, seed=0, method="exact").error
        rand = lq_decompose(w, None, cfg, rank, seed=0, method="randomized").error
        worst = max(worst, rand / exact)
    elapsed = time.monotonic() - start
    ok = worst <= 1.05 and elapsed < 30
    verdict(9, ok, f"randomized error <= {worst:.5f}x exact "
                   f"(tol 1.05x, {elapsed:.0f}s < 30s)")


def test_criterion_10_cli_init_is_optimal_and_reproducible(tmp_path, capsys):
    start = time.monotonic()
    inputs = []
    for i, (kind, extra) in enumerate([
        ("gaussian", []), ("gaussian", []), ("low-rank", ["--rank", "6"]),
    ]):
        path = tmp_path / f"w{i}.lqt"
        assert cli.main(["gen", "matrix", str(path), "--kind", kind,
                         "--rows", "48", "--cols", "32",
                         "--seed", str(i), *extra]) == 0
        inputs.append(path)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([
        [2, 2, "fp16", 16, 16], [2, 4, "fp32", 32, 64], [3, 4, "fp32", 16, 64],
        [3, 8, "bf16", 64, 256], [4, 8, "fp32", 64, 256], [4, 4, "fp16", 32, 64],
    ]))
    out_dir = tmp_path / "init"
    assert cli.main(["init", *map(str, inputs), "--out-dir", str(out_dir),
                     "--budget-bits-per-param", "3.0", "--grid", str(grid_path),
                     "--rank", "4", "--seed", "9"]) == 0
    capsys.readouterr()

    table = SweepTable.from_json(json.loads((out_dir / "table.json").read_text()))
    solution = AllocSolution.from_json(json.loads(
        (out_dir / "solution.json").read_text()))
    budget = Fraction(3) * sum(table.sizes)
    reference = brute_force_mckp(table, budget)
    matches_brute = (solution.total_error == reference.total_error
                     and solution.optimal
                     and solution.total_storage_bits <= budget)

    worst = 0.0
    for i, ci in enumerate(solution.assignment):
        q = read_quantized(out_dir / f"matrix_{i:03d}.lqq")
        l1 = read_tensor(out_dir / f"matrix_{i:03d}.l1.lqt")
        l2 = read_tensor(out_dir / f"matrix_{i:03d}.l2.lqt")
        w = read_tensor(inputs[i])
        rebuilt = dequantize(q) + l1.astype(np.float64) @ l2.astype(np.float64)
        sq_err = float(np.linalg.norm(w - rebuilt)) ** 2
        cell = table.errors[i, ci]
        worst = max(worst, abs(sq_err - cell) / max(cell, 1e-30))
    elapsed = time.monotonic() - start
    ok = matches_brute and worst <= 1e-6 and elapsed < 120
    verdict(10, ok, f"init solution feasible and equal to exhaustive optimum; "
                    f"artifacts reproduce swept errors within {worst:.2e} "
                    f"(tol 1e-6, {elapsed:.0f}s < 120s)")
