"""Time the exact allocator on synthetic model-scale sweep tables.

The tables stand in for a sweep of the first N linear layers of a model
preset (`--preset`, `llama2-7b-linear` by default) over the default
243-config grid.  Error (i, c) is the quantize-only relative squared
error of one seeded 128x128 gaussian matrix under config c, times the
size of matrix i, a lognormal per-matrix scale and 2% lognormal
per-config noise, all drawn from `--seed`, so the same arguments always
build the same table.  Each budget is solved `--repeat` times (once by
default) in this one process and printed as one JSON line: the median
and least time, the search's nodes and LP bounds, the root LP bound, the
process's peak RSS so far and `assignment_sha256`, the SHA-256 of the
assignment as a JSON list, so two versions of the solver can be shown to
return the same assignment.  Every repeat must return the first solve's
nodes, bounds and assignment, or the script stops.

Example:
    python3 scripts/solver_scale.py --matrices 224 --budgets 2.5,2.75,3.0,3.25
    python3 scripts/solver_scale.py --matrices 224 --budgets 2.75 --repeat 5
    python3 scripts/solver_scale.py --preset llama2-70b-linear --matrices 560 --budgets 2.75
"""

import argparse
import hashlib
import json
import resource
import statistics
import time
from fractions import Fraction

import numpy as np

from lqdec import (
    PRESET_NAMES,
    SweepTable,
    default_grid,
    dequantize,
    gen_matrix,
    model_preset,
    quantize_nf,
    solve_mckp,
)

PROBE_SIDE = 128


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=PRESET_NAMES, default="llama2-7b-linear",
                        help="the model whose linear layers the table stands in for")
    parser.add_argument("--matrices", type=int, default=28,
                        help="how many of the preset's shapes to allocate over")
    parser.add_argument("--budgets", default="2.5,2.75,3.0,3.25",
                        help="comma list of bits-per-param budgets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="solves per budget; `seconds` is their median")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    return args


def synthetic_table(preset, n, seed):
    shapes = model_preset(preset).shapes()
    if not 1 <= n <= len(shapes):
        raise SystemExit(f"--matrices must be in 1..{len(shapes)}, got {n}")
    configs = list(default_grid().configs)
    probe = gen_matrix("gaussian", PROBE_SIDE, PROBE_SIDE, seed=seed).astype(np.float64)
    norm_sq = float(np.sum(probe ** 2))
    rel = np.array([np.sum((probe - dequantize(quantize_nf(probe, cfg))) ** 2) / norm_sq
                    for cfg in configs])
    rng = np.random.default_rng(seed)
    sizes = [rows * cols for rows, cols in shapes[:n]]
    scale = np.array(sizes, dtype=np.float64)[:, None] * rng.lognormal(0.0, 1.0, (n, 1))
    errors = rel[None, :] * scale * rng.lognormal(0.0, 0.02, (n, len(configs)))
    return SweepTable(sizes=sizes, configs=configs, errors=errors,
                      fisher_weighted=False, rank=0, seed=seed)


def main():
    args = parse_args()
    table = synthetic_table(args.preset, args.matrices, args.seed)
    params = sum(table.sizes)
    for text in args.budgets.split(","):
        bits = Fraction(text.strip())
        seconds, sol = [], None
        for _ in range(args.repeat):
            start = time.perf_counter()
            again = solve_mckp(table, bits * params)
            seconds.append(time.perf_counter() - start)
            sol = sol or again
            if (again.nodes, again.bounds, again.assignment) != (sol.nodes, sol.bounds, sol.assignment):
                raise SystemExit(f"solve {len(seconds)} at {bits} bits/param differs from the first")
        print(json.dumps({
            "preset": args.preset,
            "matrices": args.matrices,
            "budget_bits_per_param": str(bits),
            "seed": args.seed,
            "seconds": round(statistics.median(seconds), 3),
            "seconds_min": round(min(seconds), 3),
            "repeats": args.repeat,
            "nodes": sol.nodes,
            "bounds": sol.bounds,
            "total_error": sol.total_error,
            "lp_bound": sol.lp_bound,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "assignment_sha256": hashlib.sha256(json.dumps(sol.assignment).encode()).hexdigest(),
        }), flush=True)


if __name__ == "__main__":
    main()
