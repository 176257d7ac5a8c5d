"""Sweep a small model's matrices over a config grid, then show how the
optimal per-matrix bit widths shift as the storage budget tightens.

Example:
    python3 scripts/budget_allocation_demo.py --budgets 2.5,3.0,4.0 --rank 8
"""

import argparse
from fractions import Fraction

from lqdec import (ConfigGrid, QuantConfig, gen_matrix, solve_mckp,
                   storage_bits_per_param, sweep)
from lqdec.errors import InfeasibleBudgetError

# a toy transformer block: attention projections plus a wider MLP pair
SHAPES = [
    ("attn.q", 128, 128),
    ("attn.k", 128, 128),
    ("attn.v", 128, 128),
    ("attn.o", 128, 128),
    ("mlp.up", 128, 344),
    ("mlp.down", 344, 128),
]

GRID = ConfigGrid(configs=(
    QuantConfig(2, 2, "fp16", 16, 16),
    QuantConfig(2, 4, "fp32", 32, 64),
    QuantConfig(3, 4, "fp32", 16, 64),
    QuantConfig(3, 8, "bf16", 64, 256),
    QuantConfig(4, 8, "fp32", 64, 256),
))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budgets", default="2.25,2.5,3.0,3.5,4.2",
                        help="comma list of bits-per-param budgets")
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    return parser.parse_args()


def main():
    args = parse_args()
    names = [name for name, _, _ in SHAPES]
    matrices = [gen_matrix("decaying-spectrum", rows, cols, seed=i)
                for i, (_, rows, cols) in enumerate(SHAPES)]

    print(f"sweeping {len(matrices)} matrices x {len(GRID)} configs "
          f"(rank {args.rank})")
    table = sweep(matrices, None, GRID, rank=args.rank, seed=args.seed,
                  workers=args.workers)

    header = f"{'budget':>7} {'used':>7} {'sq error':>12}  assignment"
    print()
    print(header)
    print("-" * 72)
    budgets = [Fraction(text) for text in args.budgets.split(",")]
    total_params = sum(table.sizes)
    solved = {}
    for budget in budgets:
        try:
            sol = solved[budget] = solve_mckp(table, budget * total_params)
        except InfeasibleBudgetError as exc:
            floor = float(exc.min_storage_bits) / total_params
            print(f"{float(budget):>7.2f} infeasible (needs >= {floor:.4f} bits/param)")
            continue
        used = float(sol.total_storage_bits) / total_params
        labels = ", ".join(
            f"{name}={table.configs[ci].label()}"
            for name, ci in zip(names, sol.assignment))
        print(f"{float(budget):>7.2f} {used:>7.4f} {sol.total_error:>12.4f}  {labels}")

    print()
    if not solved:
        print("no budget is feasible")
        return 0
    print("per-matrix bits at the tightest feasible budget:")
    sol = solved[min(solved)]
    for name, ci in zip(names, sol.assignment):
        print(f"  {name:>9}: {float(storage_bits_per_param(table.configs[ci])):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
