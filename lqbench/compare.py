#!/usr/bin/env python3
"""Compare saved runs of lqbench/run.py from two versions of the program.

Save the standard output of each run to its own file, then:

    python3 lqbench/compare.py --base parent/*.txt --change change/*.txt

For every workload and metric it prints each side's median and quartiles
and the change's median as a share of the base's.  Runs of one workload
and seed whose input digests differ (the alloc-ladder tables) are flagged,
and the exit code is 1: their timings compare different inputs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    lines = Path(path).read_text().strip().splitlines()
    records = [json.loads(line[len("record "):]) for line in lines
               if line.startswith("record ")]
    if not records:
        raise SystemExit(f"{path}: not a saved output of lqbench/run.py")
    return records[0], json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="saved runs of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="saved runs of the change")
    args = parser.parse_args(argv)

    runs = {"base": [load(p) for p in args.base], "change": [load(p) for p in args.change]}

    digests = {}
    flagged = 0
    for side, loaded in runs.items():
        for record, _ in loaded:
            key = (record["workload"], record["seed"])
            digest = record.get("table_sha256")
            if digest is None:
                continue
            digests.setdefault(key, {}).setdefault(side, set()).add(digest)
    for (workload, seed), sides in sorted(digests.items()):
        if len(sides) == 2 and sides["base"] != sides["change"]:
            flagged += 1
            print(f"INPUTS DIFFER {workload} seed {seed}: table digests "
                  f"{sorted(sides['base'])} vs {sorted(sides['change'])}; "
                  f"its timings compare different tables")

    workloads = sorted({r["workload"] for loaded in runs.values() for r, _ in loaded})
    for workload in workloads:
        values = {side: {} for side in runs}
        units = {}
        for side, loaded in runs.items():
            for record, result in loaded:
                if record["workload"] != workload:
                    continue
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        for name in sorted(set(values["base"]) & set(values["change"])):
            b_q1, b_med, b_q3 = spread(values["base"][name])
            c_q1, c_med, c_q3 = spread(values["change"][name])
            ratio = c_med / b_med if b_med else float("nan")
            print(f"{workload:14} {name:46} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] "
                  f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] x{ratio:.4f} {units[name]}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
