#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at shrunken sizes.

Run from the root of a checkout:

    python3 lqbench/smoke.py

For every workload it runs lqbench/run.py at ``--size smoke``, once
untraced and once traced, and checks that:

- the last line is the result object, correct, with no failed operation;
- every metric that BENCHMARK.json names appears with its unit;
- the traced and untraced runs report bit-identical quality values;
- on decompose-512, the self times of lq_decompose and of every layer below
  it add up to the lq_decompose span time, and that span time agrees with
  the call times the workload measures itself (within 2% + 0.5 ms).

It also checks that run.py refuses to run, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

# Layers that run inside lq_decompose on the decompose-512 workload.
DECOMPOSE_CHILDREN = (
    "factorize.factorize", "factorize.weighted_error", "quant.quantize_nf",
    "quant.dequantize", "packing.pack_bits", "packing.unpack_bits",
)


def run(args, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def bench_run(workload, trace):
    code, out, err = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--size", "smoke"])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}:\n{err}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return result, record


def check_result(result, spec, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: outputs not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}"
    names = [m["name"] for m in spec]
    assert sorted(result["metrics"]) == sorted(names), f"{label}: metric names differ"
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} not a number"


def check_self_times(metrics, record):
    """The span tree adds up, and its root agrees with the unit's own clock."""
    span = metrics["decompose.lq_decompose.span_ms"]["value"]
    total = metrics["decompose.lq_decompose.self_ms"]["value"] + sum(
        metrics[f"{layer}.self_ms"]["value"] for layer in DECOMPOSE_CHILDREN)
    assert span > 0 and abs(total - span) <= 1e-6 * span, (
        f"self times add up to {total} ms, lq_decompose spans take {span} ms")
    timed = record["timed_s"] * 1e3
    assert abs(span - timed) <= 0.02 * timed + 0.5, (
        f"lq_decompose spans take {span} ms, the calls timed by the unit {timed} ms")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".lqbench-smoke-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(["--workload", "init-128", "--seed", "1", "--seconds", "1"],
                           cwd=tmp, run_py=Path(tmp) / HERE.name / RUN.name)
    assert code != 0, "run.py succeeded without the program's sources"
    assert '"metrics"' not in out, "run.py printed a result without the program's sources"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        plain, plain_record = bench_run(workload, 0)
        check_result(plain, bench["end_to_end"], f"{workload} untraced")
        traced, traced_record = bench_run(workload, 1)
        check_result(traced, bench["per_layer"], f"{workload} traced")
        assert plain_record["quality"] == traced_record["quality"], (
            f"{workload}: traced quality {traced_record['quality']} differs from "
            f"untraced {plain_record['quality']}")
        if workload == "decompose-512":
            check_self_times(traced["metrics"], traced_record)
        print(f"ok {workload}")
    check_refuses_without_sources()
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
