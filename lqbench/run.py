#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lqdec.

Usage, from the root of a checkout:

    python3 lqbench/run.py --workload init-128 --seed 1 --seconds 40 --trace 0

Workloads (see lqbench/README.md for why each was chosen):

    init-128       in-process ``lqdec init`` runs over seeded 128-row matrices,
                   one per ninth of the config grid
    decompose-512  direct ``lq_decompose`` calls on 512-row matrices
    alloc-ladder   ``solve_mckp`` over a ladder of budgets on seeded tables

Each run builds its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks every output and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run repeats the same operations with every layer binding wrapped in a span
recorder and reports per-layer metrics instead.  The lines before the last
one are a run record (environment, input digest, exact quality values) and
a report of each workload's own named metrics.
"""

import os

# BLAS must be pinned before numpy is first imported: the thread count is
# read once, when OpenBLAS loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Input sizes.  "full" is what the benchmark measures; "smoke" shrinks
# every count so lqbench/smoke.py can exercise all code paths in seconds.
SIZES = {
    "full": {
        # (kind, rows, cols) of the init-128 inputs; the default grid has
        # 243 configs, so each matrix costs 243 sweep cells.  A cell costs
        # 15-25 ms at any of these widths (per-call overhead), so a round
        # over the whole grid takes about 10 s.
        "init_mats": (("gaussian", 128, 64), ("decaying-spectrum", 128, 32)),
        "init_grid": None,
        # One init per block-size pair (B0, B1): the grid's last two axes
        # take 9 values, so configs[j::9] share one pair.  Each init then
        # takes about 1 s and repeats four times in a run.
        "init_pieces": 9,
        # set-up builds at the start and again after every cycle
        "init_setup_reps": 25,
        # (kind, rows, cols, fisher kind or None) of the decompose-512 set
        "dec_mats": (
            ("gaussian", 512, 512, None),
            ("decaying-spectrum", 512, 512, None),
            ("gaussian", 512, 1376, None),
            ("gaussian", 512, 512, "random-nonneg"),
        ),
        "dec_rank": 64,
        # At 50 iterations the count varied from 35 to 50 with the seed and
        # the 512x1376 call took 6-8 s, so it ran twice in a run.  Every call
        # runs exactly 20 (no input stops earlier), and a cycle repeats five
        # times in a run.
        "dec_max_iters": 20,
        "dec_setup_reps": 1,
        # A pass over the ladder takes 3-4 s, so each solve is repeated
        # seven times or more, seconds apart, in one run.
        "ladder_tables": 16,
        "ladder_mats": 7,
        "ladder_rows": 32,
        "ladder_grid": None,
        "ladder_steps": 10,
    },
    "smoke": {
        "init_mats": (("gaussian", 32, 32), ("decaying-spectrum", 32, 48)),
        "init_grid": 12,
        "init_pieces": 3,
        "init_setup_reps": 3,
        "dec_mats": (
            ("gaussian", 64, 64, None),
            ("decaying-spectrum", 64, 64, None),
            ("gaussian", 64, 96, None),
            ("gaussian", 64, 64, "random-nonneg"),
        ),
        "dec_rank": 8,
        "dec_max_iters": 6,
        "dec_setup_reps": 1,
        "ladder_tables": 2,
        "ladder_mats": 4,
        "ladder_rows": 16,
        "ladder_grid": 27,
        "ladder_steps": 5,
    },
}

INIT_RANK = 8
INIT_BUDGET = "2.75"  # bits per parameter, the paper's setting
DEC_CONFIG = "3,8,fp32,64,256"
LADDER_TOP = Fraction(41, 10)

# An operation that takes longer than this counts as failed.
DEADLINE_S = {"init-128": 120.0, "decompose-512": 60.0, "alloc-ladder": 30.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("rel_error", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Layer bindings wrapped in the traced run: (module, attribute, span name).
# The span name is <defining module>.<function>.
TRACED = (
    ("decompose", "factorize", "factorize.factorize"),
    ("decompose", "weighted_error", "factorize.weighted_error"),
    ("decompose", "quantize_nf", "quant.quantize_nf"),
    ("decompose", "dequantize", "quant.dequantize"),
    ("quant", "pack_bits", "packing.pack_bits"),
    ("quant", "unpack_bits", "packing.unpack_bits"),
    ("alloc", "sweep", "alloc.sweep"),
    ("alloc", "solve_mckp", "alloc.solve_mckp"),
    ("alloc", "lq_decompose", "decompose.lq_decompose"),
    ("cli", "lq_lora_init", "alloc.lq_lora_init"),
    ("cli", "read_tensor", "tensor_io.read_tensor"),
    ("cli", "write_tensor", "tensor_io.write_tensor"),
    ("cli", "write_quantized", "quant.write_quantized"),
)

PER_LAYER = (
    ("factorize.factorize.calls", "count"),
    ("factorize.factorize.self_ms", "ms"),
    ("factorize.factorize.ms_p50", "ms"),
    ("factorize.weighted_error.calls", "count"),
    ("factorize.weighted_error.self_ms", "ms"),
    ("quant.quantize_nf.calls", "count"),
    ("quant.quantize_nf.self_ms", "ms"),
    ("quant.quantize_nf.ms_p50", "ms"),
    ("quant.dequantize.calls", "count"),
    ("quant.dequantize.self_ms", "ms"),
    ("quant.dequantize.calls_per_iter", "calls/iter"),
    ("packing.pack_bits.calls", "count"),
    ("packing.pack_bits.self_ms", "ms"),
    ("packing.pack_bits.bytes", "B"),
    ("packing.unpack_bits.calls", "count"),
    ("packing.unpack_bits.self_ms", "ms"),
    ("packing.unpack_bits.bytes", "B"),
    ("decompose.lq_decompose.calls", "count"),
    ("decompose.lq_decompose.self_ms", "ms"),
    ("decompose.lq_decompose.span_ms", "ms"),
    ("decompose.lq_decompose.iters", "count"),
    ("decompose.lq_decompose.useful_iter_frac", "ratio"),
    ("decompose.lq_decompose.stop.max-iters", "count"),
    ("decompose.lq_decompose.stop.error-increased", "count"),
    ("decompose.lq_decompose.stop.zero-error", "count"),
    ("alloc.sweep.cells", "count"),
    ("alloc.sweep.self_ms", "ms"),
    ("alloc.sweep.cells_per_s", "1/s"),
    ("alloc.lq_lora_init.final_decompose_ms", "ms"),
    ("alloc.solve_mckp.calls", "count"),
    ("alloc.solve_mckp.self_ms", "ms"),
    ("alloc.solve_mckp.ms_p50", "ms"),
    ("alloc.solve_mckp.ms_max", "ms"),
    ("tensor_io.read_tensor.calls", "count"),
    ("tensor_io.read_tensor.self_ms", "ms"),
    ("tensor_io.read_tensor.bytes", "B"),
    ("tensor_io.write_tensor.calls", "count"),
    ("tensor_io.write_tensor.self_ms", "ms"),
    ("tensor_io.write_tensor.bytes", "B"),
    ("quant.write_quantized.calls", "count"),
    ("quant.write_quantized.self_ms", "ms"),
    ("quant.write_quantized.bytes", "B"),
    ("trace.overhead_s", "s"),
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def load_lqdec():
    """Import lqdec from this checkout's src/, never from site-packages."""
    if not (SRC / "lqdec" / "__init__.py").is_file():
        raise SystemExit(f"error: no lqdec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqdec

    if SRC not in Path(lqdec.__file__).resolve().parents:
        raise SystemExit(f"error: imported lqdec from {lqdec.__file__}, not {SRC}")
    return lqdec


def median(values):
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Span recorder installed around module-level layer bindings.

    Each span is [name, start, end, parent index]; spans stay in memory.
    Counters collect the work each layer reports through its arguments or
    result (bytes moved, iterations run, stop reasons).
    """

    def __init__(self):
        self.modules = {name: importlib.import_module("lqdec." + name)
                        for name, _, _ in TRACED}
        self.spans = []
        self.stack = []
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result):
        if name == "packing.pack_bits":
            self.count(name + ".bytes", len(result))
        elif name == "packing.unpack_bits":
            self.count(name + ".bytes", len(args[0]))
        elif name in ("tensor_io.read_tensor", "tensor_io.write_tensor",
                      "quant.write_quantized"):
            self.count(name + ".bytes", os.path.getsize(args[0]))
        elif name == "decompose.lq_decompose":
            self.count(name + ".iters", len(result.error_trace))
            self.count(name + ".useful_iters", result.chosen_iteration + 1)
            self.count(name + ".stop." + result.converged_reason)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED binding for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = self.modules[module_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            if not self.stack:  # not inside a timed operation: an output check
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def layer_metrics(self):
        """Per-layer metrics derived from the recorded spans."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                child_time[span[3]] += duration
        by_name = {}
        for index, span in enumerate(self.spans):
            entry = by_name.setdefault(span[0], {"durations": [], "self": 0.0})
            entry["durations"].append(durations[index])
            entry["self"] += durations[index] - child_time[index]

        def stat(name, kind):
            entry = by_name.get(name)
            if entry is None:
                return 0
            if kind == "calls":
                return len(entry["durations"])
            if kind == "self_ms":
                return entry["self"] * 1e3
            if kind == "span_ms":
                return sum(entry["durations"]) * 1e3
            if kind == "ms_p50":
                return median(entry["durations"]) * 1e3
            if kind == "ms_max":
                return max(entry["durations"]) * 1e3
            raise KeyError(kind)

        def child_spans(child, parent):
            return [durations[i] for i, s in enumerate(self.spans)
                    if s[0] == child and s[3] >= 0 and self.spans[s[3]][0] == parent]

        dec = "decompose.lq_decompose"
        iters = self.counters.get(dec + ".iters", 0)
        cells = child_spans(dec, "alloc.sweep")
        sweep_s = stat("alloc.sweep", "span_ms") / 1e3
        out = {}
        for metric, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if metric.startswith(dec + ".stop."):
                out[metric] = self.counters.get(metric, 0)
            elif kind in ("calls", "self_ms", "span_ms", "ms_p50", "ms_max"):
                out[metric] = stat(layer, kind)
            elif kind == "bytes":
                out[metric] = self.counters.get(metric, 0)
            elif metric == "quant.dequantize.calls_per_iter":
                out[metric] = stat("quant.dequantize", "calls") / iters if iters else 0
            elif metric == dec + ".iters":
                out[metric] = iters
            elif metric == dec + ".useful_iter_frac":
                out[metric] = self.counters.get(dec + ".useful_iters", 0) / iters if iters else 0
            elif metric == "alloc.sweep.cells":
                out[metric] = len(cells)
            elif metric == "alloc.sweep.cells_per_s":
                out[metric] = len(cells) / sweep_s if sweep_s else 0
            elif metric == "alloc.lq_lora_init.final_decompose_ms":
                out[metric] = sum(child_spans(dec, "alloc.lq_lora_init")) * 1e3
        return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs built from a seed, plus repeatable units of work.

    `setup` builds the inputs and returns each build's seconds; `rebuild`
    builds them again after every cycle of pieces, so that set-up is timed
    across the whole run.  Units come in cycles of `period` pieces: `unit(k, tracer)`
    runs piece k % period and returns (seconds of each timed operation,
    quality record); it raises CheckFailed on a wrong output.  Every repeat
    of a piece runs the same operations in the same order, so each
    operation can be summarised over its repeats.
    """

    period = 1

    def __init__(self, lqdec, seed, size, workdir):
        self.lq = lqdec
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def sub_seed(self, *parts):
        return self.lq.derive_seed(self.seed, *parts)

    def grid(self, count):
        configs = self.lq.default_grid().configs
        return self.lq.ConfigGrid(configs=configs if count is None else configs[:count])

    def setup(self):
        """Build the inputs several times; return each build's seconds."""
        return self.rebuild()

    def rebuild(self):
        """Build the inputs again, several times; return each build's seconds."""
        times = []
        for _ in range(self.size[self.setup_reps]):
            start = time.perf_counter()
            self.build()
            times.append(time.perf_counter() - start)
        return times

    def record(self):
        return {}


def per_piece(units, period, stat):
    """For each piece, `stat` of each operation's times over its repeats."""
    samples = [[] for _ in range(period)]
    for k, times, _ in units:
        samples[k % period].append(times)
    for piece, repeats in enumerate(samples):
        check(len({len(times) for times in repeats}) == 1,
              f"piece {piece}: repeats ran different numbers of operations")
    return [[stat(column) for column in zip(*repeats)] for repeats in samples]


def first_cycle(units, period):
    """The quality record of each piece's first run."""
    return [next(q for k, _, q in units if k % period == piece) for piece in range(period)]


class InitWorkload(Workload):
    """`lqdec init` over a few matrices: sweep cells, solve and file I/O.

    Each unit is one init over every matrix and one piece of the grid; the
    pieces of a cycle cover the grid once.
    """

    setup_reps = "init_setup_reps"

    def __init__(self, *args):
        super().__init__(*args)
        self.period = self.size["init_pieces"]

    def build(self):
        lq = self.lq
        configs = self.grid(self.size["init_grid"]).configs
        self.grid_files = []
        for j in range(self.period):
            path = self.workdir / f"grid{j}.json"
            path.write_text(json.dumps({"configs": [list(c.as_tuple())
                                                    for c in configs[j::self.period]]}))
            self.grid_files.append(path)
        self.paths = []
        self.norm_sq = 0.0
        for k, (kind, rows, cols) in enumerate(self.size["init_mats"]):
            w = lq.gen_matrix(kind, rows, cols, seed=self.sub_seed(0, k))
            path = self.workdir / f"w{k}.lqt"
            lq.write_tensor(path, w)
            self.paths.append(path)
            self.norm_sq += lq.weighted_error(w) ** 2
        self.cells = len(self.paths) * len(configs)

    def unit(self, k, tracer):
        out_dir = self.workdir / f"init-{k}"
        argv = ["init", *map(str, self.paths), "--out-dir", str(out_dir),
                "--budget-bits-per-param", INIT_BUDGET, "--rank", str(INIT_RANK),
                "--seed", str(self.seed), "--workers", "1",
                "--grid", str(self.grid_files[k % self.period])]
        main = self.lq.cli.main
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
            elapsed = time.perf_counter() - start
        check(code == 0, f"lqdec init exited with {code}")
        quality = self.check_outputs(out_dir)
        shutil.rmtree(out_dir)
        return [elapsed], quality

    def check_outputs(self, out_dir):
        lq = self.lq
        table = lq.SweepTable.from_json(json.loads((out_dir / "table.json").read_text()))
        solution = lq.AllocSolution.from_json(json.loads((out_dir / "solution.json").read_text()))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assignment = solution.assignment
        params = sum(table.sizes)
        check(len(assignment) == len(self.paths), "one config per input matrix")
        storage = sum(size * lq.storage_bits_per_param(table.configs[ci])
                      for size, ci in zip(table.sizes, assignment))
        check(storage <= Fraction(INIT_BUDGET) * params,
              f"storage {storage} exceeds {INIT_BUDGET} bits/param over {params} params")
        exact_total = sum(Fraction(float(table.errors[i, ci])) for i, ci in enumerate(assignment))
        check(float(exact_total) == solution.total_error, "solution total disagrees with table")
        for i, ci in enumerate(assignment):
            entry = manifest["matrices"][i]
            stem = out_dir / f"matrix_{i:03d}"
            q = lq.read_quantized(stem.with_name(stem.name + ".lqq"))
            factors = lq.LowRankFactors(
                l1=lq.read_tensor(stem.with_name(stem.name + ".l1.lqt")),
                l2=lq.read_tensor(stem.with_name(stem.name + ".l2.lqt")),
            )
            w = lq.read_tensor(self.paths[i])
            check(q.config == table.configs[ci], f"matrix {i}: container config differs")
            error = lq.weighted_error(w, lq.dequantize(q), factors)
            check(error == entry["error"], f"matrix {i}: re-read error {error!r} != "
                                           f"manifest {entry['error']!r}")
            check(error ** 2 == table.errors[i, ci], f"matrix {i}: error differs from its cell")
        n, c = table.errors.shape
        if c ** n <= lq.alloc.BRUTE_FORCE_GUARD:
            budget = Fraction(INIT_BUDGET) * params
            reference = lq.brute_force_mckp(table, budget)
            ref_total = sum(Fraction(float(table.errors[i, ci]))
                            for i, ci in enumerate(reference.assignment))
            check(ref_total == exact_total, "solve_mckp objective differs from brute force")
        return {"init_sq_error": solution.total_error,
                "rel_error": solution.total_error / self.norm_sq}

    def metrics(self, units):
        walls = [t for (t,) in per_piece(units, self.period, median)]
        quality = first_cycle(units, self.period)
        wall = sum(walls)
        return {
            "wall_s": wall,
            "op_ms_p50": wall / self.cells * 1e3,
            "rel_error": sum(q["rel_error"] for q in quality) / len(quality),
        }, {
            "init_wall_s": (wall, "s"),
            "init_wall_s_min": (sum(t for (t,) in per_piece(units, self.period, min)), "s"),
            "init_s_p50": (median(walls), "s"),
            "init_sq_error": (sum(q["init_sq_error"] for q in quality), "1"),
        }


class DecomposeWorkload(Workload):
    """Direct lq_decompose calls on large matrices: factorize and quant.

    Each unit is one call; the pieces of a cycle are the input matrices.
    """

    setup_reps = "dec_setup_reps"

    def __init__(self, *args):
        super().__init__(*args)
        self.period = len(self.size["dec_mats"])

    def build(self):
        lq = self.lq
        self.cfg = lq.QuantConfig.parse(DEC_CONFIG)
        self.inputs = []
        for k, (kind, rows, cols, fisher_kind) in enumerate(self.size["dec_mats"]):
            w = lq.gen_matrix(kind, rows, cols, seed=self.sub_seed(1, k))
            f = None
            if fisher_kind is not None:
                f = lq.gen_fisher(fisher_kind, rows, cols, seed=self.sub_seed(2, k))
            norm = lq.weighted_error(w, None, None, f)
            quant_only = lq.weighted_error(w, lq.dequantize(lq.quantize_nf(w, self.cfg)), None, f)
            self.inputs.append((w, f, norm, quant_only))

    def unit(self, k, tracer):
        i = k % self.period
        w, f, norm, quant_only = self.inputs[i]
        decompose = self.lq.decompose.lq_decompose
        args = (w, f, self.cfg, self.size["dec_rank"])
        kwargs = {"max_iters": self.size["dec_max_iters"], "seed": self.sub_seed(3, i)}
        start = time.perf_counter()
        if tracer is None:
            res = decompose(*args, **kwargs)
        else:
            res = tracer.call("decompose.lq_decompose", decompose, *args, **kwargs)
        elapsed = time.perf_counter() - start
        again = self.lq.weighted_error(w, self.lq.dequantize(res.q), res.factors, f)
        check(res.error == again, f"matrix {i}: reported error {res.error!r} != "
                                  f"recomputed {again!r}")
        check(res.error < quant_only, f"matrix {i}: split error {res.error!r} is not "
                                      f"below quantize-only {quant_only!r}")
        return [elapsed], {"error": res.error, "iterations": len(res.error_trace),
                           "rel_error": res.error / norm}

    def metrics(self, units):
        calls = [t for (t,) in per_piece(units, self.period, median)]
        quality = first_cycle(units, self.period)
        # The per-operation time is taken per alternating iteration, the
        # unit that ROADMAP item 2 targets; the set's wall time still shows
        # any change in the iteration count.
        per_iter = [t / q["iterations"] for t, q in zip(calls, quality)]
        rel_error = sum(q["rel_error"] for q in quality) / len(quality)
        return {
            "wall_s": sum(calls),
            "op_ms_p50": median(per_iter) * 1e3,
            "rel_error": rel_error,
        }, {
            "decompose_s_p50": (median(calls), "s"),
            "decompose_iter_ms_p50": (median(per_iter) * 1e3, "ms"),
            "decompose_wall_s": (sum(calls), "s"),
            "decompose_wall_s_min": (sum(t for (t,) in per_piece(units, self.period, min)), "s"),
            "decompose_rel_error": (rel_error, "ratio"),
        }


class LadderWorkload(Workload):
    """solve_mckp at every budget of a ladder, on each of several seeded tables.

    Each unit is one pass over every table and budget.
    """

    def setup(self):
        """Build each table once; return each table's build seconds."""
        lq = self.lq
        grid = self.grid(self.size["ladder_grid"])
        kinds = ("gaussian", "decaying-spectrum")
        rows = self.size["ladder_rows"]
        floor = min(lq.storage_bits_per_param(cfg) for cfg in grid.configs)
        steps = self.size["ladder_steps"]
        digest = hashlib.sha256()
        self.tables = []
        times = []
        for t in range(self.size["ladder_tables"]):
            start = time.perf_counter()
            mats = [lq.gen_matrix(kinds[i % 2], rows, rows * (1 + i % 3),
                                  seed=self.sub_seed(4, t, i))
                    for i in range(self.size["ladder_mats"])]
            errors = [[lq.weighted_error(m, lq.dequantize(lq.quantize_nf(m, cfg))) ** 2
                       for cfg in grid.configs] for m in mats]
            table = lq.sweep(mats, None, grid, rank=1, errors_init=errors)
            params = sum(table.sizes)
            budgets = [(floor + (LADDER_TOP - floor) * Fraction(k, steps - 1)) * params
                       for k in range(steps)]
            norm_sq = sum(lq.weighted_error(m) ** 2 for m in mats)
            self.tables.append((table, budgets, norm_sq))
            times.append(time.perf_counter() - start)
            digest.update(table.errors.astype("<f8").tobytes())
        self.digest = digest.hexdigest()
        return times

    def rebuild(self):
        """Tables are built once: one build costs a sixth of a pass."""
        return []

    def record(self):
        return {"table_sha256": self.digest}

    def unit(self, k, tracer):
        solve = self.lq.alloc.solve_mckp
        times, ladders, rel = [], [], []
        for table, budgets, norm_sq in self.tables:
            totals = []
            for budget in budgets:
                start = time.perf_counter()
                if tracer is None:
                    solution = solve(table, budget)
                else:
                    solution = tracer.call("alloc.solve_mckp", solve, table, budget)
                times.append(time.perf_counter() - start)
                storage = sum(size * self.lq.storage_bits_per_param(table.configs[ci])
                              for size, ci in zip(table.sizes, solution.assignment))
                check(storage <= budget, f"storage {storage} exceeds budget {budget}")
                exact = sum(Fraction(float(table.errors[i, ci]))
                            for i, ci in enumerate(solution.assignment))
                check(float(exact) == solution.total_error, "solution total disagrees with table")
                if totals:
                    check(exact <= totals[-1],
                          f"total error rose from {float(totals[-1])!r} to {float(exact)!r} "
                          f"as the budget grew to {budget}")
                totals.append(exact)
            ladders.append([float(e) for e in totals])
            rel.append(float(sum(totals)) / len(totals) / norm_sq)
        return times, {"ladder_errors": ladders, "rel_error": sum(rel) / len(rel)}

    def metrics(self, units):
        # The ladder time is one pass with every solve at its median over
        # the passes: the slow budgets count in full.
        (solves,) = per_piece(units, self.period, median)
        ladder = sum(solves)
        return {
            "wall_s": ladder,
            "op_ms_p50": median(solves) * 1e3,
            "rel_error": units[0][2]["rel_error"],
        }, {
            "alloc_ladder_s": (ladder, "s"),
            "alloc_pass_s_p50": (median([sum(u[1]) for u in units]), "s"),
            "alloc_ladder_s_min": (sum(per_piece(units, self.period, min)[0]), "s"),
            "alloc_solve_ms_p50": (median(solves) * 1e3, "ms"),
            "alloc_solve_ms_max": (max(solves) * 1e3, "ms"),
        }


WORKLOAD_CLASSES = {
    "init-128": InitWorkload,
    "decompose-512": DecomposeWorkload,
    "alloc-ladder": LadderWorkload,
}


# ---------------------------------------------------------------------------
# running units and reporting
# ---------------------------------------------------------------------------

class Counts:
    """Operations attempted and failed (raised or over the deadline)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def run(self, workload, k, tracer):
        """Run one unit; return its result, or None when it failed."""
        try:
            result = workload.unit(k, tracer)
        except CheckFailed:
            raise
        except Exception:  # a failed operation is counted, not fatal
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += len(result[0])
        self.failed += sum(1 for t in result[0] if t > self.deadline)
        return result


def run_units(workload, counts, seconds, tracer=None, count=None, setups=None):
    """Run units until `seconds` would be exceeded, or exactly `count` units.

    Returns ([(k, op seconds, quality)] of the units that did not raise,
    wall seconds, units run).  At least one cycle of the workload's pieces
    runs.  After that a unit starts only if the last run of the same piece
    still fits in the time left, so runs end close to `seconds` rather than
    one unit after it.  With a `setups` list, the inputs are rebuilt after
    every cycle of pieces and each build's seconds are appended to it.
    """
    units, walls = [], {}
    start = time.perf_counter()
    k = 0
    while True:
        piece = k % workload.period
        if count is not None:
            if k >= count:
                break
        elif k >= workload.period and time.perf_counter() - start + walls[piece] > seconds:
            break
        t0 = time.perf_counter()
        result = counts.run(workload, k, tracer)
        if result is not None:
            units.append((k, *result))
        if setups is not None and piece == workload.period - 1:
            setups.extend(workload.rebuild())
        walls[piece] = time.perf_counter() - t0
        k += 1
    return units, time.perf_counter() - start, k


def environment(lqdec, args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "lqdec": lqdec.__version__,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD commit of the checkout, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'smoke' is for lqbench/smoke.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    lqdec = load_lqdec()
    import lqdec.cli  # noqa: F401  (bound as lqdec.cli for the workloads)

    size = SIZES[args.size]
    workdir = Path(tempfile.mkdtemp(prefix=".lqbench-", dir=ROOT))
    try:
        workload = WORKLOAD_CLASSES[args.workload](lqdec, args.seed, size, workdir)
        setups = workload.setup()
        counts = Counts(DEADLINE_S[args.workload])
        correct = True
        try:
            if args.trace:
                # Same units untraced, then traced; the difference in wall
                # time is the cost of tracing.
                plain, plain_s, n_units = run_units(workload, counts, args.seconds / 2)
                tracer = Tracer()
                with tracer.installed():
                    traced, traced_s, _ = run_units(workload, counts, None, tracer, n_units)
                if [u[2] for u in plain] != [u[2] for u in traced]:
                    raise CheckFailed("traced and untraced runs gave different results")
                units = traced
                metrics = tracer.layer_metrics()
                metrics["trace.overhead_s"] = traced_s - plain_s
                spec = PER_LAYER
            else:
                units, _, _ = run_units(workload, counts, args.seconds, setups=setups)
                spec = END_TO_END
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            units = []
        if {k % workload.period for k, _, _ in units} != set(range(workload.period)):
            print(json.dumps({"correct": False, "attempted": max(counts.attempted, 1),
                              "failed": counts.failed, "metrics": {}}))
            return 1
        quality = first_cycle(units, workload.period)
        if any(q != quality[k % workload.period] for k, _, q in units):
            print("check failed: repeated units gave different results", file=sys.stderr)
            correct = False
        end_to_end, named = workload.metrics(units)
        if not args.trace:
            metrics = dict(end_to_end)
            metrics["setup_s"] = min(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        named["fail_frac"] = (counts.failed / counts.attempted, "ratio")
        named["setup_s"] = (min(setups), "s")
        named["setup_builds"] = (len(setups), "count")
        named["setup_s_p50"] = (median(setups), "s")

        record = environment(lqdec, args)
        record.update(workload.record())
        record["units"] = len(units)
        record["quality"] = quality
        record["timed_s"] = sum(t for _, times, _ in units for t in times)
        record["unit_times"] = [[k, *(round(t, 6) for t in times)] for k, times, _ in units]
        print("record " + json.dumps(record, sort_keys=True))
        for name, (value, unit) in named.items():
            print(f"report {name} {value!r} {unit}")
        result = {
            "correct": correct,
            "attempted": counts.attempted,
            "failed": counts.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
