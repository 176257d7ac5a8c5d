"""Command-line front end.

Every command that writes files returns a manifest recording the command,
parameters, inputs and outputs; `main` stamps it with the version and
elapsed time and writes it next to the primary output.  Sweeps flush
their table, with its parameters and input file hashes inside, after each
completed row, and resume from a partial table whose parameters match the
rerun's.

Exit codes: 0 success, 1 usage or I/O error, 2 malformed file, 3
infeasible budget, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .alloc import (
    ConfigGrid,
    LORA_FORMATS,
    SweepTable,
    default_grid,
    lq_lora_init,
    solve_mckp,
    storage_report,
    sweep,
)
from .decompose import lq_decompose
from .errors import FormatError, InfeasibleBudgetError
from .quant import (
    QuantConfig,
    dequantize,
    exact_container_bytes,
    quantize_nf,
    read_quantized,
    storage_bits_per_param,
    write_quantized,
)
from .tensor_io import (
    FISHER_KINDS,
    MATRIX_KINDS,
    PRESET_NAMES,
    gen_fisher,
    gen_matrix,
    model_preset,
    read_fisher,
    read_tensor,
    write_tensor,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    """Parse a decimal or p/q string exactly, with no float in between."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from None


def _fraction_list(text: str) -> list:
    return [_fraction(part) for part in text.split(",")]


def _atomic_write_json(path: Path, payload):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _beside(primary: Path) -> Path:
    return primary.with_name(primary.stem + ".manifest.json")


def _manifest(path: Path, command: str, params: dict, inputs, outputs, **stats) -> tuple:
    """A command's manifest path and payload, for `main` to stamp and write."""
    return path, {"command": command, "params": params, "inputs": [str(p) for p in inputs],
                  "outputs": [str(p) for p in outputs], **stats}


def _stats(res) -> dict:
    """A decomposition's record: its error, how it iterated and why it stopped."""
    return {"error": res.error, "error_trace": list(res.error_trace),
            "chosen_iteration": res.chosen_iteration,
            "converged_reason": res.converged_reason}


def _solver_stats(solution) -> dict:
    """The work the exact solver did, as its solution file records it."""
    return {"nodes": solution.nodes, "bounds": solution.bounds, "lp_bound": solution.lp_bound}


def _load_grid(path) -> ConfigGrid:
    if path is None:
        return default_grid()
    with open(path) as fh:
        payload = json.load(fh)
    rows = payload.get("configs") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise UsageError(f"{path}: expected a list of configs, or an object "
                         "whose 'configs' key holds one")
    for row in rows:
        if not isinstance(row, list) or len(row) != 5:
            raise UsageError(f"{path}: a config is a list [b0, b1, b2, B0, B1], got {row!r}")
    return ConfigGrid(configs=tuple(QuantConfig(*row) for row in rows))


def _read_json(path, what: str):
    """A JSON file's payload; FormatError naming the file if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not a JSON {what}: {exc}") from None


def _parse_table(path, payload) -> SweepTable:
    """The sweep table `payload` read from `path`; FormatError naming the file."""
    try:
        return SweepTable.from_json(payload)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _sha256(path) -> str:
    """Hex digest of a file, read 1 MiB at a time so no copy of it is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_split(prefix: Path, res) -> list:
    """Write a decomposition as <prefix>.lqq, .l1.lqt and .l2.lqt."""
    paths = [prefix.with_name(prefix.name + ext) for ext in (".lqq", ".l1.lqt", ".l2.lqt")]
    write_quantized(paths[0], res.q)
    write_tensor(paths[1], res.factors.l1)
    write_tensor(paths[2], res.factors.l2)
    return paths


def _load_fishers(paths, matrices):
    """One importance matrix per input matrix, each of its matrix's shape."""
    if not paths:
        return None
    if len(paths) != len(matrices):
        raise UsageError(f"expected {len(matrices)} fisher files, got {len(paths)}")
    fishers = [read_fisher(p) for p in paths]
    for path, f, m in zip(paths, fishers, matrices):
        if f.shape != m.shape:
            raise UsageError(f"{path}: importance shape {f.shape} does not match "
                             f"matrix shape {m.shape}")
    return fishers


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_matrix(args):
    cfg = QuantConfig.parse(args.config) if args.config else None
    m = gen_matrix(args.kind, args.rows, args.cols, seed=args.seed,
                   rank=args.rank, rho=args.rho, config=cfg)
    out = Path(args.output)
    write_tensor(out, m)
    print(f"wrote {out} ({args.rows}x{args.cols} {args.kind})")
    return _manifest(_beside(out), "gen matrix", {
        "kind": args.kind, "rows": args.rows, "cols": args.cols,
        "seed": args.seed, "rank": args.rank, "rho": args.rho,
        "config": args.config,
    }, [], [out])


def cmd_gen_fisher(args):
    f = gen_fisher(args.kind, args.rows, args.cols, seed=args.seed)
    out = Path(args.output)
    write_tensor(out, f)
    print(f"wrote {out} ({args.rows}x{args.cols} fisher {args.kind})")
    return _manifest(_beside(out), "gen fisher", {
        "kind": args.kind, "rows": args.rows, "cols": args.cols, "seed": args.seed,
    }, [], [out])


def cmd_quantize(args):
    cfg = QuantConfig.parse(args.config)
    m = read_tensor(args.input)
    q = quantize_nf(m, cfg)
    out = Path(args.output)
    write_quantized(out, q)
    nbytes = exact_container_bytes(q.rows, q.cols, cfg)
    bits = storage_bits_per_param(cfg)
    print(f"wrote {out} ({nbytes} bytes, {float(bits):.6f} bits/param)")
    return _manifest(_beside(out), "quantize", {"config": cfg.label()}, [args.input], [out],
                     container_bytes=nbytes, bits_per_param=float(bits))


def cmd_dequantize(args):
    q = read_quantized(args.input)
    m = dequantize(q)
    out = Path(args.output)
    write_tensor(out, m)
    print(f"wrote {out} ({q.rows}x{q.cols})")
    return _manifest(_beside(out), "dequantize", {"config": q.config.label()},
                     [args.input], [out])


def cmd_decompose(args):
    cfg = QuantConfig.parse(args.config)
    w = read_tensor(args.input)
    fisher = read_fisher(args.fisher) if args.fisher else None
    res = lq_decompose(w, fisher, cfg, args.rank, max_iters=args.max_iters, seed=args.seed)
    outputs = _write_split(Path(args.out_prefix), res)
    inputs = [args.input] + ([args.fisher] if args.fisher else [])
    print(f"error={res.error:.6e} iterations={len(res.error_trace)} "
          f"chosen={res.chosen_iteration} reason={res.converged_reason}")
    return _manifest(_beside(outputs[0]), "decompose", {
        "config": cfg.label(), "rank": args.rank, "max_iters": args.max_iters,
        "seed": args.seed, "fisher": args.fisher,
    }, inputs, outputs, **_stats(res))


def _load_sweep(args):
    """What `sweep` and `init` read: the grid, matrices, fishers, and the
    params a table depends on, input file contents included."""
    grid = _load_grid(args.grid)
    matrices = [read_tensor(p) for p in args.inputs]
    fishers = _load_fishers(args.fisher, matrices)
    if args.workers < 1:
        raise UsageError(f"worker count must be at least 1, got {args.workers}")
    names = args.fisher or []
    params = {
        "inputs": [str(p) for p in args.inputs],
        "fishers": [str(p) for p in names],
        "sha256": {str(p): _sha256(p) for p in [*args.inputs, *names]},
        "grid": [list(c.as_tuple()) for c in grid.configs],
        "rank": args.rank,
        "seed": args.seed,
        "max_iters": args.max_iters,
    }
    return grid, matrices, fishers, params


def cmd_sweep(args):
    grid, matrices, fishers, params = _load_sweep(args)
    out = Path(args.output)

    errors_init = None
    if out.exists() and not args.fresh:
        try:
            previous = _read_json(out, "sweep table")
            # no object stops the run; another sweep's or an older table is redone
            if not isinstance(previous, dict) or previous.get("params") == params:
                errors_init = _parse_table(out, previous).errors
                done = int(np.sum(~np.isnan(errors_init)))
                print(f"resuming: {done}/{errors_init.size} cells already swept")
        except FormatError as exc:
            raise FormatError(f"{exc}; pass --fresh to sweep it again") from None

    def flush(_, table):
        # the resume key travels with the cells, in one atomic replace
        _atomic_write_json(out, {**table.to_json(), "params": params})

    table = sweep(matrices, fishers, grid, args.rank, seed=args.seed, workers=args.workers,
                  max_iters=args.max_iters, errors_init=errors_init, on_row=flush)
    flush(None, table)
    print(f"wrote {out} ({len(matrices)} matrices x {len(grid)} configs)")
    return _manifest(_beside(out), "sweep", params, args.inputs, [out])


def cmd_allocate(args):
    table = _parse_table(args.table, _read_json(args.table, "sweep table"))
    budget_bits = args.budget_bits_per_param * sum(table.sizes)
    solution = solve_mckp(table, budget_bits)
    out = Path(args.output)
    _atomic_write_json(out, solution.to_json())
    used = float(solution.total_storage_bits / sum(table.sizes))
    print(f"total_error={solution.total_error:.6e} bits_per_param={used:.6f} "
          f"optimal={solution.optimal}")
    return _manifest(_beside(out), "allocate", {
        "table": str(args.table),
        "budget_bits_per_param": str(args.budget_bits_per_param),
    }, [args.table], [out], **_solver_stats(solution))


def cmd_init(args):
    grid, matrices, fishers, params = _load_sweep(args)
    params["budget_bits_per_param"] = str(args.budget_bits_per_param)

    results, solution, table = lq_lora_init(
        matrices, fishers, grid, args.rank,
        budget_bits_per_param=args.budget_bits_per_param, seed=args.seed,
        workers=args.workers, max_iters=args.max_iters,
    )
    # made only now: an infeasible budget leaves no directory behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = [out_dir / "table.json", out_dir / "solution.json"]
    _atomic_write_json(outputs[0], table.to_json())
    _atomic_write_json(outputs[1], solution.to_json())
    per_matrix = []
    for i, (res, ci) in enumerate(zip(results, solution.assignment)):
        outputs += _write_split(out_dir / f"matrix_{i:03d}", res)
        cfg = table.configs[ci]
        per_matrix.append({"input": str(args.inputs[i]), "config": cfg.label(),
                           "config_index": ci, **_stats(res)})
        print(f"matrix {i}: config={cfg.label()} error={res.error:.6e}")
    print(f"total_error={solution.total_error:.6e} optimal={solution.optimal}")
    return _manifest(
        out_dir / "manifest.json", "init", params, args.inputs, outputs,
        matrices=per_matrix, total_error=solution.total_error,
        bits_per_param=float(solution.total_storage_bits / sum(table.sizes)),
        **_solver_stats(solution))


def _parse_shapes(text):
    shapes = []
    for part in text.split(","):
        rows, sep, cols = part.partition("x")
        rows, cols = rows.strip(), cols.strip()
        if not (sep and rows.isdecimal() and cols.isdecimal()):
            raise UsageError(f"--shapes takes ROWSxCOLS pairs, got {part!r}")
        shapes.append((int(rows), int(cols)))
    return shapes


def cmd_report(args):
    if (args.preset is None) == (args.shapes is None):
        raise UsageError("exactly one of --preset and --shapes is required")
    shapes = model_preset(args.preset).shapes() if args.preset else _parse_shapes(args.shapes)
    quant_bits = args.quant_bits if len(args.quant_bits) > 1 else args.quant_bits[0]
    report = storage_report(shapes, quant_bits, args.lora_rank, args.lora_bits)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="lqdec",
                     description="low-rank plus quantized matrix decomposition")
    parser.add_argument("--version", action="version", version=f"lqdec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic matrices and fishers")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    gm = gen_sub.add_parser("matrix", help="write a synthetic matrix")
    gm.add_argument("output")
    gm.add_argument("--kind", required=True, choices=sorted(MATRIX_KINDS))
    gm.add_argument("--rows", type=int, required=True)
    gm.add_argument("--cols", type=int, required=True)
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--rank", type=int, default=None, help="rank for low-rank matrices")
    gm.add_argument("--rho", type=float, default=0.9, help="decay rate for decaying-spectrum")
    gm.add_argument("--config", default=None, help="quant config for on-grid matrices")
    gm.set_defaults(func=cmd_gen_matrix)

    gf = gen_sub.add_parser("fisher", help="write a synthetic fisher matrix")
    gf.add_argument("output")
    gf.add_argument("--kind", required=True, choices=sorted(FISHER_KINDS))
    gf.add_argument("--rows", type=int, required=True)
    gf.add_argument("--cols", type=int, required=True)
    gf.add_argument("--seed", type=int, default=0)
    gf.set_defaults(func=cmd_gen_fisher)

    qz = sub.add_parser("quantize", help="blockwise normal-float quantization")
    qz.add_argument("input")
    qz.add_argument("output")
    qz.add_argument("--config", required=True, help="b0,b1,b2,B0,B1 e.g. 4,8,fp32,64,256")
    qz.set_defaults(func=cmd_quantize)

    dq = sub.add_parser("dequantize", help="reconstruct a dense matrix")
    dq.add_argument("input")
    dq.add_argument("output")
    dq.set_defaults(func=cmd_dequantize)

    dc = sub.add_parser("decompose", help="alternating low-rank plus quantized split")
    dc.add_argument("input")
    dc.add_argument("--out-prefix", required=True)
    dc.add_argument("--config", required=True)
    dc.add_argument("--rank", type=int, default=1)
    dc.add_argument("--fisher", default=None)
    dc.add_argument("--max-iters", type=int, default=50)
    dc.add_argument("--seed", type=int, default=0)
    dc.set_defaults(func=cmd_decompose)

    # the options `_load_sweep` reads, shared by `sweep` and `init`
    sweep_opts = argparse.ArgumentParser(add_help=False)
    sweep_opts.add_argument("inputs", nargs="+")
    sweep_opts.add_argument("--fisher", action="append", default=None)
    sweep_opts.add_argument("--grid", default=None,
                            help="JSON file of configs (default: built-in grid)")
    sweep_opts.add_argument("--rank", type=int, default=1)
    sweep_opts.add_argument("--seed", type=int, default=0)
    sweep_opts.add_argument("--max-iters", type=int, default=50)
    sweep_opts.add_argument("--workers", type=int, default=1, help="parallel workers")

    sw = sub.add_parser("sweep", parents=[sweep_opts],
                        help="decompose every matrix under every config")
    sw.add_argument("-o", "--output", required=True)
    sw.add_argument("--fresh", action="store_true", help="ignore any resumable partial table")
    sw.set_defaults(func=cmd_sweep)

    al = sub.add_parser("allocate", help="optimal configs under a bit budget")
    al.add_argument("table")
    al.add_argument("-o", "--output", required=True)
    al.add_argument("--budget-bits-per-param", type=_fraction, required=True)
    al.set_defaults(func=cmd_allocate)

    it = sub.add_parser("init", parents=[sweep_opts],
                        help="sweep, allocate, and write decompositions")
    it.add_argument("--out-dir", required=True)
    it.add_argument("--budget-bits-per-param", type=_fraction, required=True)
    it.set_defaults(func=cmd_init)

    rp = sub.add_parser("report", help="effective bits per parameter accounting")
    rp.add_argument("--preset", choices=PRESET_NAMES, default=None)
    rp.add_argument("--shapes", default=None, help="comma list like 4096x4096,4096x11008")
    rp.add_argument("--quant-bits", type=_fraction_list, required=True,
                    help="bits per quantized param, one value or comma list")
    rp.add_argument("--lora-rank", type=int, default=0)
    rp.add_argument("--lora-bits", type=_fraction, default=LORA_FORMATS["nf8"],
                    help="bits per adapter param (default: 4161/512, NF8 coding; 16 for fp16)")
    rp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        manifest = args.func(args)
        if manifest is not None:  # `report` writes no file, so no manifest
            path, payload = manifest
            _atomic_write_json(path, {**payload, "version": __version__,
                                      "elapsed_seconds": time.perf_counter() - start})
        return 0
    # before ValueError: LinAlgError is one
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
