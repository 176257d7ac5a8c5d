"""Time and size one lq_decompose call on a seeded matrix.

W is a seeded gaussian matrix of `--shape` (float32), and F, with
`--fisher KIND`, a seeded importance matrix of the same shape.  The call
runs `--iters` alternating iterations at `--rank` under `--config` (the
stop rule may end it sooner; `iterations` says how many ran), first
untimed by tracemalloc and then again under it.  One JSON line is
printed:

- `seconds_per_iter`: the untraced call's wall time over its iterations;
- `rss_rise_mb` and `rss_rise_x`: the process's peak RSS after that call
  minus its RSS before it, in MB and as a multiple of W's float32 bytes;
- `tracemalloc_peak_x`: the traced call's tracemalloc peak over W's bytes;
- `error_peak_x`: the same for re-scoring the result with
  `weighted_error(w, dequantize(q), factors, f)`;
- `quantize_s` and `dequantize_s`: the container round trip at this
  shape, the wall time of `quantize_nf(w, config)` and of `dequantize`
  of that container, taken last so they leave the RSS figures alone.

The current RSS is read from /proc/self/statm, so the RSS figures need
Linux.  Set OPENBLAS_NUM_THREADS=1 for single-core times.

Example:
    python3 scripts/decompose_profile.py --shape 4096x11008 --rank 64 --iters 3
    python3 scripts/decompose_profile.py --shape 2048x5504 --iters 2 --fisher random-nonneg
"""

import argparse
import json
import os
import resource
import time
import tracemalloc

from lqdec import QuantConfig, dequantize, gen_fisher, gen_matrix, lq_decompose, quantize_nf
from lqdec.factorize import weighted_error
from lqdec.tensor_io import FISHER_KINDS

MB = 1 << 20


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", default="1024x2752", help="rows x cols of W, e.g. 4096x11008")
    parser.add_argument("--rank", type=int, default=64)
    parser.add_argument("--iters", type=int, default=3, help="max_iters of the call")
    parser.add_argument("--config", default="3,8,fp32,64,256", help="b0,b1,b2,B0,B1")
    parser.add_argument("--fisher", choices=FISHER_KINDS, default=None,
                        help="weight the split by a seeded importance matrix of this kind")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        rows, cols = (int(v) for v in args.shape.lower().split("x"))
        args.config = QuantConfig.parse(args.config)
    except ValueError as exc:
        parser.error(str(exc))
    args.shape = (rows, cols)
    return args


def current_rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    args = parse_args()
    w = gen_matrix("gaussian", *args.shape, seed=args.seed)
    f = None if args.fisher is None else gen_fisher(args.fisher, *args.shape, seed=args.seed)

    def call():
        return lq_decompose(w, f, args.config, args.rank, max_iters=args.iters, seed=args.seed)

    before = current_rss()
    start = time.perf_counter()
    res = call()
    seconds = time.perf_counter() - start
    rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - before
    again, peak = traced_peak(call)
    if again.error_trace != res.error_trace:
        raise SystemExit("the traced call gave another error trace")
    deq = dequantize(res.q)
    error, error_peak = traced_peak(lambda: weighted_error(w, deq, res.factors, f))
    if error != res.error:
        raise SystemExit(f"re-scored error {error!r} differs from the reported {res.error!r}")
    start = time.perf_counter()
    q = quantize_nf(w, args.config)
    quantize_s = time.perf_counter() - start
    start = time.perf_counter()
    dequantize(q)
    dequantize_s = time.perf_counter() - start
    print(json.dumps({
        "shape": list(args.shape),
        "rank": args.rank,
        "config": args.config.label(),
        "fisher": args.fisher,
        "seed": args.seed,
        "iterations": len(res.error_trace),
        "seconds_per_iter": round(seconds / len(res.error_trace), 4),
        "rss_rise_mb": round(rise / MB, 1),
        "rss_rise_x": round(rise / w.nbytes, 2),
        "tracemalloc_peak_x": round(peak / w.nbytes, 2),
        "error_peak_x": round(error_peak / w.nbytes, 2),
        "quantize_s": round(quantize_s, 4),
        "dequantize_s": round(dequantize_s, 4),
        "error": res.error,
    }))


if __name__ == "__main__":
    main()
