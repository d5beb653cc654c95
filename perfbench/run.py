#!/usr/bin/env python3
"""Benchmark for ldrlle: one workload per run, closed loop, one operation at a time.

Run from the repository root:

    python3 perfbench/run.py --workload roll8k_ldr --seed 0 --seconds 30 --trace 0

The library is imported from ./src of the same checkout.  --trace 0 prints
the end-to-end metrics; --trace 1 alternates untraced and traced operations
and prints the per-layer metrics.  The last line of standard output is the
result as one JSON object; the line before it is the run record (environment,
parameters, every operation time), which is also written to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _workload_names():
    return sorted(json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"])


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=_workload_names())
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Cap BLAS/OpenMP threads at min(2, CPUs available); must run before numpy loads."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ldrlle" / "__init__.py").is_file():
        print(f"error: no ldrlle sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    # The benchmark must not leave bytecode in the checkout, and compiling the
    # package on every run keeps the import time comparable between runs.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bench
    import_s = time.perf_counter() - t0
    if Path(bench.ldrlle.__file__).resolve().parent != (SRC / "ldrlle").resolve():
        print(f"error: imported ldrlle from {bench.ldrlle.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record, result = bench.run(args.workload, args.seed, args.seconds, args.trace, import_s)
    record["result"] = result
    bench.OUT_DIR.mkdir(exist_ok=True)
    out = bench.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
