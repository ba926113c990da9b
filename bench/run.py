"""Run one workload of the closed-loop control benchmark.

From the repository root:

    python3 bench/run.py --workload paper_gp --seed 0 --seconds 20 --trace 0

Prints the metric tables, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every correctness check passed. The program is
imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="minimum length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS thread count, fixed before numpy loads")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.blas_threads < 1:
        ap.error("--seed and --seconds must be >= 0 and --blas-threads >= 1")
    return args


def fix_blas_threads(n: int) -> None:
    """Pin the BLAS thread count; only effective before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)


def import_program():
    """Put the checkout's ``src/`` first on the path and check it is used."""
    sys.path.insert(0, SRC)
    import gpplatoon

    origin = os.path.dirname(os.path.dirname(os.path.abspath(gpplatoon.__file__)))
    if origin != SRC:
        raise ImportError(f"gpplatoon imported from {origin}, expected {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_blas_threads(args.blas_threads)
    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    span_path = None
    if args.trace:
        span_path = os.path.join(BENCH_DIR, "out",
                                 f"spans-{args.workload}-seed{args.seed}.csv")
    report = harness.run(harness.WORKLOADS[args.workload], seed=args.seed,
                         seconds=args.seconds, trace=bool(args.trace), span_path=span_path)
    print(harness.render(report, harness.environment(args.blas_threads)))
    print(json.dumps(report.result()), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
