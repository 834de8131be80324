"""gcdp benchmark entry point.

    python3 perfbench/run.py --workload {train,sample,outpaint} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The benchmark pins BLAS to one
thread, imports gcdp from the checkout's `src/` and drives `gcdp.cli.main`
in this process. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`. README.md describes the workloads, metrics and checks.
"""

import argparse
import os
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="gcdp benchmark")
    p.add_argument("--workload", required=True, choices=("train", "sample", "outpaint"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy first loads it.
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import gcdp.cli
    except ImportError as e:
        print(f"perfbench: cannot import gcdp from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(gcdp.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: gcdp was imported from {gcdp.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), THREADS)


if __name__ == "__main__":
    sys.exit(main())
