"""Launcher for the xlwalk benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl
    python3 perfbench/run.py reference

The first form measures one workload (see BENCHMARK.json) and prints its
metrics; `--out` appends the full record, machine block included, to FILE.
`compare` sets two such files side by side. `reference` re-records
perfbench/reference.json from `xlwalk preset` at the default seed.

BLAS is pinned to one thread before numpy loads, so a run uses one compute
thread whatever the machine's core count.
"""
import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def main(argv: list[str]) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]

    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    try:
        import bench
    except ImportError as exc:
        print(f"cannot load the xlwalk sources next to the benchmark: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["reference"]:
        return bench.record_reference()

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full result record to this JSONL file")
    args = parser.parse_args(argv)
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
