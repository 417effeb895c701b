"""Benchmark entry point.

    python3 perfbench/run.py --workload train_64 --seed 100 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Work files go to .perfbench_out/<workload>/.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    # One BLAS thread per process, set before NumPy loads; pool workers
    # inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pointseg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pointseg sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import harness  # warms numpy and every pointseg module before timing

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
