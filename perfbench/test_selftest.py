"""Self-test of the benchmark on a tiny config: 24x24 scenes, a few steps.

    python3 perfbench/test_selftest.py        (or: python3 -m pytest perfbench)

It runs a train and a label workload, untraced and traced, and asserts that
every metric BENCHMARK.json names is printed with its unit and that every
output check passes.
"""
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402

TINY = (
    harness.Workload("selftest_train", "train", 24, scenes=2, scored=2, batch=2,
                     train_flags=("--warmup", "2", "--iters", "3")),
    harness.Workload("selftest_label", "label", 24, scenes=2, scored=2),
)


def _run(workload, trace):
    with redirect_stdout(io.StringIO()):  # the summary lines
        return harness.run(workload, seed=100, seconds=0.01, trace=trace)


def test_every_metric_printed_and_checks_pass():
    spec = json.loads(harness.BENCHMARK.read_text())
    for workload in TINY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload.name, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload.name, key)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
            json.dumps(result, allow_nan=False)


if __name__ == "__main__":
    test_every_metric_printed_and_checks_pass()
    print("perfbench self-test passed")
