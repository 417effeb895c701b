"""Seeded quality gate for the paper's claim: mutual distillation improves on
the point-to-region labels it starts from.

Each seed makes one square scene, 64x64 unless --size says otherwise, as
`pointseg synth` does by default (gate_scene: 2-6 instances, 3 classes,
dilation 2, adjacent regions merged, 2 % of pixels flipped;
tests/test_quality_gate.py checks that the files are byte-equal), and runs
`run_mdm` at the default MdmConfig with that seed. "init" is the class-aware
overall IoU of stage 0's initial labels, the region-matching labels the
recurrence starts from; "final" is that of the last stage's pseudo labels.
"ignored" counts the scene's pointseg.s2i "point ignored" warnings: one per
point that lies on background or in a region of another class, in each
target build that met it, one build per stage (the warm-up reuses stage 0's
targets). Targets read a map with a patch pinned at each point and each
point's own pixel pinned last, so no point lies on background there, and a
point is ignored only where another point of another class shares its pixel.

There are two disjoint seed sets per size: 100-119 for development, and a
held-out set on which no default may be tuned, 200-219 at 64x64 and 600-619
at 128x128. Seeds 200-209 had been probed at 128x128 before that size was
gated, so its held-out set starts where no probe had run. A set passes when
final >= init on more than half of its seeds (11 of 20) and the median of
final - init is > 0, strictly, so a pipeline that returns its initial labels
unchanged fails. The mean is printed but not gated, because one scene can
carry it.

Run from the repository root:

    PYTHONPATH=src python tests/quality_gate.py [--jobs 2] [--seeds 20] [--size 64]

It prints a per-seed table for each set and exits 1 unless both sets pass.
"""
from __future__ import annotations

import argparse
import logging
import multiprocessing
import statistics
import sys
import time

from pointseg.grids import LabelGrid
from pointseg.loop import MdmConfig, run_mdm
from pointseg.metrics import greedy_match
from pointseg.synth import CorruptionConfig, Scene, corrupt_semantic, generate_scene

# The first seed of each set, by grid side.
SEED_SETS = {
    64: {"development": 100, "held-out": 200},
    128: {"development": 100, "held-out": 600},
}


class _WarningCount(logging.Handler):
    """Counts the records it receives instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def scene_row(seed: int, size: int = 64) -> tuple[int, int, float, float, int]:
    """(seed, instances, init IoU, final IoU, ignored points) of one
    default-config scene."""
    ignored = _WarningCount()
    logger = logging.getLogger("pointseg.s2i")
    logger.addHandler(ignored)
    try:
        return (*_scene_ious(seed, size), ignored.count)
    finally:
        logger.removeHandler(ignored)


def gate_scene(seed: int, size: int = 64) -> tuple[Scene, LabelGrid]:
    """The scene of one seed and its corrupted semantic map, as `pointseg
    synth --seed <seed> --height <size> --width <size>` writes them."""
    scene = generate_scene(seed, size, size, None, 3)
    corrupted = corrupt_semantic(scene, CorruptionConfig(
        dilation_px=2, merge_adjacent=True, flip_rate=0.02, rng_seed=seed + 1,
    ))
    return scene, corrupted


def _scene_ious(seed: int, size: int) -> tuple[int, int, float, float]:
    scene, corrupted = gate_scene(seed, size)
    result = run_mdm(scene, corrupted, MdmConfig(seed=seed))
    classes = scene.points.class_of()
    init = greedy_match(
        result.stages[0].initial_instances, scene.gt_instances,
        pred_classes=classes, gt_classes=classes, class_aware=True,
    )
    return seed, len(scene.points), init.overall_iou, result.final.metrics.overall_iou


def verdict(rows: list[tuple[int, int, float, float, int]]) -> tuple[bool, str]:
    """Whether a seed set passes the gate, and its summary line."""
    gains = [final - init for _, _, init, final, _ in rows]
    n_up = sum(g >= 0 for g in gains)
    median = statistics.median(gains)
    passed = 2 * n_up > len(gains) and median > 0
    summary = (
        f"final >= init on {n_up}/{len(gains)}, median {median:+.2f},"
        f" mean {statistics.fmean(gains):+.2f}: {'PASS' if passed else 'FAIL'}"
    )
    return passed, summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    parser.add_argument("--seeds", type=int, default=20, help="seeds per set")
    parser.add_argument("--size", type=int, default=64, choices=sorted(SEED_SETS),
                        help="grid side in pixels")
    args = parser.parse_args(argv)
    t0 = time.time()
    sets = SEED_SETS[args.size]
    tasks = [(first + i, args.size) for first in sets.values() for i in range(args.seeds)]
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            rows = pool.starmap(scene_row, tasks)
    else:
        rows = [scene_row(*task) for task in tasks]
    all_pass = True
    for index, name in enumerate(sets):
        chunk = rows[index * args.seeds : (index + 1) * args.seeds]
        print(f"{name} seeds {chunk[0][0]}-{chunk[-1][0]}")
        print("seed  n    init   final  final-init  ignored")
        for seed, n, init, final, ignored in chunk:
            print(f"{seed:4d}  {n}  {init:6.2f}  {final:6.2f}  {final - init:+7.2f}  {ignored:7d}")
        passed, summary = verdict(chunk)
        print(f"{name}: {summary}")
        all_pass &= passed
    print(f"quality gate: {'PASS' if all_pass else 'FAIL'} ({time.time() - t0:.0f} s)")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
