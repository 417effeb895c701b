import json
import logging
import re

import numpy as np
import pytest

from pointseg.cli import dispatch
from pointseg.grids import (
    LabelGrid,
    Point,
    PointAnnotationSet,
    encode_label_pgm,
    encode_points_csv,
    encode_tensor,
)
from pointseg.loop import MdmConfig, _points_first, run_mdm
from pointseg.synth import Scene

import quality_gate

ROW = re.compile(
    r"^ *(\d+)  ([2-6])  +(\d+\.\d\d)  +(\d+\.\d\d)  +([+-]\d+\.\d\d)  +(\d+)$"
)
SUMMARY = re.compile(
    r"^(development|held-out): final >= init on (\d+)/2, median [+-]\d+\.\d\d,"
    r" mean [+-]\d+\.\d\d: (PASS|FAIL)$"
)


def test_four_seed_table_is_well_formed(capsys):
    # Only the table's form is checked: two seeds per set cannot test the claim.
    code = quality_gate.main(["--jobs", "1", "--seeds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "development seeds 100-101"
    assert lines[5] == "held-out seeds 200-201"
    for header in (1, 6):
        assert lines[header] == "seed  n    init   final  final-init  ignored"
    verdicts = []
    for block, first in ((lines[2:5], 100), (lines[7:10], 200)):
        for offset, line in enumerate(block[:2]):
            seed, _, init, final, gain, _ = ROW.match(line).groups()
            assert int(seed) == first + offset
            assert 0.0 <= float(init) <= 100.0 and 0.0 <= float(final) <= 100.0
            assert abs(float(final) - float(init) - float(gain)) <= 0.011
        summary = SUMMARY.match(block[2])
        assert summary is not None, block[2]
        verdicts.append(summary.group(3) == "PASS")
    assert re.match(r"^quality gate: (PASS|FAIL) \(\d+ s\)$", lines[10])
    assert len(lines) == 11
    assert code == (0 if all(verdicts) else 1)


def rows_with_gains(gains):
    """Gate rows (seed, instances, init, final, ignored) with these final - init gains."""
    return [(100 + k, 2, 50.0, 50.0 + gain, 0) for k, gain in enumerate(gains)]


def test_a_no_op_fails_the_gate():
    # Twenty scenes whose final labels equal their initial ones: every row
    # counts as up, but the median gain is 0, and the claim is improvement.
    passed, summary = quality_gate.verdict(rows_with_gains([0.0] * 20))
    assert not passed
    assert summary == "final >= init on 20/20, median +0.00, mean +0.00: FAIL"


@pytest.mark.parametrize("gains, passed", [
    ([0.0] * 9 + [0.01] * 11, True),  # a median above 0 on 11 of 20
    ([0.0] * 11 + [5.0] * 9, False),  # 20 up, median 0
    ([0.0] * 11 + [-5.0] * 9, False),  # 11 up, median 0, mean below 0
    ([-0.01] * 10 + [1.0] * 10, False),  # median above 0, but 10 up is not more than half
])
def test_pass_rule_needs_more_than_half_up_and_a_positive_median(gains, passed):
    assert quality_gate.verdict(rows_with_gains(gains))[0] is passed


@pytest.mark.parametrize("warmup_iters, n_stages", [(1, 3), (0, 2)])
def test_warning_count_counts_one_per_target_build(warmup_iters, n_stages):
    # Two points of different classes on one pixel: the pin gives it the
    # later point's class, so point 1 lies in a class-2 region and each
    # target build, one per stage, ignores it once. The warm-up trains on
    # stage 0's targets and builds none of its own.
    gt = np.zeros((12, 12), dtype=np.int32)
    gt[2:10, 1:6], gt[2:10, 6:11] = 1, 2
    points = PointAnnotationSet((Point(5, 5, 1, 1), Point(5, 5, 2, 2)))
    semantic = LabelGrid(gt)  # instance k has class k
    scene = Scene(semantic, semantic, points, np.zeros((12, 12)), 2)
    cfg = MdmConfig(n_stages=n_stages, warmup_iters=warmup_iters, iters_per_stage=1)
    ignored = quality_gate._WarningCount()
    logger = logging.getLogger("pointseg.s2i")
    logger.addHandler(ignored)
    try:
        run_mdm(scene, semantic, cfg)
    finally:
        logger.removeHandler(ignored)
    assert ignored.count == n_stages


@pytest.mark.parametrize("seed, size", [(100, 64), (200, 64), (600, 128)])
def test_gate_scene_is_the_synth_default_scene(tmp_path, capsys, seed, size):
    # The gate builds its scenes in-process; the benchmark and users read
    # `pointseg synth`'s. A default changed in one place only fails here.
    assert dispatch(["synth", "--out", str(tmp_path), "--seed", str(seed),
                     "--height", str(size), "--width", str(size)]) == 0
    capsys.readouterr()
    scene_dir = tmp_path / f"scene_{seed:08d}"
    scene, corrupted = quality_gate.gate_scene(seed, size)
    encoded = {
        "gt_instances.pgm": encode_label_pgm(scene.gt_instances),
        "gt_semantic.pgm": encode_label_pgm(scene.gt_semantic),
        "semantic_in.pgm": encode_label_pgm(corrupted),
        "points.csv": encode_points_csv(scene.points).encode(),
        "intensity.mdmt": encode_tensor(scene.intensity),
    }
    for name, blob in encoded.items():
        assert (scene_dir / name).read_bytes() == blob, name
    assert json.loads((scene_dir / "scene.json").read_text())["n_classes"] == scene.n_classes


@pytest.mark.parametrize("size", [64, 128])
@pytest.mark.parametrize("seed", range(100, 106))
def test_s2i_labels_the_regions_that_train_starts_from(tmp_path, capsys, seed, size):
    # One definition of a region: `pointseg s2i` on the pinned map that a
    # stage builds its targets from writes that stage's initial labels.
    scene, corrupted = quality_gate.gate_scene(seed, size)
    semantic, points = tmp_path / "pinned.pgm", tmp_path / "points.csv"
    semantic.write_bytes(encode_label_pgm(_points_first(corrupted, scene.points)))
    points.write_text(encode_points_csv(scene.points))
    assert dispatch(["s2i", "--semantic", str(semantic), "--points", str(points),
                     "--out", str(tmp_path / "s2i")]) == 0
    capsys.readouterr()
    cfg = MdmConfig(n_stages=1, warmup_iters=0, iters_per_stage=1)
    initial = run_mdm(scene, corrupted, cfg).stages[0].initial_instances
    assert (tmp_path / "s2i" / "instances.pgm").read_bytes() == encode_label_pgm(initial)
