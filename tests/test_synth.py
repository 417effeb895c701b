import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pointseg
from pointseg import (
    CorruptionConfig,
    LabelGrid,
    SceneError,
    corrupt_semantic,
    features_from_semantic,
    generate_scene,
    pick_points,
)


def scenes_equal(a, b):
    return (
        np.array_equal(a.gt_instances.data, b.gt_instances.data)
        and np.array_equal(a.gt_semantic.data, b.gt_semantic.data)
        and a.points == b.points
        and np.array_equal(a.features, b.features)
    )


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        assert scenes_equal(generate_scene(1, 48, 48, 3, 3), generate_scene(1, 48, 48, 3, 3))

    def test_two_rects_have_ids_0_1_2(self):
        sc = generate_scene(2, 64, 64, 2, 3, shape_kind="rect")
        assert set(np.unique(sc.gt_instances.data)) == {0, 1, 2}

    def test_pigeonhole_class_sharing(self):
        sc = generate_scene(3, 64, 64, 3, 2)
        classes = [p.class_id for p in sc.points]
        assert len(classes) != len(set(classes))

    def test_foreground_equivalence(self):
        for seed in range(4, 10):
            sc = generate_scene(seed, 64, 64, 4, 3)
            assert np.array_equal(sc.gt_semantic.data > 0, sc.gt_instances.data > 0)

    def test_points_inside_their_instances(self):
        for seed in range(10, 16):
            sc = generate_scene(seed, 64, 64, 5, 3)
            for p in sc.points:
                assert sc.gt_instances.data[p.y, p.x] == p.instance_id

    def test_feature_channels(self):
        sc = generate_scene(7, 32, 32, 3, 3)
        h, w = 32, 32
        assert sc.features.shape == (h, w, 4 + 3)
        one_hot = sc.features[:, :, :4]
        yy, xx = np.mgrid[0:h, 0:w]
        assert np.array_equal(np.argmax(one_hot, axis=2), sc.gt_semantic.data)
        assert np.allclose(sc.features[:, :, 4], yy / (h - 1))
        assert np.allclose(sc.features[:, :, 5], xx / (w - 1))

    def test_intensity_constant_per_instance_zero_on_background(self):
        sc = generate_scene(8, 64, 64, 4, 3)
        intensity = sc.intensity()
        assert (intensity[sc.gt_instances.data == 0] == 0).all()
        for inst in sc.gt_instances.ids():
            vals = intensity[sc.gt_instances.data == inst]
            assert vals.min() == vals.max() > 0

    def test_rejects_bad_args(self):
        with pytest.raises(SceneError):
            generate_scene(1, 64, 64, 0, 3)
        with pytest.raises(SceneError):
            generate_scene(1, 64, 64, 2, 3, shape_kind="triangle")

    @pytest.mark.parametrize("args,message", [
        ((-1, 64, 64), "seed must be >= 0, got -1"),
        ((1, -5, 64), "grid must be at least 1 x 1, got -5 x 64"),
        ((1, 64, 0), "grid must be at least 1 x 1, got 64 x 0"),
    ], ids=["seed", "height", "width"])
    def test_rejects_negative_seed_and_empty_grid(self, args, message):
        with pytest.raises(SceneError, match=message):
            generate_scene(*args, 2, 3)

    def test_rejects_gt_instance_without_a_point(self):
        sc = generate_scene(3, 32, 32, 2, 3)
        data = sc.gt_instances.data.copy()
        data[0, 0], data[0, 1] = 7, 4
        with pytest.raises(SceneError, match=r"gt instance ids \[4, 7\] have no annotated point"):
            replace(sc, gt_instances=LabelGrid(data))


class TestCorruptSemantic:
    def test_zero_config_is_identity(self):
        sc = generate_scene(21, 64, 64, 3, 3)
        out = corrupt_semantic(sc, CorruptionConfig())
        assert np.array_equal(out.data, sc.gt_semantic.data)

    def test_merge_adjacent_bridges_touching_same_class(self):
        # Two same-class rects one pixel apart become one component.
        from pointseg import connected_components
        inst = np.zeros((32, 32), dtype=np.int32)
        inst[8:16, 4:14] = 1
        inst[8:16, 15:25] = 2
        sem = np.where(inst > 0, 1, 0).astype(np.int32)
        from pointseg import PointAnnotationSet, Point, Scene
        feats = np.zeros((32, 32, 5))
        sc = Scene(
            LabelGrid(inst), LabelGrid(sem),
            PointAnnotationSet((Point(10, 8, 1, 1), Point(10, 20, 1, 2))),
            feats,
        )
        out = corrupt_semantic(sc, CorruptionConfig(merge_adjacent=True))
        comps = connected_components(out.data == 1, 8)
        assert int(comps.data.max()) == 1

    def test_flip_rate_binomial_band(self):
        # Mean flip count over 100 seeds within 20% of flip_rate * H * W.
        sc = generate_scene(22, 64, 64, 3, 3)
        rate = 0.05
        diffs = []
        for s in range(100):
            out = corrupt_semantic(sc, CorruptionConfig(flip_rate=rate, rng_seed=s))
            diffs.append(int((out.data != sc.gt_semantic.data).sum()))
        expected = rate * 64 * 64
        assert 0.8 * expected <= np.mean(diffs) <= 1.2 * expected

    def test_deterministic_per_seed(self):
        sc = generate_scene(23, 64, 64, 4, 3)
        cfg = CorruptionConfig(dilation_px=2, merge_adjacent=True, flip_rate=0.02, rng_seed=9)
        assert np.array_equal(corrupt_semantic(sc, cfg).data, corrupt_semantic(sc, cfg).data)

    def test_invalid_config(self):
        with pytest.raises(SceneError):
            CorruptionConfig(flip_rate=1.0)
        with pytest.raises(SceneError):
            CorruptionConfig(dilation_px=-1)


class TestPickPoints:
    def test_random_interior_deterministic_and_inside(self):
        grid = np.zeros((8, 8), dtype=np.int32)
        grid[2:6, 1:7] = 1
        a = pick_points(LabelGrid(grid), 5, LabelGrid(grid))
        b = pick_points(LabelGrid(grid), 5, LabelGrid(grid))
        assert a == b
        assert grid[a.points[0].y, a.points[0].x] == 1

    def test_class_from_semantic(self):
        grid = np.zeros((4, 4), dtype=np.int32)
        grid[0:2, 0:2] = 1
        sem = np.where(grid > 0, 2, 0).astype(np.int32)
        pts = pick_points(LabelGrid(grid), 0, LabelGrid(sem))
        assert pts.points[0].class_id == 2

    def test_rejects_sparse_ids(self):
        grid = np.zeros((4, 4), dtype=np.int32)
        grid[0, 0] = 2
        with pytest.raises(SceneError, match="dense"):
            pick_points(LabelGrid(grid), 0, LabelGrid(grid))

    def test_instance_filling_the_grid(self):
        # Run apart with a timeout: peeling a mask that never erodes used to
        # loop forever, and a hang must fail the test, not stall the suite.
        code = (
            "import numpy as np; from pointseg import LabelGrid, pick_points; "
            "g = LabelGrid(np.ones((4, 4), np.int32)); "
            "print(pick_points(g, 0, g).points[0])"
        )
        src = Path(pointseg.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "instance_id=1" in done.stdout


class TestFeaturesFromSemantic:
    def test_swaps_one_hot_keeps_rest(self):
        sc = generate_scene(30, 32, 32, 3, 3)
        other = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, rng_seed=1))
        feats = features_from_semantic(sc, other)
        assert np.array_equal(np.argmax(feats[:, :, :4], axis=2), other.data)
        assert np.array_equal(feats[:, :, 4:], sc.features[:, :, 4:])

    def test_shape_mismatch(self):
        sc = generate_scene(31, 32, 32, 2, 3)
        with pytest.raises(SceneError):
            features_from_semantic(sc, LabelGrid(np.zeros((16, 16), dtype=np.int32)))
