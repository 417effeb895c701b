import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pointseg
from pointseg import synth
from pointseg.cli import dispatch, fnv1a64
from pointseg.errors import SceneError
from pointseg.grids import (
    LabelGrid,
    Point,
    PointAnnotationSet,
    connected_components,
    encode_label_pgm,
)
from pointseg.synth import (
    CorruptionConfig,
    Scene,
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
        and np.array_equal(a.intensity, b.intensity)
        and a.n_classes == b.n_classes
    )


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        assert scenes_equal(generate_scene(1, 48, 48, 3, 3), generate_scene(1, 48, 48, 3, 3))

    def test_default_instance_count_is_drawn_from_the_seed(self):
        # By a generator of its own: placement reads the stream it reads
        # when the drawn count is passed in.
        for seed in range(4):
            drawn = int(np.random.default_rng(seed).integers(2, 7))
            sc = generate_scene(seed, 32, 32)
            assert len(sc.points) == drawn
            assert scenes_equal(sc, generate_scene(seed, 32, 32, drawn))

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
        feats = features_from_semantic(sc, sc.gt_semantic)
        assert feats.shape == (h, w, 4 + 3)
        one_hot = feats[:, :, :4]
        yy, xx = np.mgrid[0:h, 0:w]
        assert np.array_equal(np.argmax(one_hot, axis=2), sc.gt_semantic.data)
        assert np.allclose(feats[:, :, 4], yy / (h - 1))
        assert np.allclose(feats[:, :, 5], xx / (w - 1))
        assert np.array_equal(feats[:, :, 6], sc.intensity)

    def test_intensity_constant_per_instance_zero_on_background(self):
        sc = generate_scene(8, 64, 64, 4, 3)
        intensity = sc.intensity
        assert intensity.shape == (64, 64) and intensity.dtype == np.float64
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

    def test_intensity_is_a_read_only_copy(self):
        sc = generate_scene(8, 16, 16, 2, 3)
        assert not sc.intensity.flags.writeable
        with pytest.raises(ValueError):
            sc.intensity[0, 0] = 1.0
        image = np.ones((16, 16))
        copy = replace(sc, intensity=image).intensity
        image[0, 0] = 5.0
        assert image.flags.writeable and copy[0, 0] == 1.0

    @pytest.mark.parametrize("field,value,message", [
        ("intensity", np.zeros((16, 15)), r"intensity of shape \(16, 15\) on a \(16, 16\) grid"),
        ("intensity", np.full((16, 16), np.nan), "intensity holds non-finite values"),
        ("intensity", np.full((16, 16), np.inf), "intensity holds non-finite values"),
        ("n_classes", 0, "n_classes must be an int >= 1, got 0"),
        ("n_classes", 3.0, "n_classes must be an int >= 1, got 3.0"),
        ("n_classes", True, "n_classes must be an int >= 1, got True"),
        ("n_classes", 1, "point class 3 exceeds the scene's 1 classes"),
    ], ids=["shape", "nan", "inf", "zero-classes", "float-classes", "bool-classes",
            "too-few-classes"])
    def test_rejects_bad_image_or_class_count(self, field, value, message):
        sc = generate_scene(8, 16, 16, 6, 3)
        with pytest.raises(SceneError, match=f"^{message}$"):
            replace(sc, **{field: value})

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
        inst = np.zeros((32, 32), dtype=np.int32)
        inst[8:16, 4:14] = 1
        inst[8:16, 15:25] = 2
        sem = np.where(inst > 0, 1, 0).astype(np.int32)
        sc = Scene(
            LabelGrid(inst), LabelGrid(sem),
            PointAnnotationSet((Point(10, 8, 1, 1), Point(10, 20, 1, 2))),
            np.zeros((32, 32)), 1,
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

    def test_no_foreground_returns_the_map_unflipped(self):
        # With no class in the scene there is none to flip to; this was a
        # bare NumPy "low >= high" from rng.integers(1, 1).
        zeros = LabelGrid(np.zeros((32, 32), dtype=np.int32))
        sc = Scene(zeros, zeros, PointAnnotationSet(()), np.zeros((32, 32)), 1)
        for cfg in (
            CorruptionConfig(flip_rate=0.5, rng_seed=3),
            CorruptionConfig(dilation_px=2, merge_adjacent=True, flip_rate=0.02, rng_seed=101),
        ):
            out = corrupt_semantic(sc, cfg)
            assert out.data.dtype == np.int32 and not out.data.any()

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
            "import numpy as np; from pointseg.grids import LabelGrid; "
            "from pointseg.synth import pick_points; "
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
        gt_feats = features_from_semantic(sc, sc.gt_semantic)
        assert np.array_equal(feats[:, :, 4:], gt_feats[:, :, 4:])

    def test_shape_mismatch(self):
        sc = generate_scene(31, 32, 32, 2, 3)
        with pytest.raises(SceneError):
            features_from_semantic(sc, LabelGrid(np.zeros((16, 16), dtype=np.int32)))


class TestSynthDigests:
    """The five data files `pointseg synth` writes at its defaults, and the
    erosion-first corruption the defaults never reach, pinned by digest. A
    change that moves any of them must update the digest and say why."""

    FILES = ("gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm", "points.csv",
             "intensity.mdmt")
    # intensity.mdmt replaced features.mdmt, whose last channel it equals bit
    # for bit; the other four digests did not move.
    SYNTH = {
        (100, 64): (0x4FBCA53EB7D6E8A4, 0xF7C52B3CC0720AC4, 0x7187ABE2A05F823A,
                    0xE186212DB320984E, 0xA7FF73159BECFEB3),
        (101, 64): (0xC2803DEB95811DF4, 0xFF81C61CC9FC2508, 0x7E670F0D565A7AC5,
                    0x61987C0D30EC1C2B, 0x95F5C5E3B51C84B3),
        (102, 64): (0x5DD06A2B6702B2A8, 0x30FABD6844CA3AD9, 0x21D5E6BAB2E79523,
                    0xBF75A203C5A67561, 0x258ECF5CC9FD29F6),
        (100, 256): (0x5CF26A500104CD56, 0xD7A51DA9C4D270FE, 0x906B92C2415E0CA6,
                     0xF8BF2879C8F0DD24, 0xCA7A13DEFAADA43B),
    }
    ERODED_64 = {100: 0xD37D024119C450B9, 101: 0xDCB71FA8D8DCD06E, 102: 0xA2EB59F2A964204B}

    @pytest.mark.parametrize("seed,size", sorted(SYNTH))
    def test_synth_files(self, tmp_path, seed, size):
        assert dispatch(["synth", "--out", str(tmp_path), "--seed", str(seed),
                         "--height", str(size), "--width", str(size)]) == 0
        scene = tmp_path / f"scene_{seed:08d}"
        digests = tuple(fnv1a64((scene / name).read_bytes()) for name in self.FILES)
        assert digests == self.SYNTH[seed, size], [f"{d:016x}" for d in digests]

    @pytest.mark.parametrize("seed", sorted(ERODED_64))
    def test_erosion_without_merge(self, seed):
        sc = generate_scene(seed, 64, 64, 5, 3)
        cfg = CorruptionConfig(dilation_px=2, erosion_px=2, merge_adjacent=False,
                               flip_rate=0.02, rng_seed=seed + 1)
        digest = fnv1a64(encode_label_pgm(corrupt_semantic(sc, cfg)))
        assert digest == self.ERODED_64[seed], f"{digest:016x}"


# The whole-grid helpers that the box-local code replaced: eight shifted ORs
# per dilation step, the peel over the whole grid, the shape rasterized on
# the whole grid and the one-hot by fancy indexing. They are the oracles the
# box-local code must equal exactly.


def oracle_shift_or(mask):
    out = mask.copy()
    h, w = mask.shape
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            ys = slice(max(dy, 0), h + min(dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            ys_src = slice(max(-dy, 0), h + min(-dy, 0))
            xs_src = slice(max(-dx, 0), w + min(-dx, 0))
            out[ys, xs] |= mask[ys_src, xs_src]
    return out


def oracle_interior_depth(mask):
    if mask.all():
        return np.ones(mask.shape, dtype=np.float64)
    depth = np.zeros(mask.shape, dtype=np.float64)
    current = mask.copy()
    level = 0
    while current.any():
        level += 1
        core = ~oracle_shift_or(~current)
        depth[current & ~core] = level
        current = core
    return depth


def oracle_pick_points(gt_instances, seed, semantic):
    rng = np.random.default_rng(seed)
    pts = []
    for inst in gt_instances.ids():
        mask = gt_instances.data == inst
        pix = np.argwhere(mask)
        weights = oracle_interior_depth(mask)[pix[:, 0], pix[:, 1]] ** 2
        y, x = pix[int(rng.choice(len(pix), p=weights / weights.sum()))]
        pts.append(Point(int(y), int(x), int(semantic.data[y, x]), inst))
    return PointAnnotationSet(tuple(pts))


def oracle_rasterize(kind, y0, x0, sy, sx, h, w):
    mask = np.zeros((h, w), dtype=bool)
    if kind == "rect":
        mask[y0 : y0 + sy, x0 : x0 + sx] = True
    else:
        cy, cx = y0 + (sy - 1) / 2.0, x0 + (sx - 1) / 2.0
        ry, rx = sy / 2.0, sx / 2.0
        yy, xx = np.mgrid[0:h, 0:w]
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return mask


def oracle_features(semantic, n_classes, intensity):
    h, w = semantic.shape
    one_hot = np.zeros((h, w, n_classes + 1), dtype=np.float64)
    yy, xx = np.mgrid[0:h, 0:w]
    one_hot[yy, xx, semantic] = 1.0
    norm_y = yy / max(h - 1, 1)
    norm_x = xx / max(w - 1, 1)
    return np.concatenate(
        [one_hot, norm_y[:, :, None], norm_x[:, :, None], intensity[:, :, None]], axis=2
    )


SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 7), (7, 3), (12, 12), (17, 23)]


def edge_masks(h, w):
    """Masks on an h x w grid: empty, full, single pixels at the corners and
    centre, and a block against each grid edge."""
    masks = [np.zeros((h, w), dtype=bool), np.ones((h, w), dtype=bool)]
    for y, x in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (h // 2, w // 2)]:
        m = np.zeros((h, w), dtype=bool)
        m[y, x] = True
        masks.append(m)
    for side in (np.s_[: max(h // 2, 1), :], np.s_[h // 2 :, :],
                 np.s_[:, : max(w // 2, 1)], np.s_[:, w // 2 :]):
        m = np.zeros((h, w), dtype=bool)
        m[side] = True
        masks.append(m)
    return masks


def random_masks(rng, h, w, n):
    return [rng.random((h, w)) < rng.choice([0.1, 0.5, 0.9]) for _ in range(n)]


def random_instance_grid(rng, h, w):
    """Dense ids 1..K from overlapping boxes, some pinned to a grid edge."""
    data = np.zeros((h, w), dtype=np.int32)
    for i in range(1, int(rng.integers(1, 6)) + 1):
        sy, sx = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        y0, x0 = int(rng.integers(0, h - sy + 1)), int(rng.integers(0, w - sx + 1))
        edge = int(rng.integers(6))
        y0 = 0 if edge == 0 else h - sy if edge == 1 else y0
        x0 = 0 if edge == 2 else w - sx if edge == 3 else x0
        data[y0 : y0 + sy, x0 : x0 + sx] = i
    ids = np.unique(data[data > 0])
    lut = np.zeros(int(data.max()) + 1, dtype=np.int32)
    lut[ids] = np.arange(1, len(ids) + 1)
    return LabelGrid(lut[data])


class TestBoxLocalMatchesWholeGridOracle:
    def test_shift_or_and_its_erosion(self):
        rng = np.random.default_rng(0)
        for h, w in SHAPES:
            for mask in edge_masks(h, w) + random_masks(rng, h, w, 20):
                assert np.array_equal(synth._shift_or(mask), oracle_shift_or(mask))
                assert np.array_equal(~synth._shift_or(~mask), ~oracle_shift_or(~mask))

    def test_interior_depth_on_the_box_plus_margin(self):
        # pick_points' crop: the mask's box plus 1 pixel, clipped to the grid.
        # The peel depth is the Chebyshev distance to the background; a full
        # mask, which never peels, is test_pick_points' first grid.
        rng = np.random.default_rng(1)
        for h, w in SHAPES:
            for mask in edge_masks(h, w)[2:] + random_masks(rng, h, w, 20):
                if not mask.any() or mask.all():
                    continue
                ys, xs = np.nonzero(mask)
                crop = np.s_[max(ys.min() - 1, 0) : ys.max() + 2,
                             max(xs.min() - 1, 0) : xs.max() + 2]
                want = oracle_interior_depth(mask)
                for part in (crop, np.s_[:, :]):
                    got = synth._chebyshev_distance(~mask[part], sum(mask[part].shape))
                    assert np.array_equal(got, want[part])

    def test_pick_points(self):
        rng = np.random.default_rng(2)
        for h, w in SHAPES:
            grids = [LabelGrid(np.ones((h, w), dtype=np.int32))]
            grids += [random_instance_grid(rng, h, w) for _ in range(15)]
            for seed, g in enumerate(grids):
                assert pick_points(g, seed, g) == oracle_pick_points(g, seed, g)

    def test_rasterize(self):
        for kind in ("rect", "ellipse"):
            for sy in range(1, 12):
                for sx in range(1, 12):
                    y0, x0, h, w = 2, 3, sy + 4, sx + 5
                    placed = np.zeros((h, w), dtype=bool)
                    placed[y0 : y0 + sy, x0 : x0 + sx] = synth._rasterize(kind, sy, sx)
                    assert np.array_equal(placed, oracle_rasterize(kind, y0, x0, sy, sx, h, w))

    def test_features(self):
        for seed in range(3):
            sc = generate_scene(seed, 24, 31, 4, 3)
            other = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, flip_rate=0.1))
            for semantic in (sc.gt_semantic, other):
                want = oracle_features(semantic.data, 3, sc.intensity)
                assert np.array_equal(features_from_semantic(sc, semantic), want)
