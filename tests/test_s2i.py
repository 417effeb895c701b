import numpy as np
import pytest

from pointseg.errors import GridError, PipelineError
from pointseg.grids import (
    LabelGrid,
    OffsetField,
    Point,
    PointAnnotationSet,
    connected_components,
)
from pointseg.loop import MdmConfig, build_stage_targets
from pointseg.s2i import (
    assign_points,
    attach_points,
    compute_offset_field,
    extract_regions,
    finalize_pseudo_labels,
    group_instances,
)
from pointseg.synth import CorruptionConfig, corrupt_semantic, generate_scene


def grid(rows):
    return LabelGrid(np.array(rows, dtype=np.int32))


def points(*specs):
    return PointAnnotationSet(tuple(Point(*s) for s in specs))


def matched(sem, pts):
    """The regions of `sem` with `pts` attached, as assign_points takes them."""
    return attach_points(extract_regions(sem), pts)


class TestExtractRegions:
    def test_two_disjoint_blobs_same_class(self):
        sem = grid([[1, 0, 1], [1, 0, 1]])
        regions = extract_regions(sem)
        assert regions.labels.data.tolist() == [[1, 0, 2], [1, 0, 2]]
        assert regions.classes.tolist() == [0, 1, 1]

    def test_adjacent_different_classes_split(self):
        sem = grid([[1, 2]])
        regions = extract_regions(sem)
        assert regions.labels.data.tolist() == [[1, 2]]
        assert regions.classes.tolist() == [0, 1, 2]

    def test_background_only(self):
        regions = extract_regions(grid([[0, 0], [0, 0]]))
        assert (regions.labels.data == 0).all()
        assert regions.classes.tolist() == [0]
        assert regions.owners == {}

    def test_owner_points_start_empty(self):
        sem = grid([[1, 1]])
        assert extract_regions(sem).owners == {}

    def test_corner_touching_pixels_are_one_region(self):
        # One point owns a class-1 staircase whose steps touch at corners.
        sem = grid([[1, 1, 0, 0], [0, 0, 1, 1], [2, 0, 0, 0]])
        regions = extract_regions(sem)
        assert regions.labels.data.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1], [2, 0, 0, 0]]
        assert regions.classes.tolist() == [0, 1, 2]
        pts = points((1, 3, 1, 1))
        out = assign_points(matched(sem, pts), pts)
        assert out.data.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]]


def argwhere_regions(semantic):
    """extract_regions as one argwhere per component of each class's mask,
    in raster order of each component's first pixel: the oracle."""
    out = []
    for class_id in semantic.ids():
        comps = connected_components(semantic.data == class_id).data
        for comp_id in range(1, int(comps.max()) + 1):
            out.append((class_id, np.argwhere(comps == comp_id).astype(np.int32)))
    return sorted(out, key=lambda region: tuple(region[1][0]))


class TestExtractRegionsMatchesArgwhereOracle:
    def test_random_label_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            sem = LabelGrid(rng.integers(0, 4, size=(h, w)).astype(np.int32))
            regions = extract_regions(sem)
            expected = argwhere_regions(sem)
            labels = regions.labels.data
            assert labels.dtype == regions.classes.dtype == np.int32
            assert labels.shape == sem.shape
            assert regions.classes.tolist() == [0, *(c for c, _ in expected)]
            assert np.array_equal(labels == 0, sem.data == 0)
            for region_id, (_, pixels) in enumerate(expected, 1):
                assert np.array_equal(np.argwhere(labels == region_id), pixels)


class TestAssignPoints:
    def test_strip_split_by_nearest_point(self):
        sem = grid([[1, 1, 1, 1, 1]])
        pts = points((0, 1, 1, 1), (0, 4, 1, 2))
        out = assign_points(matched(sem, pts), pts)
        assert out.data.tolist() == [[1, 1, 1, 2, 2]]

    def test_equidistant_tie_goes_to_lower_instance_id(self):
        sem = grid([[1, 1, 1]])
        pts = points((0, 0, 1, 1), (0, 2, 1, 2))
        out = assign_points(matched(sem, pts), pts)
        assert out.data[0, 1] == 1

    def test_single_point_takes_whole_region(self):
        sem = grid([[1, 1], [1, 1]])
        pts = points((0, 0, 1, 1))
        out = assign_points(matched(sem, pts), pts)
        assert (out.data == 1).all()

    def test_pointless_region_becomes_background(self):
        sem = grid([[1, 1, 0, 2]])
        pts = points((0, 0, 1, 1))
        out = assign_points(matched(sem, pts), pts)
        assert out.data.tolist() == [[1, 1, 0, 0]]

    def test_class_mismatch_treated_as_uncontained(self, caplog):
        sem = grid([[2, 2]])
        pts = points((0, 0, 1, 1))
        with caplog.at_level("WARNING"):
            out = assign_points(matched(sem, pts), pts)
        assert (out.data == 0).all()
        assert any("ignored" in r.message for r in caplog.records)

    def test_matches_brute_force_nearest_point(self):
        # Exhaustive check on random regions up to 12x12 with 2-4 points.
        rng = np.random.default_rng(42)
        for _ in range(200):
            h, w = int(rng.integers(3, 13)), int(rng.integers(3, 13))
            mask = rng.random((h, w)) < 0.7
            if not mask.any():
                continue
            sem = LabelGrid(mask.astype(np.int32))
            regions = extract_regions(sem)
            # pick one region and scatter 2-4 points inside it
            region_id = 1 + int(rng.integers(len(regions.classes) - 1))
            pixels = np.argwhere(regions.labels.data == region_id)
            k = min(len(pixels), int(rng.integers(2, 5)))
            chosen = pixels[rng.choice(len(pixels), k, replace=False)]
            pts = PointAnnotationSet(
                tuple(Point(int(y), int(x), 1, i + 1) for i, (y, x) in enumerate(chosen))
            )
            out = assign_points(attach_points(regions, pts), pts)
            # brute force restricted to that region
            for (y, x) in pixels:
                d2 = [(y - p.y) ** 2 + (x - p.x) ** 2 for p in pts]
                best = int(np.argmin(d2)) + 1
                assert out.data[y, x] == best


class TestAttachPoints:
    def test_conflict_region_lists_both_owners(self):
        sem = grid([[1, 1, 1]])
        pts = points((0, 0, 1, 1), (0, 2, 1, 2))
        regions = attach_points(extract_regions(sem), pts)
        assert regions.owners == {1: (1, 2)}

    def test_ignored_point_names_its_region(self, caplog):
        # Regions 1 and 2 are class 1, region 3 is class 2. Point 2 (class 1)
        # sits in region 3, so the warning names region 3 and its class, and
        # point 2 owns nothing; point 3 lies on background, and says so.
        sem = grid([[1, 0, 1], [0, 0, 0], [2, 2, 0]])
        pts = points((0, 2, 1, 1), (2, 1, 1, 2), (1, 1, 2, 3))
        with caplog.at_level("WARNING"):
            regions = attach_points(extract_regions(sem), pts)
        assert [r.getMessage() for r in caplog.records] == [
            "point (2, 1) ignored: class 1 region 3 has class 2",
            "point (1, 1) ignored: class 2 on background",
        ]
        assert regions.owners == {2: (1,)}
        assert assign_points(regions, pts).data.tolist() == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]

    def test_point_outside_the_grid_rejected(self):
        with pytest.raises(GridError, match="outside 1x3 grid"):
            attach_points(extract_regions(grid([[1, 1, 1]])), points((0, 3, 1, 1)))


class TestComputeOffsetField:
    def test_vector_points_at_annotation(self):
        inst = grid([[0] * 6] * 6)
        data = inst.data.copy()
        data[3:6, 3:6] = 1
        inst = LabelGrid(data)
        pts = points((5, 5, 1, 1))
        field = compute_offset_field(inst, pts)
        assert tuple(field.vectors[3, 4]) == (2.0, 1.0)
        assert field.valid[3, 4]

    def test_zero_offset_at_the_point(self):
        inst = grid([[1]])
        field = compute_offset_field(inst, points((0, 0, 1, 1)))
        assert tuple(field.vectors[0, 0]) == (0.0, 0.0)
        assert field.valid[0, 0]

    def test_background_invalid_zero(self):
        inst = grid([[1, 0]])
        field = compute_offset_field(inst, points((0, 0, 1, 1)))
        assert not field.valid[0, 1]
        assert tuple(field.vectors[0, 1]) == (0.0, 0.0)

    def test_orphan_instance_errors(self):
        inst = grid([[1, 2]])
        with pytest.raises(PipelineError, match="without annotation point"):
            compute_offset_field(inst, points((0, 0, 1, 1)))

    def test_round_trip_lands_on_point(self):
        sc = generate_scene(5, 48, 48, 4, 3)
        field = compute_offset_field(sc.gt_instances, sc.points)
        yy, xx = np.mgrid[0:48, 0:48]
        landing_y = yy + field.vectors[:, :, 0]
        landing_x = xx + field.vectors[:, :, 1]
        pos = {p.instance_id: (p.y, p.x) for p in sc.points}
        for inst, (py, px) in pos.items():
            mask = sc.gt_instances.data == inst
            assert (landing_y[mask] == py).all()
            assert (landing_x[mask] == px).all()


def offsets_of(vectors):
    return OffsetField(np.asarray(vectors, dtype=np.float64), np.ones(vectors.shape[:2], bool))


class TestGroupInstances:
    def test_vote_lands_on_annotation(self):
        # One class-1 strip holds both points; pixel (0, 1) sits next to
        # point 1 but its vote lands on point 2.
        sem = grid([[1, 1, 1, 1, 1, 1]])
        pts = points((0, 0, 1, 1), (0, 5, 1, 2))
        regions = matched(sem, pts)
        vectors = np.zeros((1, 6, 2))
        vectors[0, 1] = (0.0, 4.0)
        out = group_instances(offsets_of(vectors), assign_points(regions, pts), regions, pts)
        assert out.data[0, 1] == 2

    def test_shared_region_splits_by_vote_not_position(self):
        # Every pixel votes 3 columns right, so the split moves 3 columns
        # left of the nearest-position one, and matches a brute force.
        sem = grid([[1] * 12] * 3)
        pts = points((1, 2, 1, 1), (1, 9, 1, 2))
        regions = matched(sem, pts)
        initial = assign_points(regions, pts)
        assert initial.data[0].tolist() == [1] * 6 + [2] * 6
        vectors = np.zeros((3, 12, 2))
        vectors[:, :, 1] = 3.0
        out = group_instances(offsets_of(vectors), initial, regions, pts)
        assert out.data[0].tolist() == [1] * 3 + [2] * 9
        for y in range(3):
            for x in range(12):
                d2 = [(y - p.y) ** 2 + (x + 3 - p.x) ** 2 for p in pts]
                assert out.data[y, x] == int(np.argmin(d2)) + 1

    def test_single_point_regions_ignore_the_votes(self):
        # Each point owns its region alone: however wild the votes, the
        # grouping returns the targets' labels.
        data = np.zeros((20, 20), np.int32)
        data[:6, :6], data[12:18, 12:18] = 1, 2
        sem = LabelGrid(data)
        pts = points((2, 2, 1, 1), (15, 15, 2, 2))
        targets = build_stage_targets(sem, pts, MdmConfig(), affinity_seed=0)
        assert int((targets.initial.data == 2).sum()) == 36
        vectors = np.random.default_rng(0).normal(0.0, 30.0, (20, 20, 2))
        out = group_instances(offsets_of(vectors), targets.initial, targets.regions, pts)
        assert np.array_equal(out.data, targets.initial.data)

    def test_oracle_offsets_reproduce_gt_on_50_scenes(self):
        for seed in range(50):
            sc = generate_scene(seed + 1000, 64, 64, 2 + seed % 5, 3)
            offsets = compute_offset_field(sc.gt_instances, sc.points)
            targets = build_stage_targets(sc.gt_semantic, sc.points, MdmConfig(), affinity_seed=0)
            out = group_instances(offsets, targets.initial, targets.regions, sc.points)
            assert np.array_equal(out.data, sc.gt_instances.data)
            pseudo = finalize_pseudo_labels(out, sc.gt_semantic, sc.points)
            assert np.array_equal(pseudo.data, out.data)


class TestFinalizePseudoLabels:
    def test_instance_on_background_removed(self):
        grouped = grid([[1, 1]])
        sem = grid([[0, 0]])
        out = finalize_pseudo_labels(grouped, sem, points((0, 0, 1, 1)))
        assert (out.data == 0).all()

    def test_identity_case(self):
        sc = generate_scene(77, 48, 48, 3, 3)
        out = finalize_pseudo_labels(sc.gt_instances, sc.gt_semantic, sc.points)
        assert np.array_equal(out.data, sc.gt_instances.data)

    def test_straddling_instance_clipped_to_own_class(self):
        # instance 1 (class 1) grouped across a class-2 strip: the class-2
        # pixels must be cleared, leaving exactly the class-1 columns.
        grouped = grid([[1, 1, 1, 1]])
        sem = grid([[1, 1, 2, 0]])
        pts = points((0, 0, 1, 1))
        out = finalize_pseudo_labels(grouped, sem, pts)
        assert out.data.tolist() == [[1, 1, 0, 0]]

    def test_foreground_subset_of_semantic(self):
        sc = generate_scene(78, 64, 64, 4, 3)
        sem = corrupt_semantic(sc, CorruptionConfig(dilation_px=2, flip_rate=0.1, rng_seed=3))
        offsets = compute_offset_field(sc.gt_instances, sc.points)
        targets = build_stage_targets(sem, sc.points, MdmConfig(), affinity_seed=0)
        grouped = group_instances(offsets, targets.initial, targets.regions, sc.points)
        out = finalize_pseudo_labels(grouped, sem, sc.points)
        assert not ((out.data > 0) & (sem.data == 0)).any()

    def test_stray_ids_rejected(self):
        with pytest.raises(PipelineError, match="without annotation points"):
            finalize_pseudo_labels(grid([[3]]), grid([[1]]), points((0, 0, 1, 1)))
