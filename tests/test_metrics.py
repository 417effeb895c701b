import numpy as np
import pytest

from pointseg import metrics
from pointseg.errors import EvalError
from pointseg.grids import LabelGrid
from pointseg.metrics import (
    AP_THRESHOLDS,
    MATCH_THRESHOLDS,
    ApReport,
    MatchReport,
    ap_report,
    greedy_match,
)


def grid(rows):
    return LabelGrid(np.array(rows, dtype=np.int32))


def brute_force_greedy(pred, gt, pred_classes=None, gt_classes=None, class_aware=False):
    """Naive reference matcher built on python sets."""
    pred_px = {
        i: {(y, x) for y, x in np.argwhere(pred.data == i)} for i in pred.ids()
    }
    gt_px = {i: {(y, x) for y, x in np.argwhere(gt.data == i)} for i in gt.ids()}
    order = sorted(pred_px, key=lambda i: (-len(pred_px[i]), i))
    ious = {g: 0.0 for g in gt_px}
    taken = set()
    for p in order:
        best_g, best = None, 0.0
        for g in sorted(gt_px):
            if g in taken:
                continue
            if class_aware and pred_classes[p] != gt_classes[g]:
                continue
            inter = len(pred_px[p] & gt_px[g])
            union = len(pred_px[p] | gt_px[g])
            iou = inter / union if union else 0.0
            if iou > best:
                best_g, best = g, iou
        if best_g is not None:
            taken.add(best_g)
            ious[best_g] = best
    overall = 100.0 * sum(ious.values()) / len(ious) if ious else 0.0
    return ious, overall


def random_label_grid(rng, h, w, k):
    data = np.zeros((h, w), dtype=np.int32)
    for i in range(1, k + 1):
        sy, sx = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        y0 = int(rng.integers(0, h - sy))
        x0 = int(rng.integers(0, w - sx))
        data[y0 : y0 + sy, x0 : x0 + sx] = i
    return LabelGrid(data)


# The mask-based metrics the overlap table replaced: one boolean mask per
# instance and one mask IoU per (pred, gt) pair. They are the oracle that the
# table-based metrics must equal field for field.


def oracle_mask_iou(a, b):
    return float(np.logical_and(a, b).sum() / np.logical_or(a, b).sum())


def oracle_greedy_match(pred, gt, pred_classes=None, gt_classes=None, class_aware=False):
    pred_masks = {i: pred.data == i for i in pred.ids()}
    gt_masks = {i: gt.data == i for i in gt.ids()}
    order = sorted(pred_masks, key=lambda i: (-int(pred_masks[i].sum()), i))
    ious = {g: 0.0 for g in gt_masks}
    matches = {g: None for g in gt_masks}
    taken = set()
    for p in order:
        best_gt, best_iou = None, 0.0
        for g in sorted(gt_masks):
            if g in taken:
                continue
            if class_aware and pred_classes[p] != gt_classes[g]:
                continue
            iou = oracle_mask_iou(pred_masks[p], gt_masks[g])
            if iou > best_iou:
                best_gt, best_iou = g, iou
        if best_gt is not None:
            taken.add(best_gt)
            ious[best_gt] = best_iou
            matches[best_gt] = p
    counts = {t: sum(1 for v in ious.values() if v > t) for t in MATCH_THRESHOLDS}
    overall = 100.0 * (sum(ious.values()) / len(ious)) if ious else 0.0
    return MatchReport(ious=ious, matches=matches, counts=counts, overall_iou=overall)


def oracle_ap_single_class(preds, gts, iou_threshold):
    """preds as (mask, score, id), gts as masks."""
    if not gts or not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], preds[i][2]))
    taken = set()
    tp = np.zeros(len(order))
    for rank, idx in enumerate(order):
        best_g, best_iou = None, 0.0
        for g, gmask in enumerate(gts):
            if g in taken:
                continue
            iou = oracle_mask_iou(preds[idx][0], gmask)
            if iou >= iou_threshold and iou > best_iou:
                best_g, best_iou = g, iou
        if best_g is not None:
            taken.add(best_g)
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / len(gts)
    precision = cum_tp / np.arange(1, len(order) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def oracle_ap_report(pred, gt, pred_classes=None, gt_classes=None):
    get_pc = (pred_classes or {}).get
    get_gc = (gt_classes or {}).get
    preds = [(pred.data == i, float((pred.data == i).sum()), get_pc(i, 1)) for i in pred.ids()]
    gts = [(gt.data == i, get_gc(i, 1)) for i in gt.ids()]
    classes = sorted({c for _, _, c in preds} | {c for _, c in gts})
    maps = {}
    for t in AP_THRESHOLDS:
        table = [
            oracle_ap_single_class(
                [(m, s, i) for i, (m, s, pc) in enumerate(preds) if pc == c],
                [m for m, gc in gts if gc == c],
                t,
            )
            for c in classes
        ]
        maps[t] = float(np.mean(table)) if table else 0.0
    return ApReport(map50=maps[0.5], map70=maps[0.7], map75=maps[0.75])


def sparse_ids(rng, g):
    """The same partition with its ids moved to distinct random values up to 65,535."""
    lut = np.zeros(int(g.data.max()) + 1, dtype=np.int32)
    lut[1:] = rng.choice(np.arange(1, 65536), size=len(lut) - 1, replace=False)
    return LabelGrid(lut[g.data])


def random_classes(rng, g, n_classes):
    return {i: int(rng.integers(1, n_classes + 1)) for i in g.ids()}


def assert_reports_equal(got, want):
    """Field-for-field equality, floats included, and the same key types."""
    assert got == want
    assert repr(got) == repr(want)


class TestOverlapTableMatchesMaskOracle:
    """The table-based metrics equal the mask-based oracle exactly."""

    def random_pair(self, rng):
        kp, kg = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        pred = random_label_grid(rng, 12, 12, kp)
        gt = random_label_grid(rng, 12, 12, kg)
        if rng.random() < 0.3:
            pred = sparse_ids(rng, pred)
        if rng.random() < 0.3:
            gt = sparse_ids(rng, gt)
        return pred, gt

    def test_random_pairs_all_fields_equal(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            pred, gt = self.random_pair(rng)
            n_classes = int(rng.integers(1, 4))
            pc, gc = random_classes(rng, pred, n_classes), random_classes(rng, gt, n_classes)
            assert_reports_equal(greedy_match(pred, gt), oracle_greedy_match(pred, gt))
            assert_reports_equal(
                greedy_match(pred, gt, pred_classes=pc, gt_classes=gc, class_aware=True),
                oracle_greedy_match(pred, gt, pred_classes=pc, gt_classes=gc, class_aware=True),
            )
            # Class maps given but unused, then maps that leave ids out:
            # an unlisted id is class 1 to AP.
            assert_reports_equal(
                greedy_match(pred, gt, pred_classes=pc, gt_classes=gc),
                oracle_greedy_match(pred, gt),
            )
            part_pc = {i: c for i, c in pc.items() if rng.random() < 0.5}
            part_gc = {i: c for i, c in gc.items() if rng.random() < 0.5}
            for maps in ({}, {"pred_classes": pc, "gt_classes": gc},
                         {"pred_classes": part_pc, "gt_classes": part_gc},
                         {"pred_classes": pc}):
                assert_reports_equal(ap_report(pred, gt, **maps), oracle_ap_report(pred, gt, **maps))

    @pytest.mark.parametrize("pred_rows, gt_rows", [
        ([[0, 0, 0], [0, 0, 0]], [[1, 1, 0], [2, 0, 2]]),   # empty pred
        ([[1, 1, 0], [2, 0, 2]], [[0, 0, 0], [0, 0, 0]]),   # gt with no foreground
        ([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]),   # both empty
        ([[65535, 7, 7], [0, 65535, 0]], [[9, 9, 9], [0, 40000, 0]]),  # sparse ids
    ])
    def test_edge_pairs_all_fields_equal(self, pred_rows, gt_rows):
        pred, gt = grid(pred_rows), grid(gt_rows)
        pc = {i: 1 + i % 2 for i in pred.ids()}
        gc = {i: 1 + i % 2 for i in gt.ids()}
        assert_reports_equal(greedy_match(pred, gt), oracle_greedy_match(pred, gt))
        assert_reports_equal(
            greedy_match(pred, gt, pred_classes=pc, gt_classes=gc, class_aware=True),
            oracle_greedy_match(pred, gt, pred_classes=pc, gt_classes=gc, class_aware=True),
        )
        assert_reports_equal(ap_report(pred, gt), oracle_ap_report(pred, gt))
        assert_reports_equal(
            ap_report(pred, gt, pred_classes=pc, gt_classes={}),
            oracle_ap_report(pred, gt, pred_classes=pc, gt_classes={}),
        )

    def test_cross_class_cells_are_never_claimed(self):
        # pred 1 overlaps gt 1 best, but only gt 2 shares its class.
        pred = grid([[1, 1, 1, 0]])
        gt = grid([[1, 1, 2, 2]])
        kw = dict(pred_classes={1: 2}, gt_classes={1: 1, 2: 2}, class_aware=True)
        report = greedy_match(pred, gt, **kw)
        assert report.matches == {1: None, 2: 1}
        assert report.ious == {1: 0.0, 2: 0.25}
        assert_reports_equal(report, oracle_greedy_match(pred, gt, **kw))

    def test_ids_at_the_int32_maximum(self):
        top = 2**31 - 1
        pred = grid([[top, top, 0], [0, 1, 1]])
        gt = grid([[top, top, top], [0, 1, 0]])
        report = greedy_match(pred, gt)
        assert report.matches == {1: 1, top: top}
        assert report.ious == {1: 0.5, top: 2 / 3}


class TestSharedOverlapTable:
    """Matching and AP on one pair read one cached table; any other pair,
    an equal copy of a grid included, is counted afresh."""

    def test_a_shared_table_gives_the_reports_of_none(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            pred, gt = random_label_grid(rng, 9, 11, 4), random_label_grid(rng, 9, 11, 3)
            pc, gc = random_classes(rng, pred, 2), random_classes(rng, gt, 2)
            hits, misses = metrics._overlaps.cache_info()[:2]
            match, ap = greedy_match(pred, gt, pc, gc, True), ap_report(pred, gt, pc, gc)
            # The last loop's pair is cached: this pair misses once, then hits.
            assert metrics._overlaps.cache_info()[:2] == (hits + 1, misses + 1)
            table = metrics._overlaps(pred, gt)
            copy = LabelGrid(pred.data)  # the same ids, another grid
            assert metrics._overlaps(copy, gt) is not table
            for other in (copy, pred):  # each call below counts its own table
                metrics._overlaps.cache_clear()
                assert_reports_equal(greedy_match(other, gt, pc, gc, True), match)
                metrics._overlaps.cache_clear()
                assert_reports_equal(ap_report(other, gt, pc, gc), ap)
            assert metrics._overlaps.cache_info()[:2] == (0, 1)

    def test_the_cached_table_is_read_only(self):
        pred, gt = grid([[1, 2], [0, 2]]), grid([[1, 1], [1, 1]])
        pred_ids, gt_ids, order, iou = metrics._overlaps(pred, gt)
        assert order.tolist() == [1, 0]  # size 2 before size 1
        for arr in (pred_ids, gt_ids, order, iou):
            assert not arr.flags.writeable


class TestMaskIou:
    """Pairwise IoU, read through one-instance grids."""

    def one_instance(self, h, w, ys, xs):
        data = np.zeros((h, w), dtype=np.int32)
        data[ys, xs] = 1
        return LabelGrid(data)

    def test_identity(self):
        m = self.one_instance(4, 4, slice(1, 3), slice(1, 3))
        assert greedy_match(m, m).ious[1] == 1.0

    def test_disjoint(self):
        a = self.one_instance(2, 4, slice(None), 0)
        b = self.one_instance(2, 4, slice(None), 3)
        report = greedy_match(a, b)
        assert report.ious[1] == 0.0
        assert report.matches[1] is None

    def test_partial_overlap(self):
        a = self.one_instance(4, 4, slice(0, 2), slice(0, 2))
        b = self.one_instance(4, 4, slice(0, 2), slice(1, 3))
        assert greedy_match(a, b).ious[1] == pytest.approx(2.0 / 6.0)

    def test_both_empty_gives_empty_report(self):
        # Two empty grids have no instance pair whose IoU could be undefined.
        empty = grid([[0, 0], [0, 0]])
        report = greedy_match(empty, empty)
        assert report.ious == {} and report.matches == {}
        assert report.overall_iou == 0.0
        assert ap_report(empty, empty) == ApReport(0.0, 0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(EvalError, match="shape mismatch"):
            greedy_match(grid([[1, 1]]), grid([[1], [1]]))
        with pytest.raises(EvalError, match="shape mismatch"):
            ap_report(grid([[1, 1]]), grid([[1], [1]]))


class TestGreedyMatch:
    def test_identity_match(self):
        g = grid([[1, 1, 0], [2, 2, 0]])
        report = greedy_match(g, g)
        assert report.overall_iou == 100.0
        assert report.counts[0.9] == 2
        assert report.matches == {1: 1, 2: 2}

    def test_empty_pred(self):
        pred = grid([[0, 0], [0, 0]])
        gt = grid([[1, 1], [0, 0]])
        report = greedy_match(pred, gt)
        assert report.overall_iou == 0.0
        assert report.counts == {0.5: 0, 0.7: 0, 0.9: 0}

    def test_greedy_differs_from_optimal(self):
        # big pred claims the gt that optimal assignment would give away
        pred = grid([[1, 1, 1, 0, 0]])
        gt = grid([[2, 2, 3, 3, 0]])
        report = greedy_match(pred, gt)
        oracle, overall = brute_force_greedy(pred, gt)
        assert report.ious == pytest.approx(oracle)
        assert report.overall_iou == pytest.approx(overall)

    def test_matches_brute_force_on_random_scenes(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            pred = random_label_grid(rng, 12, 12, int(rng.integers(0, 6)))
            gt = random_label_grid(rng, 12, 12, int(rng.integers(1, 6)))
            report = greedy_match(pred, gt)
            oracle, overall = brute_force_greedy(pred, gt)
            assert report.ious == pytest.approx(oracle)
            assert report.overall_iou == pytest.approx(overall)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        pred = random_label_grid(rng, 10, 10, 3)
        gt = random_label_grid(rng, 10, 10, 3)
        base = greedy_match(pred, gt)
        # relabel pred ids 1,2,3 -> 3,1,2 (preserving size order semantics)
        perm = {0: 0, 1: 3, 2: 1, 3: 2}
        relabeled = LabelGrid(np.vectorize(perm.get)(pred.data).astype(np.int32))
        out = greedy_match(relabeled, gt)
        assert out.overall_iou == pytest.approx(base.overall_iou)

    def test_class_aware_blocks_cross_class(self):
        pred = grid([[1, 1]])
        gt = grid([[1, 1]])
        report = greedy_match(
            pred, gt, pred_classes={1: 2}, gt_classes={1: 1}, class_aware=True
        )
        assert report.overall_iou == 0.0

    def test_overall_100_iff_equal_up_to_relabeling(self):
        a = grid([[1, 2], [0, 2]])
        b = grid([[2, 1], [0, 1]])
        assert greedy_match(a, b).overall_iou == 100.0
        c = grid([[2, 1], [1, 1]])
        assert greedy_match(a, c).overall_iou < 100.0

    def test_counts_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pred = random_label_grid(rng, 10, 10, 3)
            gt = random_label_grid(rng, 10, 10, 3)
            r = greedy_match(pred, gt)
            assert r.counts[0.5] >= r.counts[0.7] >= r.counts[0.9]

    def test_class_aware_names_ids_missing_from_a_class_map(self):
        g = grid([[1, 1], [2, 2]])
        with pytest.raises(EvalError, match=r"pred instance ids \[2\]"):
            greedy_match(g, g, pred_classes={1: 1}, gt_classes={1: 1, 2: 1}, class_aware=True)
        with pytest.raises(EvalError, match=r"gt instance ids \[1, 2\]"):
            greedy_match(g, g, pred_classes={1: 1, 2: 1}, gt_classes={}, class_aware=True)

    def test_class_aware_needs_both_maps(self):
        g = grid([[1, 1]])
        with pytest.raises(EvalError, match="class maps for both sides"):
            greedy_match(g, g, pred_classes={1: 1}, class_aware=True)


class TestAveragePrecision:
    """AP cases on one class: every instance is unlisted, so class 1."""

    def test_single_true_positive(self):
        g = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert ap_report(g, g).map50 == 1.0

    def test_single_false_positive(self):
        a = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = grid([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        assert ap_report(a, b).map50 == 0.0

    def test_tp_then_fp_is_full_ap(self):
        # The true positive is the larger instance, so it ranks first.
        gt = np.zeros((6, 6), dtype=np.int32)
        gt[0:3, 0:3] = 1
        pred = gt.copy()
        pred[4:6, 4:6] = 2
        assert ap_report(LabelGrid(pred), LabelGrid(gt)).map50 == pytest.approx(1.0)

    def test_fp_then_tp_halves_ap(self):
        # The false positive is the larger instance, so it ranks first.
        gt = np.zeros((6, 6), dtype=np.int32)
        gt[0:2, 0:2] = 1
        pred = gt.copy()
        pred[3:6, 3:6] = 2
        assert ap_report(LabelGrid(pred), LabelGrid(gt)).map50 == pytest.approx(0.5)

    def test_step_curve_sums_in_rank_order(self):
        # Ranked by size: TP, TP, FP, TP over 3 gt instances. The steps sum
        # 1/3 + 1/3 + 0 + 1/3 * 0.75 to 11/12 in rank order; in reverse order
        # the float comes out one ulp lower, 0.9166666666666665.
        gt = grid([[1] * 8, [2] * 7 + [0], [0] * 8, [3] * 5 + [0] * 3])
        pred = grid([[1] * 8, [2] * 7 + [0], [3] * 6 + [0] * 2, [4] * 5 + [0] * 3])
        report = ap_report(pred, gt)
        assert report.map50 == report.map70 == report.map75 == 0.9166666666666666

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            pred = random_label_grid(rng, 12, 12, 3)
            gt = random_label_grid(rng, 12, 12, 3)
            r = ap_report(pred, gt)
            assert r.map50 >= r.map70 - 1e-12 and r.map70 >= r.map75 - 1e-12

    def test_class_with_predictions_but_no_gt_flagged(self):
        # Class 2 is found exactly; class 1 has a prediction and no gt, so it
        # scores AP 0 and halves the mean.
        pred = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        gt = grid([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        report = ap_report(pred, gt, pred_classes={1: 1, 2: 2}, gt_classes={2: 2})
        assert report.map50 == report.map70 == report.map75 == 0.5
        # Per class: class 2 alone scores 1, so class 1 scored 0.
        class_2_only = LabelGrid(np.where(pred.data == 2, 2, 0))
        assert ap_report(class_2_only, gt, pred_classes={2: 2}, gt_classes={2: 2}).map50 == 1.0

    def test_unlisted_ids_are_class_1(self):
        pred = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        gt = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 2, 0]])
        listed = ap_report(pred, gt, pred_classes={1: 1, 2: 3}, gt_classes={1: 1, 2: 3})
        partial = ap_report(pred, gt, pred_classes={2: 3}, gt_classes={2: 3})
        assert partial == listed

    def test_report_thresholds(self):
        g = grid([[1, 1], [0, 0]])
        report = ap_report(g, g, pred_classes={1: 1}, gt_classes={1: 1})
        assert report.map50 == report.map70 == report.map75 == 1.0
