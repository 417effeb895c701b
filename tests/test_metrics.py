import numpy as np
import pytest

from pointseg import (
    EvalError,
    LabelGrid,
    ap_report,
    greedy_match,
    mask_iou,
)
from pointseg.metrics import _per_class_ap


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


class TestMaskIou:
    def test_identity(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1:3, 1:3] = True
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 4), dtype=bool)
        b = np.zeros((2, 4), dtype=bool)
        a[:, 0] = True
        b[:, 3] = True
        assert mask_iou(a, b) == 0.0

    def test_partial_overlap(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0:2, 0:2] = True
        b[0:2, 1:3] = True
        assert mask_iou(a, b) == pytest.approx(2.0 / 6.0)

    def test_both_empty_undefined(self):
        with pytest.raises(EvalError, match="IoU undefined"):
            mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))


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


def class_1_ap(preds, gts, iou_threshold):
    """AP of class 1, the only class these cases use."""
    return _per_class_ap(preds, gts, iou_threshold)[1]


class TestAveragePrecision:
    def mask(self, h, w, ys, xs):
        m = np.zeros((h, w), dtype=bool)
        m[ys, xs] = True
        return m

    def test_single_true_positive(self):
        m = self.mask(4, 4, slice(0, 2), slice(0, 2))
        assert class_1_ap([(m, 1.0, 1)], [(m, 1)], 0.5) == 1.0

    def test_single_false_positive(self):
        a = self.mask(4, 4, slice(0, 2), slice(0, 2))
        b = self.mask(4, 4, slice(2, 4), slice(2, 4))
        assert class_1_ap([(a, 1.0, 1)], [(b, 1)], 0.5) == 0.0

    def test_tp_then_fp_is_full_ap(self):
        gt = self.mask(6, 6, slice(0, 3), slice(0, 3))
        fp = self.mask(6, 6, slice(4, 6), slice(4, 6))
        preds = [(gt, 0.9, 1), (fp, 0.5, 1)]
        assert class_1_ap(preds, [(gt, 1)], 0.5) == pytest.approx(1.0)

    def test_fp_then_tp_halves_ap(self):
        gt = self.mask(6, 6, slice(0, 3), slice(0, 3))
        fp = self.mask(6, 6, slice(4, 6), slice(4, 6))
        preds = [(gt, 0.5, 1), (fp, 0.9, 1)]
        assert class_1_ap(preds, [(gt, 1)], 0.5) == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            pred = random_label_grid(rng, 12, 12, 3)
            gt = random_label_grid(rng, 12, 12, 3)
            preds = [(pred.data == i, float((pred.data == i).sum()), 1) for i in pred.ids()]
            gts = [(gt.data == i, 1) for i in gt.ids()]
            if not preds or not gts:
                continue
            values = [class_1_ap(preds, gts, t) for t in (0.3, 0.5, 0.7, 0.9)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_class_with_predictions_but_no_gt_flagged(self):
        # Class 2 is found exactly; class 1 has a prediction and no gt, so it
        # scores AP 0 and halves the mean.
        pred = grid([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        gt = grid([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        report = ap_report(pred, gt, pred_classes={1: 1, 2: 2}, gt_classes={2: 2})
        assert report.map50 == report.map70 == report.map75 == 0.5
        preds = [(pred.data == i, float((pred.data == i).sum()), i) for i in (1, 2)]
        assert _per_class_ap(preds, [(gt.data == 2, 2)], 0.5) == {1: 0.0, 2: 1.0}

    def test_report_thresholds(self):
        g = grid([[1, 1], [0, 0]])
        report = ap_report(g, g, pred_classes={1: 1}, gt_classes={1: 1})
        assert report.map50 == report.map70 == report.map75 == 1.0
