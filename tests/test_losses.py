import math

import numpy as np
import pytest

from pointseg import (
    AffinitySampleSet,
    ClassScoreMap,
    LabelGrid,
    LossError,
    LossWeights,
    OffsetField,
    affinity_floor,
    affinity_loss,
    grad_check,
    offset_loss,
    offset_target,
    ohem_target,
    seg_loss_ohem,
    smooth_l1,
    total_loss,
)

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))


def offset_loss_of(pred, target):
    """offset_loss over two offset fields."""
    return offset_loss(pred.vectors, *offset_target(target))


def seg_loss_of(scores, target, ratio):
    """seg_loss_ohem over a class score map and its target class grid."""
    return seg_loss_ohem(scores.data, *ohem_target(target.data, scores.channels, ratio))


def affinity_loss_of(samples):
    """affinity_loss over a sample set's logits and targets."""
    return affinity_loss(samples.pred_logits, *affinity_floor(samples.targets))


def make_samples(targets, logits):
    n = len(targets)
    a = np.zeros((n, 2), dtype=np.int32)
    b = np.stack([np.zeros(n, dtype=np.int32), np.arange(1, n + 1, dtype=np.int32)], axis=1)
    return AffinitySampleSet(
        a=a, b=b, targets=np.asarray(targets, dtype=np.float64),
        pred_logits=np.asarray(logits, dtype=np.float64),
    )


class TestSmoothL1:
    def test_quadratic_branch(self):
        value, deriv = smooth_l1(0.5)
        assert value == pytest.approx(0.125)
        assert deriv == pytest.approx(0.5)

    def test_linear_branch(self):
        value, deriv = smooth_l1(2.0)
        assert value == pytest.approx(1.5)
        assert deriv == pytest.approx(1.0)

    def test_minimum(self):
        value, deriv = smooth_l1(0.0)
        assert value == 0.0 and deriv == 0.0

    def test_even_function(self):
        v1, d1 = smooth_l1(np.array([-0.3, -3.0]))
        v2, d2 = smooth_l1(np.array([0.3, 3.0]))
        assert np.allclose(v1, v2)
        assert np.allclose(d1, -d2)


class TestOffsetLoss:
    def field(self, vectors, valid=None):
        vectors = np.asarray(vectors, dtype=np.float64)
        if valid is None:
            valid = np.ones(vectors.shape[:2], dtype=bool)
        return OffsetField(vectors, valid)

    def test_zero_residual(self):
        t = self.field(np.random.default_rng(0).standard_normal((4, 4, 2)))
        loss, grad = offset_loss_of(t, t)
        assert loss == 0.0
        assert (grad == 0).all()

    def test_single_pixel_half_diff(self):
        pred = self.field([[[0.5, 0.0]]])
        target = self.field([[[0.0, 0.0]]])
        loss, _ = offset_loss_of(pred, target)
        assert loss == pytest.approx(0.125)

    def test_gradient_zero_outside_valid(self):
        rng = np.random.default_rng(1)
        valid = np.zeros((3, 3), dtype=bool)
        valid[1, 1] = True
        target = OffsetField(rng.standard_normal((3, 3, 2)) * valid[:, :, None], valid)
        pred = self.field(rng.standard_normal((3, 3, 2)))
        _, grad = offset_loss_of(pred, target)
        assert (grad[~valid] == 0).all()
        assert (grad[valid] != 0).any()

    def test_empty_pseudo_set(self):
        empty = OffsetField(np.zeros((2, 2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(LossError, match="empty pseudo set"):
            offset_loss_of(self.field(np.zeros((2, 2, 2))), empty)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        valid = rng.random((8, 8)) < 0.7
        valid[0, 0] = True
        # keep residuals away from the smooth-L1 kink at |x| = 1
        diffs = rng.uniform(-0.8, 0.8, size=(8, 8, 2))
        diffs[rng.random((8, 8)) < 0.3] += 2.0
        target_vec = rng.standard_normal((8, 8, 2)) * valid[:, :, None]
        target = OffsetField(target_vec, valid)
        pred0 = target.vectors + diffs

        def f(flat):
            pred = OffsetField(flat.reshape(8, 8, 2), np.ones((8, 8), dtype=bool))
            loss, grad = offset_loss_of(pred, target)
            return loss, grad.ravel()

        report = grad_check(f, pred0.ravel(), h=1e-3, tol=1e-4)
        assert report.passed, report


class TestSegLossOhem:
    def scores_for_ce(self, ce_values):
        """Two-channel score rows whose true-class CE is exactly ce_values."""
        rows = []
        for ce in ce_values:
            p = math.exp(-ce)
            rows.append([math.log(p), math.log1p(-p)])
        return np.array(rows, dtype=np.float64)

    def test_ratio_one_is_mean_ce(self):
        rng = np.random.default_rng(3)
        scores = ClassScoreMap(rng.standard_normal((5, 5, 4)))
        target = LabelGrid(rng.integers(0, 4, size=(5, 5)).astype(np.int32))
        loss, _ = seg_loss_of(scores, target, 1.0)
        probs = np.exp(scores.data - scores.data.max(axis=2, keepdims=True))
        probs /= probs.sum(axis=2, keepdims=True)
        ce = -np.log(probs.reshape(-1, 4)[np.arange(25), target.data.ravel()])
        assert loss == pytest.approx(ce.mean(), abs=1e-6)

    def test_top_one_selection(self):
        scores = ClassScoreMap(self.scores_for_ce([0.1, 2.3]).reshape(1, 2, 2))
        target = LabelGrid(np.zeros((1, 2), dtype=np.int32))
        loss, _ = seg_loss_of(scores, target, 0.5)
        assert loss == pytest.approx(2.3, abs=1e-9)

    def test_non_increasing_in_ratio(self):
        rng = np.random.default_rng(4)
        scores = ClassScoreMap(rng.standard_normal((6, 6, 3)))
        target = LabelGrid(rng.integers(0, 3, size=(6, 6)).astype(np.int32))
        values = [seg_loss_of(scores, target, r)[0] for r in (0.2, 0.5, 0.8, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_cutoff_ties_break_by_raster_order(self):
        # all CEs equal: the kept set must be the first ceil(r*N) raster pixels
        scores = ClassScoreMap(np.zeros((2, 3, 2)))
        target = LabelGrid(np.zeros((2, 3), dtype=np.int32))
        _, grad = seg_loss_of(scores, target, 0.5)
        contributing = np.abs(grad).sum(axis=2) > 0
        assert contributing.ravel().tolist() == [True, True, True, False, False, False]

    def test_gradient_matches_finite_differences_full_and_ohem(self):
        rng = np.random.default_rng(5)
        target = LabelGrid(rng.integers(0, 3, size=(4, 4)).astype(np.int32))
        for ratio in (1.0, 0.25):
            while True:
                scores0 = rng.standard_normal((4, 4, 3))
                probs = np.exp(scores0 - scores0.max(axis=2, keepdims=True))
                probs /= probs.sum(axis=2, keepdims=True)
                ce = -np.log(probs.reshape(-1, 3)[np.arange(16), target.data.ravel()])
                order = np.sort(ce)[::-1]
                k = math.ceil(ratio * 16)
                # resample when the OHEM cutoff is nearly tied
                if ratio == 1.0 or order[k - 1] - order[k] > 5e-2:
                    break

            def f(flat):
                loss, grad = seg_loss_of(
                    ClassScoreMap(flat.reshape(4, 4, 3)), target, ratio
                )
                return loss, grad.ravel()

            report = grad_check(f, scores0.ravel(), h=1e-3, tol=1e-4)
            assert report.passed, (ratio, report)

    def test_target_class_bounds(self):
        scores = ClassScoreMap(np.zeros((1, 1, 2)))
        with pytest.raises(LossError, match="exceeds"):
            seg_loss_of(scores, LabelGrid(np.array([[2]], dtype=np.int32)), 1.0)


class TestAffinityLoss:
    def test_positive_pair_literal_value(self):
        s = make_samples([1.0], [0.0])
        loss, _ = affinity_loss_of(s)
        assert loss == pytest.approx(2.0 - SIGMOID_1 - 0.5, abs=1e-9)
        assert loss == pytest.approx(0.76894, abs=1e-5)

    def test_negative_pair_literal_value(self):
        s = make_samples([0.0], [0.0])
        loss, _ = affinity_loss_of(s)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_saturated_logits_reach_analytic_floor(self):
        s = make_samples([1.0, 0.0], [30.0, -30.0])
        loss, _ = affinity_loss_of(s)
        floor = (1.0 - SIGMOID_1) + 0.5
        assert loss == pytest.approx(floor, abs=1e-6)
        assert loss == pytest.approx(0.26894 + 0.5, abs=1e-5)

    def test_floor_is_a_lower_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            targets = rng.integers(0, 2, size=n).astype(np.float64)
            s = make_samples(targets, rng.standard_normal(n) * 3)
            loss, _ = affinity_loss_of(s)
            floor = (1.0 - SIGMOID_1) * (s.n_pos > 0) + 0.5 * (s.n_neg > 0)
            assert loss >= floor - 1e-12

    def test_monotonicity(self):
        s = make_samples([1.0, 0.0], [0.3, -0.2])
        base, _ = affinity_loss_of(s)
        up_pos, _ = affinity_loss_of(s.with_logits(np.array([0.4, -0.2])))
        up_neg, _ = affinity_loss_of(s.with_logits(np.array([0.3, -0.1])))
        assert up_pos < base
        assert up_neg > base

    def test_empty_sample_set(self):
        s = make_samples([], [])
        with pytest.raises(LossError, match="empty sample set"):
            affinity_loss_of(s)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        targets = rng.integers(0, 2, size=12).astype(np.float64)
        logits0 = rng.standard_normal(12)
        base = make_samples(targets, logits0)

        def f(flat):
            loss, grad = affinity_loss_of(base.with_logits(flat))
            return loss, grad

        assert grad_check(f, logits0, h=1e-3, tol=1e-4).passed


class TestTotalLoss:
    def test_published_weights_sum(self):
        report = total_loss((1.0, 1.0, 1.0), LossWeights())
        assert report.total == pytest.approx(2.01, abs=1e-9)

    def test_zero_parts(self):
        assert total_loss((0, 0, 0), LossWeights()).total == 0.0

    def test_homogeneity(self):
        w1 = LossWeights()
        w2 = LossWeights(lambda_seg=2.0, lambda_off=0.02, lambda_aff=2.0)
        r1 = total_loss((0.3, 0.7, 1.1), w1)
        r2 = total_loss((0.3, 0.7, 1.1), w2)
        assert r2.total == pytest.approx(2 * r1.total)

    def test_invariant_total_equals_weighted_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            parts = tuple(rng.uniform(0, 3, size=3))
            w = LossWeights(
                lambda_seg=rng.uniform(0, 2),
                lambda_off=rng.uniform(0, 2),
                lambda_aff=rng.uniform(0, 2),
            )
            r = total_loss(parts, w)
            expected = w.lambda_seg * parts[0] + w.lambda_off * parts[1] + w.lambda_aff * parts[2]
            assert r.total == pytest.approx(expected, abs=1e-6)

    def test_weight_validation(self):
        with pytest.raises(LossError):
            LossWeights(lambda_seg=-1.0)
        with pytest.raises(LossError):
            LossWeights(hard_pixel_ratio=0.0)

    @pytest.mark.parametrize("name", ["lambda_seg", "lambda_off", "lambda_aff"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, name, value):
        with pytest.raises(LossError, match=f"{name} must be finite and >= 0"):
            LossWeights(**{name: value})


class TestGradCheck:
    def test_simple_polynomial(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        report = grad_check(f, np.array([3.0]), h=1e-3)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_detects_wrong_gradient(self):
        def f(x):
            return float(x[0] ** 2), np.array([3.0 * x[0]])

        assert not grad_check(f, np.array([3.0]), h=1e-3).passed
