import dataclasses
import math

import numpy as np
import pytest

from pointseg import (
    ClassScoreMap,
    LabelGrid,
    LossError,
    OffsetField,
    affinity_floor,
    affinity_loss,
    offset_loss,
    offset_target,
    ohem_target,
    seg_loss_ohem,
    smooth_l1,
    total_loss,
)
from pointseg.losses import (
    CE_PROB_FLOOR,
    LAMBDA_AFF,
    LAMBDA_OFF,
    LAMBDA_SEG,
    sigmoid,
    softmax_rows,
)

from gradcheck import grad_check

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))


def planes(data):
    """(H, W, C) pixel-major data as (C, H*W) channel planes."""
    return np.ascontiguousarray(data.reshape(-1, data.shape[-1]).T)


def scattered(columns, grad, shape):
    """A loss's gradient at some pixel columns, zero elsewhere, as (H, W, C)."""
    full = np.zeros((len(grad), shape[0] * shape[1]))
    full[:, columns] = grad
    return full.T.reshape(*shape, len(grad))


def offset_loss_of(pred, target):
    """offset_loss over two offset fields; the gradient as a full field."""
    vectors, index = offset_target(target)
    loss, grad = offset_loss(planes(pred.vectors), vectors, index)
    return loss, scattered(index, grad, pred.shape)


def seg_loss_of(scores, target, ratio):
    """seg_loss_ohem over a class score map and its target class grid; the
    gradient as a full score map."""
    index, n_keep = ohem_target(target.data, scores.channels, ratio)
    loss, kept, grad = seg_loss_ohem(planes(scores.data), index, n_keep)
    return loss, scattered(kept, grad, scores.data.shape[:2])


def affinity_loss_of(targets, logits):
    """affinity_loss over pair targets and the predictor's pair logits."""
    return affinity_loss(
        np.asarray(logits, dtype=np.float64),
        *affinity_floor(np.asarray(targets, dtype=np.float64)),
    )


def two_branch_sigmoid(x):
    """The logistic function evaluated on the two sign masks separately."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_equals_two_branch_form_bit_for_bit(self):
        rng = np.random.default_rng(12)
        edges = np.array([0.0, 1e-300, 710.0, 745.0, 1e308])
        for x in (rng.standard_normal(10**6) * 10, rng.standard_normal(10**5) * 800,
                  np.concatenate([edges, -edges])):
            got, want = sigmoid(x), two_branch_sigmoid(x)
            # Compared as bits, so signed zeros must match as well.
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def sigmoid_temporaries(x):
    """The sigmoid reference: one expression of fresh temporaries."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_temporaries(scores, axis=-1):
    """The softmax_rows reference: one expression of fresh temporaries."""
    planes = np.moveaxis(scores, axis, 0)
    top = planes[0]
    for plane in planes[1:]:
        top = np.maximum(top, plane)
    ex = np.exp(scores - np.expand_dims(top, axis))
    return ex / ex.sum(axis=axis, keepdims=True)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


EDGES = [745.0, -745.0, 1e308, -1e308, 0.0, -0.0, 1e-300, 36.7]


class TestInPlaceMatchesTemporaries:
    """sigmoid and softmax_rows compute in place; the floats are those of
    the reference expressions, and the argument is left as it was."""

    @pytest.mark.parametrize("x", [
        *EDGES,
        *(np.float64(v) for v in EDGES),
        np.array(-745.0),
        np.array(EDGES),
        np.random.default_rng(3).standard_normal(1000) * 800,
        np.random.default_rng(4).standard_normal((37, 29)) * 40,
        np.array(EDGES).reshape(2, 4).T,  # not contiguous
    ], ids=repr)
    def test_sigmoid(self, x):
        before = np.array(x, copy=True)
        got, want = sigmoid(x), sigmoid_temporaries(x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert bits(got) == bits(want)  # signed zeros too
        assert bits(x) == bits(before)

    def test_softmax_0d_raises_as_before(self):
        for fn in (softmax_rows, softmax_temporaries):
            with pytest.raises(np.exceptions.AxisError):
                fn(np.array(1.0))

    @pytest.mark.parametrize("x, axis", [
        (np.array(EDGES), -1),
        (np.array([3.0]), 0),
        (np.random.default_rng(5).standard_normal(9) * 30, 0),
        (np.random.default_rng(6).standard_normal((4, 4096)) * 50, 0),
        (np.random.default_rng(7).standard_normal((13, 11, 3)) * 50, -1),
        (np.array(EDGES).reshape(4, 2), 0),
        (np.array(EDGES).reshape(4, 2), -1),
        (np.array(EDGES).reshape(2, 4).T, 1),  # not contiguous
    ])
    def test_softmax_rows(self, x, axis):
        with np.errstate(over="ignore", invalid="ignore"):  # the ±1e308 rows
            before = x.copy()
            got, want = softmax_rows(x, axis), softmax_temporaries(x, axis)
        assert got.shape == want.shape and bits(got) == bits(want)
        assert bits(x) == bits(before)


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


def stable_sort_ohem(scores, target_index, n_keep):
    """seg_loss_ohem as it stood with a full softmax and a stable sort of the
    candidates: the oracle. It leaves scores as they were."""
    probs = softmax_rows(scores, axis=0)
    p_true = probs.take(target_index)
    ce = -np.log(np.maximum(p_true, CE_PROB_FLOOR))
    hardness = -ce
    cutoff = np.partition(hardness, n_keep - 1)[n_keep - 1]
    candidates = np.flatnonzero(hardness <= cutoff)
    kept = candidates[np.argsort(hardness[candidates], kind="stable")[:n_keep]]
    loss = float(ce[kept].mean())
    np.put(probs, target_index[kept], p_true[kept] - 1.0)
    return loss, kept, probs[:, kept] / n_keep


def ohem_cases():
    """(name, (C, N) score planes, target classes): scores whose CE values
    tie exactly inside the candidates, at the cutoff, everywhere, and nowhere."""
    rng = np.random.default_rng(11)
    yield "few_levels", rng.integers(-2, 3, size=(3, 500)).astype(np.float64), rng.integers(0, 3, 500)
    yield "all_equal", np.zeros((2, 37)), np.zeros(37, dtype=np.int64)
    # Repeated columns: every CE value occurs four times, in raster runs.
    cols = rng.standard_normal((4, 64))
    yield "repeated_columns", np.repeat(cols, 4, axis=1), np.repeat(rng.integers(0, 4, 64), 4)
    yield "distinct", rng.standard_normal((4, 1000)) * 3, rng.integers(0, 4, 1000)
    # Saturated pixels: p_true under the floor, so their CE values tie at -log(floor).
    far = rng.standard_normal((3, 300))
    far[0, ::3] = 800.0
    yield "floored", far, np.where(np.arange(300) % 3 == 0, 1, rng.integers(0, 3, 300))


class TestSegLossOhemMatchesStableSort:
    @pytest.mark.parametrize("case", list(ohem_cases()), ids=lambda case: case[0])
    @pytest.mark.parametrize("ratio", [0.05, 0.2, 0.5, 1.0])
    def test_loss_kept_and_gradient_bit_for_bit(self, case, ratio):
        _, scores, target = case
        index, n_keep = ohem_target(target, len(scores), ratio)
        want_loss, want_kept, want_grad = stable_sort_ohem(scores, index, n_keep)
        loss, kept, grad = seg_loss_ohem(scores.copy(), index, n_keep)
        assert bits(loss) == bits(want_loss)
        assert np.array_equal(kept, want_kept)
        assert grad.shape == want_grad.shape and bits(grad) == bits(want_grad)

    def test_ties_inside_the_candidates_keep_raster_order(self):
        _, scores, target = next(c for c in ohem_cases() if c[0] == "repeated_columns")
        index, n_keep = ohem_target(target, len(scores), 0.5)
        _, kept, _ = seg_loss_ohem(scores.copy(), index, n_keep)
        runs = kept.reshape(-1, 4)  # each tied run of four, in raster order
        assert (np.diff(runs, axis=1) == 1).all()

    def test_returns_do_not_alias_the_overwritten_scores(self):
        _, scores, target = next(ohem_cases())
        index, n_keep = ohem_target(target, len(scores), 0.2)
        work = scores.copy()
        _, kept, grad = seg_loss_ohem(work, index, n_keep)
        assert not np.array_equal(work, scores)  # scores is workspace
        assert not np.shares_memory(kept, work) and not np.shares_memory(grad, work)
        saved = kept.copy(), grad.copy()
        work[...] = np.nan  # the caller reuses its workspace
        assert np.array_equal(kept, saved[0]) and bits(grad) == bits(saved[1])


class TestAffinityLoss:
    def test_positive_pair_literal_value(self):
        loss, _ = affinity_loss_of([1.0], [0.0])
        assert loss == pytest.approx(2.0 - SIGMOID_1 - 0.5, abs=1e-9)
        assert loss == pytest.approx(0.76894, abs=1e-5)

    def test_negative_pair_literal_value(self):
        loss, _ = affinity_loss_of([0.0], [0.0])
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_saturated_logits_reach_analytic_floor(self):
        loss, _ = affinity_loss_of([1.0, 0.0], [30.0, -30.0])
        floor = (1.0 - SIGMOID_1) + 0.5
        assert loss == pytest.approx(floor, abs=1e-6)
        assert loss == pytest.approx(0.26894 + 0.5, abs=1e-5)

    def test_floor_is_a_lower_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            targets = rng.integers(0, 2, size=n).astype(np.float64)
            loss, _ = affinity_loss_of(targets, rng.standard_normal(n) * 3)
            n_pos = int(targets.sum())
            floor = (1.0 - SIGMOID_1) * (n_pos > 0) + 0.5 * (n_pos < n)
            assert loss >= floor - 1e-12

    def test_monotonicity(self):
        base, _ = affinity_loss_of([1.0, 0.0], [0.3, -0.2])
        up_pos, _ = affinity_loss_of([1.0, 0.0], [0.4, -0.2])
        up_neg, _ = affinity_loss_of([1.0, 0.0], [0.3, -0.1])
        assert up_pos < base
        assert up_neg > base

    def test_empty_sample_set(self):
        with pytest.raises(LossError, match="empty sample set"):
            affinity_loss_of([], [])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        targets = rng.integers(0, 2, size=12).astype(np.float64)
        logits0 = rng.standard_normal(12)

        def f(flat):
            loss, grad = affinity_loss_of(targets, flat)
            return loss, grad

        assert grad_check(f, logits0, h=1e-3, tol=1e-4).passed


class TestTotalLoss:
    def test_published_weights_sum(self):
        report = total_loss((1.0, 1.0, 1.0))
        assert report.total == pytest.approx(2.01, abs=1e-9)

    def test_zero_parts(self):
        assert total_loss((0, 0, 0)).total == 0.0

    def test_homogeneity(self):
        r1 = total_loss((0.3, 0.7, 1.1))
        r2 = total_loss((0.6, 1.4, 2.2))
        assert r2.total == pytest.approx(2 * r1.total)

    def test_as_dict_is_the_fields_in_order(self):
        r = total_loss((0.3, 0.7, 1.1), (5, 6, 7, 8))
        assert list(r.as_dict().items()) == [
            (f.name, getattr(r, f.name)) for f in dataclasses.fields(r)
        ]
        r.as_dict()["seg"] = 9.0  # a copy: the report is unchanged
        assert r.seg == 0.3

    def test_invariant_total_equals_weighted_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            parts = tuple(rng.uniform(0, 3, size=3))
            r = total_loss(parts)
            expected = LAMBDA_SEG * parts[0] + LAMBDA_OFF * parts[1] + LAMBDA_AFF * parts[2]
            assert r.total == pytest.approx(expected, abs=1e-6)


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
