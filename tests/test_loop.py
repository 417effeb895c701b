import math
from dataclasses import replace

import numpy as np
import pytest

from pointseg import (
    CorruptionConfig,
    GroupingConfig,
    I2SConfig,
    LabelGrid,
    LossWeights,
    MdmConfig,
    PipelineError,
    TinyPredictorParams,
    affinity_logits,
    build_affinity_targets,
    build_stage_targets,
    compute_offset_field,
    corrupt_semantic,
    expand_features,
    generate_scene,
    predict,
    run_mdm,
    run_stage,
    train_step,
)
from pointseg import loop
from pointseg.grids import ClassScoreMap, OffsetField
from pointseg.loop import _derive_seed, _fit, _logit_scale, objective_on_flat
from pointseg.losses import CE_PROB_FLOOR, sigmoid, smooth_l1, total_loss
from pointseg.synth import features_from_semantic


def small_scene(seed=1, h=16, w=16, n=2, classes=2):
    return generate_scene(seed, h, w, n, classes)


def make_cfg(**kw):
    defaults = dict(
        n_stages=2,
        warmup_iters=10,
        iters_per_stage=20,
        grouping=GroupingConfig(),
        i2s=I2SConfig(max_pairs=256),
        seed=3,
    )
    defaults.update(kw)
    return MdmConfig(**defaults)


class TestExpandFeatures:
    def test_shape_doubles_channels(self):
        feats = np.random.default_rng(0).standard_normal((4, 5, 3))
        assert expand_features(feats).shape == (20, 6)

    def test_interior_mean_is_nine_cell_average(self):
        feats = np.arange(25, dtype=np.float64).reshape(5, 5, 1)
        x = expand_features(feats).reshape(5, 5, 2)
        assert x[2, 2, 1] == pytest.approx(feats[1:4, 1:4, 0].mean())

    def test_border_mean_uses_in_grid_pixels_only(self):
        feats = np.ones((3, 3, 1))
        x = expand_features(feats).reshape(3, 3, 2)
        assert x[0, 0, 1] == pytest.approx(1.0)


class TestPredict:
    def test_zero_weights_zero_outputs(self):
        sc = small_scene()
        params = TinyPredictorParams.initialize(0, sc.features.shape[2], sc.n_classes)
        params = replace(
            params, weights=np.zeros_like(params.weights), biases=np.zeros_like(params.biases)
        )
        outs = predict(params, sc.features)
        assert (outs.class_map.data == 0).all()
        assert (outs.offsets.vectors == 0).all()
        assert (outs.embeddings == 0).all()
        samples = build_affinity_targets(sc.gt_instances, I2SConfig(max_pairs=16), seed=1)
        logits = affinity_logits(outs.embeddings, samples)
        assert (logits == 0).all()

    def test_deterministic(self):
        sc = small_scene()
        params = TinyPredictorParams.initialize(7, sc.features.shape[2], sc.n_classes)
        a = predict(params, sc.features)
        b = predict(params, sc.features)
        assert np.array_equal(a.class_map.data, b.class_map.data)
        assert np.array_equal(a.offsets.vectors, b.offsets.vectors)
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_head_separation(self):
        sc = small_scene()
        params = TinyPredictorParams.initialize(7, sc.features.shape[2], sc.n_classes)
        cls_sl, off_sl, emb_sl = params.head_slices()
        bumped = params.weights.copy()
        bumped[0, off_sl.start] += 0.5  # first offset column
        outs0 = predict(params, sc.features)
        outs1 = predict(replace(params, weights=bumped), sc.features)
        assert np.array_equal(outs0.class_map.data, outs1.class_map.data)
        assert np.array_equal(outs0.embeddings, outs1.embeddings)
        assert not np.array_equal(outs0.offsets.vectors, outs1.offsets.vectors)

    def test_shape_mismatch(self):
        sc = small_scene()
        params = TinyPredictorParams.initialize(0, sc.features.shape[2] + 1, sc.n_classes)
        with pytest.raises(PipelineError, match="fan-in"):
            predict(params, sc.features)

    def test_initialization_bounds(self):
        params = TinyPredictorParams.initialize(11, 6, 2)
        bound = 1.0 / math.sqrt(12)
        assert np.abs(params.weights).max() <= bound
        assert np.abs(params.biases).max() <= bound


class TestTrainStep:
    def targets_for(self, sc, semantic, cfg, with_affinity=True):
        return build_stage_targets(
            semantic, sc.points, cfg, affinity_seed=5 if with_affinity else None
        )

    def test_zero_learning_rate_keeps_params(self):
        sc = small_scene()
        cfg = make_cfg(learning_rate=0.0)
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        updated, report = train_step(params, sc.features, targets, cfg)
        assert np.array_equal(updated.weights, params.weights)
        assert np.array_equal(updated.biases, params.biases)
        assert report.total > 0

    def test_report_counts(self):
        sc = small_scene()
        cfg = make_cfg()
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        _, report = train_step(params, sc.features, targets, cfg)
        assert report.n_off_pixels == int(targets.offsets.valid.sum())
        assert report.n_pos_pairs + report.n_neg_pairs == len(targets.affinity)
        assert report.n_seg_pixels == math.ceil(0.2 * 16 * 16)

    def test_warmup_targets_have_no_affinity(self):
        sc = small_scene()
        cfg = make_cfg()
        targets = self.targets_for(sc, sc.gt_semantic, cfg, with_affinity=False)
        assert targets.affinity is None
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        _, report = train_step(params, sc.features, targets, cfg)
        assert report.aff == 0.0
        assert report.n_pos_pairs == report.n_neg_pairs == 0

    def test_loss_non_increasing_over_windows(self):
        # Over 20 seeded runs on a fixed tiny scene, the total loss must be
        # non-increasing across every 50-step window in at least 95% of runs.
        sc = small_scene(seed=9, h=12, w=12, n=2, classes=2)
        ok = 0
        for run_seed in range(20):
            cfg = make_cfg(seed=run_seed, iters_per_stage=1, warmup_iters=0)
            params = TinyPredictorParams.initialize(
                run_seed, sc.features.shape[2], sc.n_classes
            )
            targets = self.targets_for(sc, sc.gt_semantic, cfg)
            history = []
            for _ in range(120):
                params, report = train_step(params, sc.features, targets, cfg)
                history.append(report.total)
            windows_ok = all(
                history[t + 50] <= history[t] + 1e-9 for t in range(len(history) - 50)
            )
            ok += windows_ok
        assert ok >= 19

    def test_full_objective_gradient(self):
        sc = small_scene(seed=5, h=8, w=8, n=2, classes=2)
        cfg = make_cfg()
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        params = TinyPredictorParams.initialize(2, sc.features.shape[2], sc.n_classes)
        weights = LossWeights(hard_pixel_ratio=1.0)

        from pointseg import grad_check

        def f(flat):
            return objective_on_flat(flat, params, sc.features, targets, weights)

        report = grad_check(f, params.flatten(), h=1e-3, tol=1e-4)
        assert report.passed, report

    def test_divergence_detected(self):
        sc = small_scene()
        cfg = make_cfg()
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        params = replace(params, weights=params.weights * np.inf)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        with pytest.raises(PipelineError, match="diverged"):
            train_step(params, sc.features, targets, cfg)

    def test_divergence_names_phase_and_step(self):
        # A finite but far too large rate overflows; the run must stop at the
        # explicit checks, without a NumPy warning on the way.
        sc = small_scene()
        cfg = make_cfg(learning_rate=1e300)
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        with pytest.raises(PipelineError, match=r"^diverged: .* in stage 2, step \d+ of 9;"
                           r" try a lower learning rate \(--lr\)$"):
            _fit(params, sc.features, targets, cfg, 9, "stage 2")


class TestRunStage:
    def test_oracle_offsets_reproduce_gt(self):
        sc = generate_scene(21, 32, 32, 3, 3)
        cfg = make_cfg(iters_per_stage=5, warmup_iters=0)
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        oracle = compute_offset_field(sc.gt_instances, sc.points)
        result = run_stage(0, sc.gt_semantic, sc, params, cfg, offset_override=oracle)
        assert np.array_equal(result.pseudo_instances.data, sc.gt_instances.data)

    def test_semantic_out_classes_subset_of_point_classes(self):
        sc = generate_scene(22, 24, 24, 2, 3)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, rng_seed=5))
        cfg = make_cfg(iters_per_stage=30)
        params = TinyPredictorParams.initialize(3, sc.features.shape[2], sc.n_classes)
        result = run_stage(0, corr, sc, params, cfg)
        allowed = {0} | {p.class_id for p in sc.points}
        assert set(np.unique(result.semantic_out.data)) <= allowed

    def test_points_first_pin(self):
        sc = generate_scene(23, 24, 24, 3, 3)
        cfg = make_cfg(iters_per_stage=5)
        params = TinyPredictorParams.initialize(3, sc.features.shape[2], sc.n_classes)
        result = run_stage(0, sc.gt_semantic, sc, params, cfg)
        for p in sc.points:
            assert result.semantic_out.data[p.y, p.x] == p.class_id


class TestRunMdm:
    def test_single_stage_no_warmup(self):
        sc = small_scene(seed=31)
        cfg = make_cfg(n_stages=1, warmup_iters=0, iters_per_stage=10)
        res = run_mdm(sc, sc.gt_semantic, cfg)
        assert len(res.stages) == 1
        assert res.warmup_losses == []

    def test_deterministic_across_runs(self):
        sc = small_scene(seed=32)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, flip_rate=0.05, rng_seed=2))
        cfg = make_cfg()
        a = run_mdm(sc, corr, cfg)
        b = run_mdm(sc, corr, cfg)
        for sa, sb in zip(a.stages, b.stages):
            assert np.array_equal(sa.pseudo_instances.data, sb.pseudo_instances.data)
            assert np.array_equal(sa.semantic_out.data, sb.semantic_out.data)

    def test_stage_chaining_verbatim(self):
        sc = small_scene(seed=33)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, rng_seed=2))
        res = run_mdm(sc, corr, make_cfg())
        assert np.array_equal(res.stages[0].semantic_in.data, corr.data)
        assert np.array_equal(
            res.stages[1].semantic_in.data, res.stages[0].semantic_out.data
        )

    def test_warmup_never_touches_affinity(self):
        sc = small_scene(seed=34)
        res = run_mdm(sc, sc.gt_semantic, make_cfg(warmup_iters=5, n_stages=1))
        assert len(res.warmup_losses) == 5
        assert all(r.aff == 0.0 and r.n_pos_pairs == 0 for r in res.warmup_losses)

    def test_predictor_features_use_corrupted_semantic(self):
        sc = small_scene(seed=35)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=2, rng_seed=7))
        feats = features_from_semantic(sc, corr)
        assert np.array_equal(
            np.argmax(feats[:, :, : sc.n_classes + 1], axis=2), corr.data
        )

    def test_emitted_instances_are_self_consistent(self):
        sc = small_scene(seed=36)
        res = run_mdm(sc, sc.gt_semantic, make_cfg(n_stages=1))
        pseudo = res.final.pseudo_instances
        if int(pseudo.data.max()) > 0:
            samples = build_affinity_targets(pseudo, I2SConfig(max_pairs=128), seed=4)
            w = pseudo.width
            for q in range(len(samples)):
                ia = pseudo.data[samples.a[q, 0], samples.a[q, 1]]
                ib = pseudo.data[samples.b[q, 0], samples.b[q, 1]]
                assert samples.targets[q] == float(ia == ib and ia > 0)

    def test_metrics_attached_per_stage(self):
        sc = small_scene(seed=37)
        res = run_mdm(sc, sc.gt_semantic, make_cfg())
        for st in res.stages:
            assert st.metrics is not None
            assert 0.0 <= st.metrics.overall_iou <= 100.0


class TestMdmConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(PipelineError):
            MdmConfig(n_stages=0)
        with pytest.raises(PipelineError):
            MdmConfig(iters_per_stage=0)
        with pytest.raises(PipelineError):
            MdmConfig(warmup_iters=-1)

    @pytest.mark.parametrize("lr", [math.inf, -1.0, math.nan])
    def test_rejects_unusable_learning_rate(self, lr):
        with pytest.raises(PipelineError, match="learning rate must be finite and >= 0"):
            MdmConfig(learning_rate=lr)


# ---------------------------------------------------------------- reference
# The objective as it stood before its per-stage constants were built once
# per stage: validated types at every evaluation, pair indices rebuilt per
# call, and the embedding gradient scattered with two np.add.at calls. The
# training objective must reproduce it bit for bit.


def _ref_softmax_rows(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _ref_offset_loss(pred, target):
    valid = target.valid
    n = int(valid.sum())
    diff = pred.vectors - target.vectors
    value, deriv = smooth_l1(diff)
    per_pixel = value.sum(axis=2)[valid]
    grad = np.zeros_like(pred.vectors)
    grad[valid] = deriv[valid] / n
    return float(per_pixel.sum() / n), grad


def _ref_seg_loss_ohem(pred_scores, target_classes, ratio):
    h, w, ch = pred_scores.data.shape
    n = h * w
    probs = _ref_softmax_rows(pred_scores.data.reshape(n, ch))
    target = target_classes.data.ravel()
    p_true = probs[np.arange(n), target]
    ce = -np.log(np.maximum(p_true, CE_PROB_FLOOR))
    n_keep = int(math.ceil(ratio * n))
    kept = np.argsort(-ce, kind="stable")[:n_keep]
    loss = float(ce[kept].mean())
    grad_flat = np.zeros((n, ch), dtype=np.float64)
    grad_flat[kept] = probs[kept]
    grad_flat[kept, target[kept]] -= 1.0
    grad_flat[kept] /= n_keep
    return loss, grad_flat.reshape(h, w, ch)


def _ref_affinity_loss(samples):
    pos = samples.targets > 0.5
    n_pos = int(pos.sum())
    n_neg = len(samples) - n_pos
    s = sigmoid(samples.pred_logits)
    ds = s * (1.0 - s)
    loss = 0.0
    grad = np.zeros(len(samples), dtype=np.float64)
    if n_pos:
        loss += float(np.sum(2.0 - sigmoid(samples.targets[pos]) - s[pos]) / n_pos)
        grad[pos] = -ds[pos] / n_pos
    if n_neg:
        loss += float(np.sum(sigmoid(samples.targets[~pos]) + s[~pos]) / n_neg)
        grad[~pos] = ds[~pos] / n_neg
    return loss, grad


def _ref_offset_head(params, y, shape):
    h, w = shape
    _, off_sl, _ = params.head_slices()
    return OffsetField(
        params.offset_scale * y[:, off_sl].reshape(h, w, 2),
        np.ones((h, w), dtype=bool),
    )


def _ref_pair_logits(emb, ia, ib):
    return (emb[ia] * emb[ib]).sum(axis=-1) * _logit_scale(emb.shape[-1])


def _ref_pair_index(samples, width):
    ia = samples.a[:, 0].astype(np.int64) * width + samples.a[:, 1]
    ib = samples.b[:, 0].astype(np.int64) * width + samples.b[:, 1]
    return ia, ib


def _ref_objective(params, xmat, shape, targets, weights):
    h, w = shape
    y = xmat @ params.weights + params.biases
    if not np.all(np.isfinite(y)):
        raise PipelineError("diverged: predictor outputs are non-finite")
    cls_sl, off_sl, emb_sl = params.head_slices()
    d_y = np.zeros_like(y)

    scores = ClassScoreMap(y[:, cls_sl].reshape(h, w, -1))
    seg, g_seg = _ref_seg_loss_ohem(scores, targets.classes, weights.hard_pixel_ratio)
    n_seg = int(math.ceil(weights.hard_pixel_ratio * h * w))
    d_y[:, cls_sl] = weights.lambda_seg * g_seg.reshape(h * w, -1)

    off = 0.0
    n_off = 0
    if targets.offsets is not None:
        off, g_off = _ref_offset_loss(_ref_offset_head(params, y, shape), targets.offsets)
        n_off = int(targets.offsets.valid.sum())
        d_y[:, off_sl] = (
            weights.lambda_off * params.offset_scale * g_off.reshape(h * w, 2)
        )

    aff = 0.0
    n_pos = n_neg = 0
    if targets.affinity is not None:
        emb = y[:, emb_sl]
        ia, ib = _ref_pair_index(targets.affinity, w)
        filled = targets.affinity.with_logits(_ref_pair_logits(emb, ia, ib))
        aff, g_logit = _ref_affinity_loss(filled)
        n_pos, n_neg = filled.n_pos, filled.n_neg
        g_emb = np.zeros_like(emb)
        coeff = (weights.lambda_aff * _logit_scale(params.embed_dim)) * g_logit
        np.add.at(g_emb, ia, coeff[:, None] * emb[ib])
        np.add.at(g_emb, ib, coeff[:, None] * emb[ia])
        d_y[:, emb_sl] = g_emb

    report = total_loss((seg, off, aff), weights, (n_seg, n_off, n_pos, n_neg))
    grad_w = xmat.T @ d_y
    grad_b = d_y.sum(axis=0)
    return report, (grad_w, grad_b)


def _ref_fit(params, features, targets, cfg, iters):
    xmat = expand_features(features)
    history = []
    for _ in range(iters):
        report, (gw, gb) = _ref_objective(
            params, xmat, features.shape[:2], targets, cfg.loss_weights
        )
        params = replace(
            params,
            weights=params.weights - cfg.learning_rate * gw,
            biases=params.biases - cfg.learning_rate * gb,
        )
        history.append(report)
    return params, history


def _scene_64(seed):
    """A 64x64 scene and its corrupted semantic map, as `pointseg synth` makes them."""
    sc = generate_scene(seed, 64, 64, 4, 3)
    corr = corrupt_semantic(sc, CorruptionConfig(
        dilation_px=2, merge_adjacent=True, flip_rate=0.02, rng_seed=seed + 1,
    ))
    return replace(sc, features=features_from_semantic(sc, corr)), corr


def _targets_of_kind(sc, semantic, cfg, kind):
    if kind == "warm-up":
        return build_stage_targets(semantic, sc.points, cfg, affinity_seed=None)
    targets = build_stage_targets(
        semantic, sc.points, cfg, affinity_seed=_derive_seed(cfg.seed, 0, 1)
    )
    return targets if kind == "stage" else replace(targets, offsets=None)


TARGET_KINDS = ["warm-up", "stage", "no-offsets"]


class TestObjectiveMatchesReference:
    @pytest.mark.parametrize("seed", [100, 101])
    @pytest.mark.parametrize("kind", [*TARGET_KINDS, "tied"])
    def test_fit_bit_identical(self, seed, kind):
        sc, corr = _scene_64(seed)
        if kind == "tied":
            # Rounded features give many pixels equal scores, so the OHEM
            # cutoff falls inside runs of equal CE and the tie rule matters.
            sc, kind = replace(sc, features=np.round(sc.features)), "stage"
        cfg = MdmConfig()
        targets = _targets_of_kind(sc, corr, cfg, kind)
        assert (targets.affinity is None) == (kind == "warm-up")
        params = TinyPredictorParams.initialize(
            _derive_seed(cfg.seed, 0, 0), sc.features.shape[2], sc.n_classes
        )
        got, got_history = _fit(params, sc.features, targets, cfg, 50, kind)
        want, want_history = _ref_fit(params, sc.features, targets, cfg, 50)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.biases, want.biases)
        assert got_history == want_history


class TestLossNamesSeeEveryEvaluation:
    """The objective calls each loss through the name pointseg.loop imports,
    once per evaluation, so a wrapper rebound there sees every call."""

    NAMES = ("seg_loss_ohem", "offset_loss", "affinity_loss", "total_loss")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            original = getattr(loop, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(loop, name, counted)
        return counts

    def _setup(self, kind):
        sc = small_scene(seed=9)
        cfg = make_cfg()
        params = TinyPredictorParams.initialize(1, sc.features.shape[2], sc.n_classes)
        return sc, cfg, params, _targets_of_kind(sc, sc.gt_semantic, cfg, kind)

    @pytest.mark.parametrize("kind", TARGET_KINDS)
    def test_fit_calls_each_loss_once_per_step(self, calls, kind):
        sc, cfg, params, targets = self._setup(kind)
        _fit(params, sc.features, targets, cfg, 7, kind)
        assert calls == {
            "seg_loss_ohem": 7,
            "offset_loss": 7 if kind != "no-offsets" else 0,
            "affinity_loss": 7 if kind != "warm-up" else 0,
            "total_loss": 7,
        }

    def test_train_step_and_objective_on_flat_call_them(self, calls):
        sc, cfg, params, targets = self._setup("stage")
        train_step(params, sc.features, targets, cfg)
        objective_on_flat(params.flatten(), params, sc.features, targets, cfg.loss_weights)
        assert calls == dict.fromkeys(self.NAMES, 2)
