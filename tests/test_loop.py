import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pointseg import loop, s2i
from pointseg.errors import PipelineError, SceneError
from pointseg.grids import ClassScoreMap, LabelGrid, OffsetField, Point, PointAnnotationSet
from pointseg.i2s import I2SConfig, build_affinity_targets
from pointseg.loop import (
    OFFSET_OUTPUT_SCALE,
    MdmConfig,
    TinyPredictorParams,
    _derive_seed,
    _fit,
    _logit_scale,
    _Objective,
    _pair_logits,
    build_stage_targets,
    expand_features,
    predict,
    run_mdm,
    run_stage,
)
from pointseg.losses import (
    CE_PROB_FLOOR,
    LAMBDA_AFF,
    LAMBDA_OFF,
    LAMBDA_SEG,
    sigmoid,
    smooth_l1,
    total_loss,
)
from pointseg.s2i import compute_offset_field
from pointseg.synth import (
    CorruptionConfig,
    Scene,
    corrupt_semantic,
    features_from_semantic,
    generate_scene,
)

from gradcheck import grad_check


def small_scene(seed=1, h=16, w=16, n=2, classes=2):
    return generate_scene(seed, h, w, n, classes)


def gt_features(sc):
    """Predictor features built from the ground-truth semantic map."""
    return features_from_semantic(sc, sc.gt_semantic)


def _ref_expand_features(features):
    """Reference: each pixel's features and their 3x3 in-grid neighborhood
    means as an (H * W, 2F) matrix, expand_features without its ones
    channel, with the in-grid counts summed window by window."""
    feats = np.asarray(features, dtype=np.float64)
    h, w, f = feats.shape
    padded = np.zeros((h + 2, w + 2, f), dtype=np.float64)
    padded[1:-1, 1:-1] = feats
    ones = np.zeros((h + 2, w + 2), dtype=np.float64)
    ones[1:-1, 1:-1] = 1.0
    acc = np.zeros((h, w, f), dtype=np.float64)
    cnt = np.zeros((h, w), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + h, dx : dx + w]
            cnt += ones[dy : dy + h, dx : dx + w]
    means = acc / cnt[:, :, None]
    return np.concatenate([feats, means], axis=2).reshape(h * w, 2 * f)


def _ref_feature_planes(features):
    """_ref_expand_features' columns and a closing channel of ones, as (H, W, 2F + 1)."""
    x = np.pad(_ref_expand_features(features), ((0, 0), (0, 1)), constant_values=1.0)
    return x.reshape(*features.shape[:2], -1)


def flatten(params):
    return params.theta.ravel()


def objective_on_flat(flat, template, features, targets, hard_pixel_ratio):
    """The training objective and its gradient as functions of the flat
    parameter vector (see flatten), the form the finite-difference checker
    drives."""
    params = replace(template, theta=flat.reshape(template.theta.shape))
    objective = _Objective(template, expand_features(features), targets, hard_pixel_ratio)
    report, grad = objective(params)
    return report.total, grad.ravel()


def moved(params):
    """Other parameters of the same shape."""
    return replace(params, theta=params.theta * 1.5 - 0.1)


def make_cfg(**kw):
    defaults = dict(
        n_stages=2,
        warmup_iters=10,
        iters_per_stage=20,
        i2s=I2SConfig(max_pairs=256),
        seed=3,
    )
    defaults.update(kw)
    return MdmConfig(**defaults)


FEATURE_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9), (16, 16), (33, 64)]


class TestExpandFeatures:
    def test_shape_doubles_channels(self):
        feats = np.random.default_rng(0).standard_normal((4, 5, 3))
        assert expand_features(feats).shape == (4, 5, 7)

    def test_interior_mean_is_nine_cell_average(self):
        feats = np.arange(25, dtype=np.float64).reshape(5, 5, 1)
        x = expand_features(feats)
        assert x[2, 2, 1] == pytest.approx(feats[1:4, 1:4, 0].mean())

    def test_border_mean_uses_in_grid_pixels_only(self):
        feats = np.ones((3, 3, 1))
        x = expand_features(feats)
        assert x[0, 0, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", FEATURE_SHAPES)
    def test_bit_identical_to_two_step_reference_on_integers(self, shape):
        # Integer sums are exact in any order, so the box sums and the
        # reference's nine adds give the same bits, and a wrong window or
        # count shows; a -0.0 feature adds into +0.0 means either way.
        rng = np.random.default_rng([*shape])
        feats = rng.integers(-1000, 1000, (*shape, 5)).astype(np.float64)
        feats[rng.random(feats.shape) < 0.2] = -0.0
        got = expand_features(feats)
        want = _ref_feature_planes(feats)
        assert got.shape == want.shape == (*shape, 11)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", FEATURE_SHAPES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_within_rounding_of_two_step_reference(self, shape, scale):
        # Prefix sums round apart from the nine adds: the means agree within
        # 4 eps of the largest feature, the features and the ones exactly.
        rng = np.random.default_rng([*shape, int(math.log10(scale)) + 3])
        feats = scale * rng.standard_normal((*shape, 5))
        got = expand_features(feats)
        want = _ref_feature_planes(feats)
        assert got.shape == want.shape == (*shape, 11)
        assert np.array_equal(got[:, :, :5], feats) and (got[:, :, -1] == 1.0).all()
        tol = 4 * np.finfo(np.float64).eps * np.abs(feats).max()
        assert np.abs(got - want).max() <= tol


class TestPredict:
    def test_zero_weights_zero_outputs(self):
        sc = small_scene()
        feats = gt_features(sc)
        params = TinyPredictorParams.initialize(0, feats.shape[2], sc.n_classes)
        params = replace(params, theta=np.zeros_like(params.theta))
        outs = predict(params, expand_features(feats))
        assert (outs.class_map.data == 0).all()
        assert (outs.offsets.vectors == 0).all()
        assert (outs.embeddings == 0).all()
        samples = build_affinity_targets(sc.gt_instances, I2SConfig(max_pairs=16), seed=1)
        emb = outs.embeddings.reshape(-1, loop.EMBED_DIM)
        logits = _pair_logits(emb[samples.a].T, emb[samples.b].T)
        assert len(logits) == len(samples) and (logits == 0).all()

    def test_deterministic(self):
        sc = small_scene()
        feats = gt_features(sc)
        params = TinyPredictorParams.initialize(7, feats.shape[2], sc.n_classes)
        a = predict(params, expand_features(feats))
        b = predict(params, expand_features(feats))
        assert np.array_equal(a.class_map.data, b.class_map.data)
        assert np.array_equal(a.offsets.vectors, b.offsets.vectors)
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_head_separation(self):
        sc = small_scene()
        feats = gt_features(sc)
        params = TinyPredictorParams.initialize(7, feats.shape[2], sc.n_classes)
        cls_sl, off_sl, emb_sl = params.head_slices()
        bumped = params.theta.copy()
        bumped[0, off_sl.start] += 0.5  # first offset column
        outs0 = predict(params, expand_features(feats))
        outs1 = predict(replace(params, theta=bumped), expand_features(feats))
        assert np.array_equal(outs0.class_map.data, outs1.class_map.data)
        assert np.array_equal(outs0.embeddings, outs1.embeddings)
        assert not np.array_equal(outs0.offsets.vectors, outs1.offsets.vectors)

    def test_shape_mismatch(self):
        sc = small_scene()
        feats = gt_features(sc)
        params = TinyPredictorParams.initialize(0, feats.shape[2] + 1, sc.n_classes)
        with pytest.raises(PipelineError, match="fan-in"):
            predict(params, expand_features(feats))

    def test_initialization_bounds(self):
        params = TinyPredictorParams.initialize(11, 6, 2)
        bound = 1.0 / math.sqrt(12)
        assert params.theta.shape == (13, 3 + 2 + loop.EMBED_DIM)
        assert np.abs(params.theta).max() <= bound


class TestTrainStep:
    def targets_for(self, sc, semantic, cfg, with_affinity=True):
        # The warm-up trains on stage 0's targets without their pairs.
        targets = build_stage_targets(semantic, sc.points, cfg, affinity_seed=5)
        return targets if with_affinity else replace(targets, affinity=None)

    def test_zero_learning_rate_keeps_params(self):
        sc = small_scene()
        feats = gt_features(sc)
        cfg = make_cfg(learning_rate=0.0)
        params = TinyPredictorParams.initialize(1, feats.shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        updated, (report,) = _fit(params, expand_features(feats), targets, cfg, 1, "stage 0")
        assert np.array_equal(updated.theta, params.theta)
        assert report.total > 0

    def test_report_counts(self):
        sc = small_scene()
        cfg = make_cfg()
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        _, (report,) = _fit(params, expand_features(gt_features(sc)), targets, cfg, 1, "stage 0")
        assert report.n_off_pixels == int(targets.offsets.valid.sum())
        assert report.n_pos_pairs + report.n_neg_pairs == len(targets.affinity)
        assert report.n_seg_pixels == math.ceil(0.2 * 16 * 16)

    def test_warmup_targets_have_no_affinity(self):
        sc = small_scene()
        cfg = make_cfg()
        targets = self.targets_for(sc, sc.gt_semantic, cfg, with_affinity=False)
        assert targets.affinity is None
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        _, (report,) = _fit(params, expand_features(gt_features(sc)), targets, cfg, 1, "warm-up")
        assert report.aff == 0.0
        assert report.n_pos_pairs == report.n_neg_pairs == 0

    def test_loss_non_increasing_over_windows(self):
        # Over 20 seeded runs on a fixed tiny scene, the total loss must be
        # non-increasing across every 50-step window in at least 95% of runs.
        sc = small_scene(seed=9, h=12, w=12, n=2, classes=2)
        feats = gt_features(sc)
        ok = 0
        for run_seed in range(20):
            cfg = make_cfg(seed=run_seed, iters_per_stage=1, warmup_iters=0)
            params = TinyPredictorParams.initialize(run_seed, feats.shape[2], sc.n_classes)
            targets = self.targets_for(sc, sc.gt_semantic, cfg)
            _, reports = _fit(params, expand_features(feats), targets, cfg, 120, "stage 0")
            history = [report.total for report in reports]
            windows_ok = all(
                history[t + 50] <= history[t] + 1e-9 for t in range(len(history) - 50)
            )
            ok += windows_ok
        assert ok >= 19

    def test_full_objective_gradient(self):
        sc = small_scene(seed=5, h=8, w=8, n=2, classes=2)
        feats = gt_features(sc)
        cfg = make_cfg()
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        params = TinyPredictorParams.initialize(2, feats.shape[2], sc.n_classes)

        def f(flat):
            return objective_on_flat(flat, params, feats, targets, 1.0)

        report = grad_check(f, flatten(params), h=1e-3, tol=1e-4)
        assert report.passed, report

    def test_divergence_detected(self):
        sc = small_scene()
        cfg = make_cfg()
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        params = replace(params, theta=params.theta * np.inf)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        with pytest.raises(PipelineError, match="diverged"):
            _fit(params, expand_features(gt_features(sc)), targets, cfg, 1, "stage 0")

    def test_divergence_names_phase_and_step(self):
        # A finite but far too large rate overflows; the run must stop at the
        # explicit checks, without a NumPy warning on the way.
        sc = small_scene()
        cfg = make_cfg(learning_rate=1e300)
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        targets = self.targets_for(sc, sc.gt_semantic, cfg)
        with pytest.raises(PipelineError, match=r"^diverged: .* in stage 2, step \d+ of 9;"
                           r" try a lower learning rate \(--lr\)$"):
            _fit(params, expand_features(gt_features(sc)), targets, cfg, 9, "stage 2")

    def test_divergence_after_the_last_step(self):
        # No evaluation follows a phase's last update; the stage's predict and
        # refresh meet its non-finite outputs, with no NumPy warning.
        sc = small_scene()
        cfg = make_cfg(learning_rate=1e300, iters_per_stage=1)
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        with pytest.raises(PipelineError, match=r"^diverged: .* in stage 0, after its last step;"
                           r" try a lower learning rate \(--lr\)$"):
            stage_0(sc, sc.gt_semantic, params, cfg)


def stage_0(sc, semantic, params, cfg):
    """run_stage 0 on the targets run_mdm builds for it."""
    targets = build_stage_targets(
        loop._points_first(semantic, sc.points), sc.points, cfg, _derive_seed(cfg.seed, 0, 1)
    )
    return run_stage(0, semantic, targets, expand_features(gt_features(sc)), sc.points, params, cfg)


class TestRunStage:
    def test_oracle_offsets_reproduce_gt(self, monkeypatch):
        # The stage groups whatever offsets its predictor returns; an oracle
        # in their place must give back the ground truth.
        sc = generate_scene(21, 32, 32, 3, 3)
        cfg = make_cfg(iters_per_stage=5, warmup_iters=0)
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        oracle = compute_offset_field(sc.gt_instances, sc.points)
        real_predict = loop.predict
        monkeypatch.setattr(
            loop, "predict", lambda p, f: replace(real_predict(p, f), offsets=oracle)
        )
        result = stage_0(sc, sc.gt_semantic, params, cfg)
        assert np.array_equal(result.pseudo_instances.data, sc.gt_instances.data)

    def test_semantic_out_classes_subset_of_point_classes(self):
        sc = generate_scene(22, 24, 24, 2, 3)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, rng_seed=5))
        cfg = make_cfg(iters_per_stage=30)
        params = TinyPredictorParams.initialize(3, gt_features(sc).shape[2], sc.n_classes)
        result = stage_0(sc, corr, params, cfg)
        allowed = {0} | {p.class_id for p in sc.points}
        assert set(np.unique(result.semantic_out.data)) <= allowed

    def test_points_first_pin(self):
        sc = generate_scene(23, 24, 24, 3, 3)
        cfg = make_cfg(iters_per_stage=5)
        params = TinyPredictorParams.initialize(3, gt_features(sc).shape[2], sc.n_classes)
        result = stage_0(sc, sc.gt_semantic, params, cfg)
        for p in sc.points:
            assert result.semantic_out.data[p.y, p.x] == p.class_id


class TestRunMdm:
    def test_scene_without_points_raises_before_any_target_build(self, monkeypatch):
        zeros = LabelGrid(np.zeros((16, 16), dtype=np.int32))
        sc = Scene(zeros, zeros, PointAnnotationSet(()), np.zeros((16, 16)), 2)
        monkeypatch.setattr(loop, "build_stage_targets", lambda *a, **k: pytest.fail("built"))
        with pytest.raises(SceneError, match="no annotated point"):
            run_mdm(sc, small_scene().gt_semantic, make_cfg())

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
            flat = pseudo.data.ravel()
            for q in range(len(samples)):
                ia, ib = flat[samples.a[q]], flat[samples.b[q]]
                assert samples.targets[q] == float(ia == ib and ia > 0)

    def test_metrics_attached_per_stage(self):
        sc = small_scene(seed=37)
        res = run_mdm(sc, sc.gt_semantic, make_cfg())
        for st in res.stages:
            assert st.metrics is not None
            assert 0.0 <= st.metrics.overall_iou <= 100.0

    @pytest.mark.parametrize("warmup_iters", [0, 2])
    def test_features_expanded_once_per_run(self, monkeypatch, warmup_iters):
        # Every phase's objective and every stage's predict read one set of planes.
        calls = []
        real = loop.expand_features
        monkeypatch.setattr(loop, "expand_features", lambda f: calls.append(f.shape) or real(f))
        sc = small_scene(seed=38)
        run_mdm(sc, sc.gt_semantic, make_cfg(n_stages=3, warmup_iters=warmup_iters,
                                               iters_per_stage=2))
        assert calls == [(16, 16, sc.n_classes + 4)]

    @pytest.mark.parametrize("warmup_iters", [0, 2])
    def test_one_target_build_per_stage_one_labelling_per_build(self, monkeypatch, warmup_iters):
        # Three classes, so a per-class labelling would run three times a build.
        sc = generate_scene(24, 32, 32, 6, 3)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, flip_rate=0.05, rng_seed=3))
        assert set(np.unique(corr.data)) == {0, 1, 2, 3}
        calls = []
        for module, name in ((loop, "build_stage_targets"), (s2i, "connected_components")):
            def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        cfg = make_cfg(n_stages=3, warmup_iters=warmup_iters, iters_per_stage=2)
        res = run_mdm(sc, corr, cfg)
        assert calls == ["build_stage_targets", "connected_components"] * cfg.n_stages
        assert len(res.warmup_losses) == warmup_iters


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

    def test_rejects_bad_hard_pixel_ratio(self):
        for ratio in (0.0, 1.5, math.nan):
            with pytest.raises(PipelineError, match=r"hard pixel ratio must be in \(0, 1\]"):
                MdmConfig(hard_pixel_ratio=ratio)

    def test_rejects_negative_seed(self):
        with pytest.raises(PipelineError, match="seed must be >= 0, got -1"):
            MdmConfig(seed=-1)


class TestBuildStageTargets:
    def test_ignored_point_warns_once(self, caplog):
        # Point 2 (class 2) lies in a class-1 region: one target build
        # matches the points to the regions once, so it is reported once.
        sem = LabelGrid(np.ones((4, 4), dtype=np.int32))
        pts = PointAnnotationSet((Point(0, 0, 1, 1), Point(3, 3, 2, 2)))
        with caplog.at_level("WARNING"):
            targets = build_stage_targets(sem, pts, make_cfg(), affinity_seed=1)
        assert [r.message for r in caplog.records] == [
            "point (3, 3) ignored: class 2 region 1 has class 1"
        ]
        assert targets.regions.owners == {1: (1,)}

    def test_no_matched_point_raises(self):
        # Point 1's pixel is background: no region matches, so there are no
        # pairs to draw, and no empty targets come back.
        sem = LabelGrid(np.pad(np.ones((3, 3), dtype=np.int32), 2))
        pts = PointAnnotationSet((Point(0, 0, 1, 1),))
        with pytest.raises(PipelineError, match="no affinity pairs"):
            build_stage_targets(sem, pts, make_cfg(), affinity_seed=1)


def two_squares_scene():
    """Two 12x12 class-1 squares three columns apart, a point in each, and
    the corrupted map with point 1's own pixel flipped to background."""
    gt = np.zeros((32, 32), dtype=np.int32)
    gt[2:14, 2:14], gt[2:14, 17:29] = 1, 2
    pts = PointAnnotationSet((Point(7, 12, 1, 1), Point(7, 22, 1, 2)))
    sc = Scene(LabelGrid(gt), LabelGrid((gt > 0).astype(np.int32)), pts, np.zeros((32, 32)), 1)
    corrupted = (gt > 0).astype(np.int32)
    corrupted[7, 12] = 0
    return sc, LabelGrid(corrupted)


class TestPinnedTargets:
    def test_flipped_point_keeps_its_instance_and_spares_its_neighbour(self, monkeypatch):
        sc, corr = two_squares_scene()
        built = []
        real_build = loop.build_stage_targets

        def spy(semantic_in, points, cfg, affinity_seed):
            built.append(semantic_in)
            return real_build(semantic_in, points, cfg, affinity_seed)

        monkeypatch.setattr(loop, "build_stage_targets", spy)
        res = run_mdm(sc, corr, make_cfg(n_stages=2, warmup_iters=1, iters_per_stage=1))
        # Both stages build targets, each from a pinned map; the warm-up
        # reuses stage 0's.
        assert len(built) == 2
        for semantic in built:
            assert all(semantic.data[p.y, p.x] == p.class_id for p in sc.points)
        initial = res.stages[0].initial_instances.data
        assert 1 in res.stages[0].initial_instances.ids()
        assert np.array_equal(initial == 2, sc.gt_instances.data == 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_pseudo_pixels_keep_their_class_in_the_unpinned_input(self, seed):
        # What perfbench's check_train asks of each stage's outputs: stage 0
        # is masked by the corrupted map itself, not by its pinned copy.
        sc = generate_scene(seed + 40, 32, 32, 4, 3)
        corr = corrupt_semantic(sc, CorruptionConfig(dilation_px=1, flip_rate=0.1,
                                                     rng_seed=seed))
        lut = sc.points.class_table()
        semantic_in = corr
        for stage in run_mdm(sc, corr, make_cfg(n_stages=2, iters_per_stage=5)).stages:
            pseudo = stage.pseudo_instances.data
            fg = pseudo > 0
            assert np.array_equal(semantic_in.data[fg], lut[pseudo[fg]])
            semantic_in = stage.semantic_out

    def test_adjacent_points_of_two_classes_both_keep_an_instance(self):
        # Each point lies inside the other's pin patch; the pin must not let
        # point 2's patch overwrite point 1's own pixel.
        gt = np.zeros((12, 12), dtype=np.int32)
        gt[2:10, 1:5], gt[2:10, 5:11] = 1, 2
        pts = PointAnnotationSet((Point(5, 4, 1, 1), Point(5, 5, 2, 2)))
        semantic = LabelGrid(gt)  # instance k has class k
        sc = Scene(semantic, semantic, pts, np.zeros((12, 12)), 2)
        pinned = loop._points_first(semantic, pts)
        assert [pinned.data[p.y, p.x] for p in pts] == [1, 2]
        res = run_mdm(sc, semantic, make_cfg(n_stages=2, warmup_iters=1, iters_per_stage=1))
        for stage in res.stages:
            assert stage.initial_instances.ids() == [1, 2]
            assert stage.pseudo_instances.ids() == [1, 2]


# ---------------------------------------------------------------- reference
# The objective as it stood before its per-stage constants were built once
# per stage and before it went channel-first: pixel-major (N, K) outputs,
# validated types at every evaluation, pair indices rebuilt per call, the
# embedding gradient scattered with two np.add.at calls, and the parameter
# gradient taken from the full (N, K) output gradient. The training objective
# sums some quantities in another order, so it must agree with this one to
# rounding, and the labels of a whole run must not move.


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


def _ref_affinity_loss(logits, targets):
    pos = targets > 0.5
    n_pos = int(pos.sum())
    n_neg = len(targets) - n_pos
    s = sigmoid(logits)
    ds = s * (1.0 - s)
    loss = 0.0
    grad = np.zeros(len(targets), dtype=np.float64)
    if n_pos:
        loss += float(np.sum(2.0 - sigmoid(targets[pos]) - s[pos]) / n_pos)
        grad[pos] = -ds[pos] / n_pos
    if n_neg:
        loss += float(np.sum(sigmoid(targets[~pos]) + s[~pos]) / n_neg)
        grad[~pos] = ds[~pos] / n_neg
    return loss, grad, n_pos, n_neg


def _ref_offset_head(params, y, shape):
    h, w = shape
    _, off_sl, _ = params.head_slices()
    return OffsetField(
        OFFSET_OUTPUT_SCALE * y[:, off_sl].reshape(h, w, 2),
        np.ones((h, w), dtype=bool),
    )


def _ref_pair_logits(emb, ia, ib):
    return (emb[ia] * emb[ib]).sum(axis=-1) * _logit_scale(emb.shape[-1])


class _RefObjective:
    """_ref_objective behind the training objective's interface."""

    def __init__(self, template, x, targets, hard_pixel_ratio):
        # The feature planes without their ones channel: _ref_expand_features' matrix.
        self.xmat = np.ascontiguousarray(x.reshape(-1, x.shape[2])[:, :-1])
        self.shape = x.shape[:2]
        self.targets, self.ratio = targets, hard_pixel_ratio

    def __call__(self, params):
        report, grads = _ref_objective(params, self.xmat, self.shape, self.targets, self.ratio)
        return report, np.vstack(grads)


def _ref_refresh(affinity, class_map, cfg):
    """The window refresh in its former order: every ordered offset from
    (-r, -r) to (r, r), one call and one add per offset."""
    h, w, _ = class_map.data.shape
    planes = np.ascontiguousarray(class_map.data.transpose(2, 0, 1))
    acc = planes.copy()
    wsum = np.ones((h, w))
    r = cfg.pair_radius
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if (dy == 0 and dx == 0) or abs(dy) >= h or abs(dx) >= w:
                continue
            win_i = (slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx)))
            win_j = (slice(max(0, dy), h + min(0, dy)), slice(max(0, dx), w + min(0, dx)))
            vals = np.asarray(affinity(win_i, win_j), dtype=np.float64) ** cfg.beta
            vals = vals.reshape(h - abs(dy), w - abs(dx))
            acc[(slice(None), *win_i)] += vals * planes[(slice(None), *win_j)]
            wsum[win_i] += vals
    return ClassScoreMap((acc / wsum).transpose(1, 2, 0))


def _ref_objective(params, xmat, shape, targets, ratio):
    h, w = shape
    y = xmat @ params.theta[:-1] + params.theta[-1]
    if not np.all(np.isfinite(y)):
        raise PipelineError("diverged: predictor outputs are non-finite")
    cls_sl, off_sl, emb_sl = params.head_slices()
    d_y = np.zeros_like(y)

    scores = ClassScoreMap(y[:, cls_sl].reshape(h, w, -1))
    seg, g_seg = _ref_seg_loss_ohem(scores, targets.classes, ratio)
    n_seg = int(math.ceil(ratio * h * w))
    d_y[:, cls_sl] = LAMBDA_SEG * g_seg.reshape(h * w, -1)

    off, g_off = _ref_offset_loss(_ref_offset_head(params, y, shape), targets.offsets)
    n_off = int(targets.offsets.valid.sum())
    d_y[:, off_sl] = LAMBDA_OFF * OFFSET_OUTPUT_SCALE * g_off.reshape(h * w, 2)

    aff = 0.0
    n_pos = n_neg = 0
    if targets.affinity is not None:
        emb = y[:, emb_sl]
        ia, ib = targets.affinity.a, targets.affinity.b
        aff, g_logit, n_pos, n_neg = _ref_affinity_loss(
            _ref_pair_logits(emb, ia, ib), targets.affinity.targets
        )
        g_emb = np.zeros_like(emb)
        coeff = (LAMBDA_AFF * _logit_scale(loop.EMBED_DIM)) * g_logit
        np.add.at(g_emb, ia, coeff[:, None] * emb[ib])
        np.add.at(g_emb, ib, coeff[:, None] * emb[ia])
        d_y[:, emb_sl] = g_emb

    report = total_loss((seg, off, aff), (n_seg, n_off, n_pos, n_neg))
    grad_w = xmat.T @ d_y
    grad_b = d_y.sum(axis=0)
    return report, (grad_w, grad_b)


def _ref_fit(params, features, targets, cfg, iters):
    """Adam as Algorithm 1 of Kingma & Ba (ICLR 2015) states it, one
    parameter array at a time, over the reference objective."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    xmat = _ref_expand_features(features)
    theta = {"weights": params.theta[:-1], "biases": params.theta[-1]}
    m = {name: np.zeros_like(p) for name, p in theta.items()}
    v = {name: np.zeros_like(p) for name, p in theta.items()}
    history = []
    for t in range(1, iters + 1):
        report, (gw, gb) = _ref_objective(
            replace(params, theta=np.vstack(list(theta.values()))), xmat, features.shape[:2], targets, cfg.hard_pixel_ratio
        )
        for name, g in (("weights", gw), ("biases", gb)):
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g**2
            m_hat = m[name] / (1 - beta1**t)
            v_hat = v[name] / (1 - beta2**t)
            theta[name] = theta[name] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        history.append(report)
    return replace(params, theta=np.vstack(list(theta.values()))), history


def _synth_scene(seed, size=64):
    """A size x size scene (64x64 by default) of 4 instances and 3 classes,
    its semantic map under `pointseg synth`'s default corruption, and the
    predictor features run_mdm builds from them."""
    sc = generate_scene(seed, size, size, 4, 3)
    corr = corrupt_semantic(sc, CorruptionConfig(
        dilation_px=2, merge_adjacent=True, flip_rate=0.02, rng_seed=seed + 1,
    ))
    return sc, corr, features_from_semantic(sc, corr)


def _targets_of_kind(sc, semantic, cfg, kind):
    targets = build_stage_targets(
        semantic, sc.points, cfg, affinity_seed=_derive_seed(cfg.seed, 0, 1)
    )
    return replace(targets, affinity=None) if kind == "warm-up" else targets


TARGET_KINDS = ["warm-up", "stage"]


def _close(got, want, rel=1e-12):
    """got within rel of want, relative to want's largest magnitude."""
    return np.abs(np.asarray(got) - want).max() <= rel * np.abs(want).max()


class TestObjectiveMatchesReference:
    @pytest.mark.parametrize("seed", [100, 101])
    @pytest.mark.parametrize("kind", [*TARGET_KINDS, "tied"])
    def test_within_1e12_of_reference(self, seed, kind):
        sc, corr, feats = _synth_scene(seed)
        if kind == "tied":
            # Rounded features give many pixels equal scores, so the OHEM
            # cutoff falls inside runs of equal CE and the tie rule matters.
            feats, kind = np.round(feats), "stage"
        cfg = MdmConfig()
        targets = _targets_of_kind(sc, corr, cfg, kind)
        assert (targets.affinity is None) == (kind == "warm-up")
        initial = TinyPredictorParams.initialize(
            _derive_seed(cfg.seed, 0, 0), feats.shape[2], sc.n_classes
        )
        trained, _ = _ref_fit(initial, feats, targets, cfg, 50)
        x = expand_features(feats)
        objective = _Objective(initial, x, targets, cfg.hard_pixel_ratio)
        # The reference reads the same feature planes, so its sums stay in
        # the objective's order; TestExpandFeatures checks the planes.
        xmat = x[:, :, :-1].reshape(-1, x.shape[2] - 1)
        for params in (initial, trained):
            got, grad = objective(params)
            gw, gb = grad[:-1], grad[-1]
            want, (want_w, want_b) = _ref_objective(
                params, xmat, feats.shape[:2], targets, cfg.hard_pixel_ratio
            )
            # Still summed in the reference order: the outputs, the softmax,
            # the OHEM selection and the segmentation loss, the offset loss,
            # and the counts. The pair logits (a sum over the embedding
            # channels) and every gradient sum in another order.
            assert got.seg == want.seg and got.off == want.off
            assert got.as_dict().keys() == want.as_dict().keys()
            assert (got.n_seg_pixels, got.n_off_pixels, got.n_pos_pairs, got.n_neg_pairs) == (
                want.n_seg_pixels, want.n_off_pixels, want.n_pos_pairs, want.n_neg_pairs)
            if kind == "warm-up":
                assert got.aff == want.aff == 0.0 and got.total == want.total
            assert _close(got.aff, want.aff) and _close(got.total, want.total)
            assert gw.shape == want_w.shape and gb.shape == want_b.shape
            assert _close(gw, want_w) and _close(gb, want_b)


class TestLabelsMatchReference:
    """A whole default-config run at 64x64 gives the same labels as one
    with the reference objective and the refresh in its former order."""

    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_run_mdm_labels_identical(self, seed, monkeypatch):
        sc, corr, _ = _synth_scene(seed)
        cfg = MdmConfig(seed=seed)
        got = run_mdm(sc, corr, cfg)
        monkeypatch.setattr(loop, "_Objective", _RefObjective)
        monkeypatch.setattr(loop, "refresh_semantic", _ref_refresh)
        want = run_mdm(sc, corr, cfg)
        assert len(got.stages) == len(want.stages) == cfg.n_stages
        for g, w in zip(got.stages, want.stages):
            assert np.array_equal(g.pseudo_instances.data, w.pseudo_instances.data)
            assert np.array_equal(g.semantic_out.data, w.semantic_out.data)
            assert g.metrics == w.metrics


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
        params = TinyPredictorParams.initialize(1, gt_features(sc).shape[2], sc.n_classes)
        return sc, cfg, params, _targets_of_kind(sc, sc.gt_semantic, cfg, kind)

    @pytest.mark.parametrize("kind", TARGET_KINDS)
    def test_fit_calls_each_loss_once_per_step(self, calls, kind):
        sc, cfg, params, targets = self._setup(kind)
        _fit(params, expand_features(gt_features(sc)), targets, cfg, 7, kind)
        assert calls == {
            "seg_loss_ohem": 7,
            "offset_loss": 7,
            "affinity_loss": 7 if kind != "warm-up" else 0,
            "total_loss": 7,
        }

    def test_train_step_and_objective_on_flat_call_them(self, calls):
        sc, cfg, params, targets = self._setup("stage")
        _fit(params, expand_features(gt_features(sc)), targets, cfg, 1, "stage 0")
        objective_on_flat(flatten(params), params, gt_features(sc), targets, cfg.hard_pixel_ratio)
        assert calls == dict.fromkeys(self.NAMES, 2)


class TestObjectiveWorkspace:
    """An evaluation writes its output planes, scaled offsets, pair ends and
    their gradient into arrays allocated once per phase, and returns
    nothing that points into them."""

    @staticmethod
    def _objective(kind, seed=100, size=64):
        sc, corr, feats = _synth_scene(seed, size)
        cfg = MdmConfig()
        targets = _targets_of_kind(sc, corr, cfg, kind)
        params = TinyPredictorParams.initialize(
            _derive_seed(cfg.seed, 0, 0), feats.shape[2], sc.n_classes
        )
        return _Objective(params, expand_features(feats), targets, cfg.hard_pixel_ratio), params

    @pytest.mark.parametrize("kind", ["stage", "warm-up"])
    def test_steady_state_evaluation_allocates_under_one_plane(self, kind):
        # A fresh array this size is new memory to the allocator, paid for
        # in page faults on every step of the Adam loop.
        objective, params = self._objective(kind, size=256)
        objective(params)  # past any first-call set-up
        tracemalloc.start()
        try:
            objective(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = params.theta.shape[1] * 256 * 256 * 8  # one (K, N) float64 plane
        assert peak < plane, f"{peak} bytes allocated, one output plane is {plane}"

    def test_steady_state_ohem_allocates_no_class_plane(self, monkeypatch):
        # OHEM's softmax runs in the objective's own class rows, and divides
        # only where it reads: at the target pixels and the kept columns.
        objective, params = self._objective("stage", size=256)
        peaks = []
        real = loop.seg_loss_ohem

        def measured(scores, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = real(scores, *args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(loop, "seg_loss_ohem", measured)
        objective(params)  # past any first-call set-up
        tracemalloc.start()
        try:
            objective(params)
        finally:
            tracemalloc.stop()
        plane = (params.n_classes + 1) * 256 * 256 * 8  # one (C, N) float64 plane
        assert len(peaks) == 2 and peaks[1] < plane, f"{peaks[1]} bytes, a class plane is {plane}"

    @pytest.mark.parametrize("kind", TARGET_KINDS)
    def test_results_survive_a_later_call(self, kind):
        objective, p1 = self._objective(kind)
        p2 = moved(p1)
        report, grad = objective(p1)
        saved = report.as_dict(), grad.copy()
        report2, grad2 = objective(p2)
        assert report2.total != report.total
        assert report.as_dict() == saved[0]
        assert grad.tobytes() == saved[1].tobytes()
        # Call 2 equals a fresh objective's first call at p2.
        want2, want_grad2 = self._objective(kind)[0](p2)
        assert report2 == want2
        assert grad2.tobytes() == want_grad2.tobytes()
        workspace = [v for v in vars(objective).values() if isinstance(v, np.ndarray)]
        for out in (grad, grad2):
            assert not any(np.shares_memory(out, buf) for buf in workspace)

    def test_loss_returns_survive_a_later_call(self, monkeypatch):
        returned = []
        for name in ("seg_loss_ohem", "offset_loss", "affinity_loss"):
            original = getattr(loop, name)

            def keep(*args, _original=original):
                out = _original(*args)
                returned.append(out)
                return out

            monkeypatch.setattr(loop, name, keep)
        objective, p1 = self._objective("stage")
        objective(p1)
        assert len(returned) == 3
        snapshot = [[np.array(v, copy=True) for v in out] for out in returned]
        objective(moved(p1))
        for out, saved in zip(returned[:3], snapshot):
            for value, copy in zip(out, saved):
                assert np.array_equal(value, copy)

    @pytest.mark.parametrize("kind", TARGET_KINDS)
    def test_two_fits_from_one_start_agree(self, kind):
        sc, corr, feats = _synth_scene(101)
        cfg = MdmConfig()
        targets = _targets_of_kind(sc, corr, cfg, kind)
        start = TinyPredictorParams.initialize(3, feats.shape[2], sc.n_classes)
        runs = [_fit(start, expand_features(feats), targets, cfg, 12, kind) for _ in range(2)]
        (p_a, h_a), (p_b, h_b) = runs
        assert [r.as_dict() for r in h_a] == [r.as_dict() for r in h_b]
        assert len({r.total for r in h_a}) > 1  # the parameters moved
        assert p_a.theta.tobytes() == p_b.theta.tobytes()
