"""Quick built-in verification suites behind `pointseg selftest`.

Runs compressed versions of the gradient checks and the label-synthesis
oracles; prints one line per suite and exits nonzero on any failure.
"""
from __future__ import annotations

import numpy as np

from .grids import ClassScoreMap, LabelGrid, OffsetField
from .i2s import I2SConfig, build_affinity_targets, dense_affinity_from_instances, refresh_semantic
from .loop import MdmConfig, TinyPredictorParams, build_stage_targets, objective_on_flat
from .losses import LossWeights, affinity_loss, grad_check, offset_loss, seg_loss_ohem
from .metrics import greedy_match
from .s2i import GroupingConfig, compute_offset_field, finalize_pseudo_labels, group_instances
from .synth import generate_scene


def _check_offset_gradients(rng: np.random.Generator, rounds: int = 10) -> bool:
    for _ in range(rounds):
        valid = rng.random((6, 6)) < 0.7
        valid[0, 0] = True
        target = OffsetField(rng.standard_normal((6, 6, 2)) * valid[:, :, None], valid)
        diffs = rng.uniform(-0.8, 0.8, size=(6, 6, 2))
        pred0 = target.vectors + diffs

        def f(flat):
            loss, grad = offset_loss(
                OffsetField(flat.reshape(6, 6, 2), np.ones((6, 6), dtype=bool)), target
            )
            return loss, grad.ravel()

        if not grad_check(f, pred0.ravel()).passed:
            return False
    return True


def _check_seg_gradients(rng: np.random.Generator, rounds: int = 10) -> bool:
    for _ in range(rounds):
        target = LabelGrid(rng.integers(0, 3, size=(4, 4)).astype(np.int32))
        scores0 = rng.standard_normal((4, 4, 3))

        def f(flat):
            loss, grad = seg_loss_ohem(ClassScoreMap(flat.reshape(4, 4, 3)), target, 1.0)
            return loss, grad.ravel()

        if not grad_check(f, scores0.ravel()).passed:
            return False
    return True


def _check_affinity_gradients(rng: np.random.Generator, rounds: int = 10) -> bool:
    from .i2s import AffinitySampleSet

    for _ in range(rounds):
        n = 10
        targets = rng.integers(0, 2, size=n).astype(np.float64)
        pairs = np.zeros((n, 2), dtype=np.int32)
        base = AffinitySampleSet(
            a=pairs, b=pairs, targets=targets,
            pred_logits=np.zeros(n), radius=8, seed=0,
        )
        logits0 = rng.standard_normal(n)

        def f(flat):
            return affinity_loss(base.with_logits(flat))

        if not grad_check(f, logits0).passed:
            return False
    return True


def _check_objective_gradient(rng: np.random.Generator) -> bool:
    scene = generate_scene(5, 8, 8, 2, 2)
    cfg = MdmConfig(iters_per_stage=1, warmup_iters=0, i2s=I2SConfig(max_pairs=64))
    targets = build_stage_targets(scene.gt_semantic, scene.points, cfg, affinity_seed=1)
    params = TinyPredictorParams.initialize(2, scene.features.shape[2], scene.n_classes)
    weights = LossWeights(hard_pixel_ratio=1.0)

    def f(flat):
        return objective_on_flat(flat, params, scene.features, targets, weights)

    return grad_check(f, params.flatten()).passed


def _check_s2i_oracle() -> bool:
    for seed in range(8):
        scene = generate_scene(300 + seed, 64, 64, 2 + seed % 5, 3)
        offsets = compute_offset_field(scene.gt_instances, scene.points)
        grouped = group_instances(offsets, scene.gt_semantic, scene.points, GroupingConfig())
        pseudo, classes = finalize_pseudo_labels(grouped, scene.gt_semantic, scene.points)
        report = greedy_match(
            pseudo, scene.gt_instances,
            pred_classes=classes, gt_classes=scene.points.class_of(), class_aware=True,
        )
        if report.overall_iou != 100.0:
            return False
    return True


def _check_refresh_oracle(rng: np.random.Generator) -> bool:
    for seed in range(6):
        scene = generate_scene(400 + seed, 16, 16, 2, 2)
        cmap = ClassScoreMap(rng.standard_normal((16, 16, 3)))
        aff = dense_affinity_from_instances(scene.gt_instances)
        labels = refresh_semantic(aff, cmap, I2SConfig()).argmax_grid().data
        for inst in scene.gt_instances.ids():
            vals = labels[scene.gt_instances.data == inst]
            if not (vals == vals[0]).all():
                return False
    return True


def _check_affinity_targets_oracle(rng: np.random.Generator) -> bool:
    grid = LabelGrid(rng.integers(0, 4, size=(12, 12)).astype(np.int32))
    samples = build_affinity_targets(grid, I2SConfig(pair_radius=4, max_pairs=128), seed=2)
    dense = dense_affinity_from_instances(grid)
    for q in range(len(samples)):
        i = samples.a[q, 0] * 12 + samples.a[q, 1]
        j = samples.b[q, 0] * 12 + samples.b[q, 1]
        if samples.targets[q] != dense[i, j]:
            return False
    return True


def run_selftest() -> int:
    rng = np.random.default_rng(12345)
    suites = [
        ("offset loss gradient", lambda: _check_offset_gradients(rng)),
        ("segmentation loss gradient", lambda: _check_seg_gradients(rng)),
        ("affinity loss gradient", lambda: _check_affinity_gradients(rng)),
        ("full objective gradient", lambda: _check_objective_gradient(rng)),
        ("label synthesis oracle round-trip", _check_s2i_oracle),
        ("affinity refresh oracle", lambda: _check_refresh_oracle(rng)),
        ("sampled affinity targets vs dense oracle", lambda: _check_affinity_targets_oracle(rng)),
    ]
    failed = 0
    for name, suite in suites:
        ok = suite()
        print(f"selftest: {name}: {'ok' if ok else 'FAIL'}")
        failed += not ok
    if failed:
        print(f"selftest: {failed} suite(s) failed")
        return 2
    print("selftest: all suites passed")
    return 0
