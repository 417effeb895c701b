"""Recurrent label-synthesis loop.

A small linear predictor maps per-pixel features (plus their 3x3
neighborhood means) to class scores, offset vectors, and embedding channels
whose pairwise dot products give affinity logits. Each stage trains on
targets synthesized from the stage's semantic input, groups the predicted
offsets into pseudo instances, and refreshes the semantic map through the
predicted affinity for the next stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PipelineError
from .grids import ClassScoreMap, LabelGrid, OffsetField, PointAnnotationSet
from .i2s import AffinitySampleSet, I2SConfig, Window, build_affinity_targets, refresh_semantic
from .losses import (
    LossReport,
    LossWeights,
    affinity_loss,
    offset_loss,
    seg_loss_ohem,
    sigmoid,
    softmax_rows,
    total_loss,
)
from .metrics import MatchReport, greedy_match
from .s2i import (
    GroupingConfig,
    assign_points,
    compute_offset_field,
    extract_regions,
    finalize_pseudo_labels,
    group_instances,
    point_window,
)
from .synth import Scene, features_from_semantic

__all__ = [
    "TinyPredictorParams",
    "PredictorOutputs",
    "StageTargets",
    "MdmConfig",
    "StageResult",
    "MdmResult",
    "expand_features",
    "predict",
    "affinity_logits",
    "build_stage_targets",
    "train_step",
    "run_stage",
    "run_mdm",
]

DEFAULT_EMBED_DIM = 8
# Offsets are regressed in units of this many pixels so head weights stay O(1).
OFFSET_OUTPUT_SCALE = 8.0


def _derive_seed(base: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(base), *keys]).generate_state(1, np.uint64)[0])


def expand_features(features: np.ndarray) -> np.ndarray:
    """Per-pixel feature vector concatenated with its 3x3 neighborhood mean.

    Border neighborhoods average over the in-grid pixels only.
    """
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


@dataclass(frozen=True, eq=False)
class TinyPredictorParams:
    """Linear head weights over the expanded features."""

    weights: np.ndarray  # (2F, C+1+2+D)
    biases: np.ndarray  # (C+1+2+D,)
    n_classes: int
    embed_dim: int
    offset_scale: float = OFFSET_OUTPUT_SCALE

    @classmethod
    def initialize(
        cls,
        seed: int,
        feature_dim: int,
        n_classes: int,
        offset_scale: float = OFFSET_OUTPUT_SCALE,
    ) -> "TinyPredictorParams":
        fan_in = 2 * feature_dim
        n_out = (n_classes + 1) + 2 + DEFAULT_EMBED_DIM
        bound = 1.0 / math.sqrt(fan_in)
        rng = np.random.default_rng(seed)
        return cls(
            weights=rng.uniform(-bound, bound, size=(fan_in, n_out)),
            biases=rng.uniform(-bound, bound, size=n_out),
            n_classes=n_classes,
            embed_dim=DEFAULT_EMBED_DIM,
            offset_scale=offset_scale,
        )

    def head_slices(self) -> tuple[slice, slice, slice]:
        c1 = self.n_classes + 1
        return slice(0, c1), slice(c1, c1 + 2), slice(c1 + 2, c1 + 2 + self.embed_dim)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.biases.ravel()])

    def with_flat(self, flat: np.ndarray) -> "TinyPredictorParams":
        flat = np.asarray(flat, dtype=np.float64)
        n_w = self.weights.size
        return replace(
            self,
            weights=flat[:n_w].reshape(self.weights.shape),
            biases=flat[n_w:].copy(),
        )


@dataclass(frozen=True, eq=False)
class PredictorOutputs:
    class_map: ClassScoreMap
    offsets: OffsetField
    embeddings: np.ndarray  # (H, W, D)


def _offset_head(
    params: TinyPredictorParams, y: np.ndarray, shape: tuple[int, int]
) -> OffsetField:
    """Offset field from the raw (H*W, outputs) head values, every pixel valid."""
    h, w = shape
    _, off_sl, _ = params.head_slices()
    return OffsetField(
        params.offset_scale * y[:, off_sl].reshape(h, w, 2),
        np.ones((h, w), dtype=bool),
    )


def _logit_scale(embed_dim: int) -> float:
    return 1.0 / math.sqrt(embed_dim)


def _pair_logits(emb: np.ndarray, ia, ib) -> np.ndarray:
    """Affinity logits dot(emb[ia], emb[ib]) / sqrt(D) over emb's last axis.

    ia and ib are flat pixel indices into (N, D) embeddings, or aligned
    windows into (H, W, D) embeddings.
    """
    return (emb[ia] * emb[ib]).sum(axis=-1) * _logit_scale(emb.shape[-1])


def _pair_index(samples: AffinitySampleSet, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat raster indices of both ends of every sampled pair."""
    ia = samples.a[:, 0].astype(np.int64) * width + samples.a[:, 1]
    ib = samples.b[:, 0].astype(np.int64) * width + samples.b[:, 1]
    return ia, ib


def predict(params: TinyPredictorParams, features: np.ndarray) -> PredictorOutputs:
    """Deterministic forward pass over a (H, W, F) feature tensor."""
    h, w, f = features.shape
    if 2 * f != params.weights.shape[0]:
        raise PipelineError(
            f"feature dim {f} does not match predictor fan-in {params.weights.shape[0]}"
        )
    y = expand_features(features) @ params.weights + params.biases
    cls_sl, _, emb_sl = params.head_slices()
    class_map = ClassScoreMap(y[:, cls_sl].reshape(h, w, -1))
    embeddings = y[:, emb_sl].reshape(h, w, params.embed_dim)
    return PredictorOutputs(class_map, _offset_head(params, y, (h, w)), embeddings)


def affinity_logits(embeddings: np.ndarray, samples: AffinitySampleSet) -> np.ndarray:
    """Pairwise logits dot(embed_i, embed_j) / sqrt(D) at the sampled pairs."""
    h, w, d = embeddings.shape
    return _pair_logits(embeddings.reshape(h * w, d), *_pair_index(samples, w))


@dataclass(frozen=True, eq=False)
class StageTargets:
    """Supervision synthesized from one stage's semantic input."""

    initial: LabelGrid
    classes: LabelGrid
    offsets: OffsetField | None
    affinity: AffinitySampleSet | None


@dataclass(frozen=True)
class MdmConfig:
    n_stages: int = 3
    warmup_iters: int = 200
    iters_per_stage: int = 800
    learning_rate: float = 0.05
    loss_weights: LossWeights = field(default_factory=LossWeights)
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    i2s: I2SConfig = field(default_factory=I2SConfig)
    offset_scale: float = OFFSET_OUTPUT_SCALE
    seed: int = 0

    def __post_init__(self):
        if self.n_stages < 1:
            raise PipelineError("need at least one stage")
        if self.iters_per_stage < 1:
            raise PipelineError("iters_per_stage must be >= 1")
        if self.warmup_iters < 0:
            raise PipelineError("warmup_iters must be >= 0")
        if not self.learning_rate >= 0:  # NaN fails too
            raise PipelineError(f"learning rate must be >= 0, got {self.learning_rate}")


def _paint_fallback_boxes(
    initial: LabelGrid, points: PointAnnotationSet, box_side: int
) -> LabelGrid:
    """Complete degenerate instances in the target map with a pseudo-box.

    A point whose matched region is missing or has collapsed to a sliver
    would otherwise lose its class from the stage supervision entirely, and
    the recurrence could never bring the instance back. A box overwrites
    every pixel in its window, background and other instances' labels alike,
    except pixels that carry another degenerate point's id, from its sliver
    or its box. Boxes are painted in instance-id order, so of two
    overlapping boxes the lower id keeps the shared pixels.
    """
    min_pixels = max(1, (box_side * box_side) // 2)
    sizes = np.bincount(initial.data.ravel(), minlength=len(points) + 1)
    needy = [p for p in points if sizes[p.instance_id] < min_pixels]
    if not needy:
        return initial
    data = initial.data.copy()
    needy_ids = {p.instance_id for p in needy}
    for p in needy:
        box = data[point_window(p, box_side, initial.shape)]
        # The annotated point is certain; its box outranks labels inherited
        # from region matching, but never another degenerate point's box.
        replace_mask = ~np.isin(box, [i for i in needy_ids if i != p.instance_id])
        box[replace_mask] = p.instance_id
    return LabelGrid(data)


def build_stage_targets(
    semantic_in: LabelGrid,
    points: PointAnnotationSet,
    cfg: MdmConfig,
    affinity_seed: int | None = None,
) -> StageTargets:
    """Run the S2I target synthesis for one stage.

    affinity_seed None skips affinity sampling (the warm-up setting). Offset
    and affinity targets are also skipped when no region matched any point.
    """
    shape = semantic_in.shape
    regions = extract_regions(semantic_in)
    initial = assign_points(regions, points, shape)
    initial = _paint_fallback_boxes(initial, points, cfg.grouping.pseudo_box_side)
    # The class head is supervised by the stage's semantic map itself; the
    # instance labels feed only the offset and affinity targets. Dropping
    # point-less foreground from the class supervision would slowly erase
    # every region whose point the corruption displaced.
    classes = semantic_in
    has_fg = int(initial.data.max()) > 0
    offsets = compute_offset_field(initial, points) if has_fg else None
    affinity = None
    if affinity_seed is not None and has_fg:
        affinity = build_affinity_targets(initial, cfg.i2s, seed=affinity_seed)
    return StageTargets(initial, classes, offsets, affinity)


def _objective(
    params: TinyPredictorParams,
    xmat: np.ndarray,
    shape: tuple[int, int],
    targets: StageTargets,
    weights: LossWeights,
) -> tuple[LossReport, tuple[np.ndarray, np.ndarray]]:
    """Forward pass, three losses, and the analytic parameter gradient."""
    h, w = shape
    y = xmat @ params.weights + params.biases
    if not np.all(np.isfinite(y)):
        raise PipelineError("diverged: predictor outputs are non-finite")
    cls_sl, off_sl, emb_sl = params.head_slices()
    d_y = np.zeros_like(y)

    scores = ClassScoreMap(y[:, cls_sl].reshape(h, w, -1))
    seg, g_seg = seg_loss_ohem(scores, targets.classes, weights.hard_pixel_ratio)
    n_seg = int(math.ceil(weights.hard_pixel_ratio * h * w))
    d_y[:, cls_sl] = weights.lambda_seg * g_seg.reshape(h * w, -1)

    off = 0.0
    n_off = 0
    if targets.offsets is not None:
        off, g_off = offset_loss(_offset_head(params, y, shape), targets.offsets)
        n_off = int(targets.offsets.valid.sum())
        d_y[:, off_sl] = (
            weights.lambda_off * params.offset_scale * g_off.reshape(h * w, 2)
        )

    aff = 0.0
    n_pos = n_neg = 0
    if targets.affinity is not None:
        emb = y[:, emb_sl]
        ia, ib = _pair_index(targets.affinity, w)
        filled = targets.affinity.with_logits(_pair_logits(emb, ia, ib))
        aff, g_logit = affinity_loss(filled)
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


def objective_on_flat(
    flat: np.ndarray,
    template: TinyPredictorParams,
    features: np.ndarray,
    targets: StageTargets,
    weights: LossWeights,
) -> tuple[float, np.ndarray]:
    """Total objective as a function of the flat parameter vector.

    This is the hook the finite-difference checker drives.
    """
    params = template.with_flat(flat)
    xmat = expand_features(features)
    report, (gw, gb) = _objective(params, xmat, features.shape[:2], targets, weights)
    return report.total, np.concatenate([gw.ravel(), gb.ravel()])


def _step(
    params: TinyPredictorParams,
    xmat: np.ndarray,
    shape: tuple[int, int],
    targets: StageTargets,
    cfg: MdmConfig,
) -> tuple[TinyPredictorParams, LossReport]:
    """One gradient-descent update on the expanded feature matrix."""
    report, (gw, gb) = _objective(params, xmat, shape, targets, cfg.loss_weights)
    for name in ("seg", "off", "aff"):
        if not math.isfinite(getattr(report, name)):
            raise PipelineError(f"diverged: {name} loss is non-finite")
    updated = replace(
        params,
        weights=params.weights - cfg.learning_rate * gw,
        biases=params.biases - cfg.learning_rate * gb,
    )
    return updated, report


def train_step(
    params: TinyPredictorParams,
    features: np.ndarray,
    targets: StageTargets,
    cfg: MdmConfig,
) -> tuple[TinyPredictorParams, LossReport]:
    """One gradient-descent update; returns the pre-update loss report."""
    return _step(params, expand_features(features), features.shape[:2], targets, cfg)


def _fit(
    params: TinyPredictorParams,
    features: np.ndarray,
    targets: StageTargets,
    cfg: MdmConfig,
    iters: int,
) -> tuple[TinyPredictorParams, list[LossReport]]:
    """iters updates; the features are expanded once for all of them."""
    xmat = expand_features(features)
    history = []
    for _ in range(iters):
        params, report = _step(params, xmat, features.shape[:2], targets, cfg)
        history.append(report)
    return params, history


@dataclass(frozen=True, eq=False)
class StageResult:
    stage_idx: int
    semantic_in: LabelGrid
    initial_instances: LabelGrid
    pseudo_instances: LabelGrid
    instance_classes: dict[int, int]
    semantic_out: LabelGrid
    refreshed_class_map: ClassScoreMap
    params: TinyPredictorParams
    losses: list[LossReport]
    metrics: MatchReport | None = None


def _masked_argmax(scores: ClassScoreMap, allowed: set[int]) -> LabelGrid:
    data = scores.data.copy()
    for ch in range(scores.channels):
        if ch not in allowed:
            data[:, :, ch] = -np.inf
    return LabelGrid(np.argmax(data, axis=2).astype(np.int32))


def _points_first(semantic: LabelGrid, points: PointAnnotationSet) -> LabelGrid:
    """Force a 5x5 patch at each annotated point to its annotated class.

    Annotations are the one ground truth the loop holds; a refreshed map
    that contradicts a point at its own pixel would orphan the instance in
    the next stage's region matching. The patch radius covers the corruption
    reach so a pinned point reconnects to its surviving region.
    """
    data = semantic.data.copy()
    for p in points:
        data[point_window(p, 5, semantic.shape)] = p.class_id
    return LabelGrid(data)


def run_stage(
    stage_idx: int,
    semantic_in: LabelGrid,
    scene: Scene,
    params: TinyPredictorParams,
    cfg: MdmConfig,
    offset_override: OffsetField | None = None,
) -> StageResult:
    """One S2I -> train -> group -> I2S refresh round.

    offset_override replaces the predicted offsets at the grouping step only
    (diagnostic hook for oracle runs).
    """
    points = scene.points
    targets = build_stage_targets(
        semantic_in, points, cfg, affinity_seed=_derive_seed(cfg.seed, stage_idx, 1)
    )
    params, history = _fit(params, scene.features, targets, cfg, cfg.iters_per_stage)

    outs = predict(params, scene.features)
    offsets_used = offset_override if offset_override is not None else outs.offsets
    grouped = group_instances(offsets_used, semantic_in, points, cfg.grouping)
    pseudo, classes = finalize_pseudo_labels(grouped, semantic_in, points)

    def predicted_affinity(win_i: Window, win_j: Window) -> np.ndarray:
        return sigmoid(_pair_logits(outs.embeddings, win_i, win_j).ravel())

    # Refresh bounded probabilities rather than raw scores: convex mixing
    # keeps the recurrence stable (confident raw scores snowball).
    probs = ClassScoreMap(softmax_rows(outs.class_map.data))
    refreshed = refresh_semantic(predicted_affinity, probs, cfg.i2s)
    allowed = {0} | {p.class_id for p in points}
    semantic_out = _points_first(_masked_argmax(refreshed, allowed), points)

    return StageResult(
        stage_idx=stage_idx,
        semantic_in=semantic_in,
        initial_instances=targets.initial,
        pseudo_instances=pseudo,
        instance_classes=classes,
        semantic_out=semantic_out,
        refreshed_class_map=refreshed,
        params=params,
        losses=history,
    )


@dataclass(frozen=True, eq=False)
class MdmResult:
    stages: list[StageResult]
    warmup_losses: list[LossReport]

    @property
    def final(self) -> StageResult:
        return self.stages[-1]


def run_mdm(scene: Scene, corrupted_semantic: LabelGrid, cfg: MdmConfig) -> MdmResult:
    """Warm up on seg+offset losses, then run the staged recurrence.

    The predictor's input features are rebuilt once from the corrupted
    semantic map (never ground truth) and stay fixed; only the supervision
    side evolves from stage to stage. Stage s >= 1 consumes stage s-1's
    refreshed semantic map verbatim.
    """
    features = features_from_semantic(scene, corrupted_semantic)
    work_scene = replace(scene, features=features)
    params = TinyPredictorParams.initialize(
        seed=_derive_seed(cfg.seed, 0, 0),
        feature_dim=features.shape[2],
        n_classes=scene.n_classes,
        offset_scale=cfg.offset_scale,
    )

    warmup_history: list[LossReport] = []
    if cfg.warmup_iters:
        warm_targets = build_stage_targets(
            corrupted_semantic, scene.points, cfg, affinity_seed=None
        )
        params, warmup_history = _fit(params, features, warm_targets, cfg, cfg.warmup_iters)

    gt_classes = scene.points.class_of()
    stages: list[StageResult] = []
    semantic = corrupted_semantic
    for stage_idx in range(cfg.n_stages):
        result = run_stage(stage_idx, semantic, work_scene, params, cfg)
        metrics = greedy_match(
            result.pseudo_instances,
            scene.gt_instances,
            pred_classes=result.instance_classes,
            gt_classes=gt_classes,
            class_aware=True,
        )
        stages.append(replace(result, metrics=metrics))
        semantic = result.semantic_out
        params = result.params
    return MdmResult(stages=stages, warmup_losses=warmup_history)
