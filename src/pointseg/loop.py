"""Recurrent label-synthesis loop.

A small linear predictor maps per-pixel features (plus their 3x3
neighborhood means) to class scores, offset vectors, and embedding channels
whose pairwise dot products give affinity logits. Each stage trains on
targets synthesized from the stage's semantic input, groups the predicted
offsets into pseudo instances, and refreshes the semantic map through the
predicted affinity for the next stage.

Training is full-batch gradient descent on a fixed objective per stage. Its
constants (the expanded features, the OHEM target index, the offset targets
at their valid pixels, the pair indices and the affinity floor terms) are
built once per stage, where the stage's targets are checked too; each of
the thousands of evaluations then works on raw arrays and checks only what
the parameters can break, the finiteness of the outputs and of the losses.
Validated types (ClassScoreMap, OffsetField, LabelGrid) stay at the API:
predict, build_stage_targets, run_stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LossError, PipelineError
from .grids import ClassScoreMap, LabelGrid, OffsetField, PointAnnotationSet
from .i2s import AffinitySampleSet, I2SConfig, Window, build_affinity_targets, refresh_semantic
from .losses import (
    LossReport,
    LossWeights,
    affinity_floor,
    affinity_loss,
    offset_loss,
    offset_target,
    ohem_target,
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


def _offset_head(params: TinyPredictorParams, y: np.ndarray) -> np.ndarray:
    """(H*W, 2) pixel offsets from the raw (H*W, outputs) head values."""
    _, off_sl, _ = params.head_slices()
    return params.offset_scale * y[:, off_sl]


def _logit_scale(embed_dim: int) -> float:
    return 1.0 / math.sqrt(embed_dim)


def _pair_logits(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """Affinity logits dot(emb_a, emb_b) / sqrt(D) over the last axis of the
    two aligned embedding arrays, one per end of each pair."""
    return (emb_a * emb_b).sum(axis=-1) * _logit_scale(emb_a.shape[-1])


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
    offsets = OffsetField(
        _offset_head(params, y).reshape(h, w, 2), np.ones((h, w), dtype=bool)
    )
    embeddings = y[:, emb_sl].reshape(h, w, params.embed_dim)
    return PredictorOutputs(class_map, offsets, embeddings)


def affinity_logits(embeddings: np.ndarray, samples: AffinitySampleSet) -> np.ndarray:
    """Pairwise logits dot(embed_i, embed_j) / sqrt(D) at the sampled pairs."""
    h, w, d = embeddings.shape
    emb = embeddings.reshape(h * w, d)
    ia, ib = _pair_index(samples, w)
    return _pair_logits(emb[ia], emb[ib])


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise PipelineError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )


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


class _Objective:
    """The training objective over one stage's fixed features and targets.

    Everything that does not depend on the parameters is built once, here:
    the expanded features, the OHEM target index and kept count, the offset
    targets at their valid pixels, the flat pair indices with the embedding
    scatter index, and the constant floor terms of the affinity loss. The
    per-stage input checks run here too, so an evaluation only checks what
    the parameters can break: that the outputs and the scaled offsets are
    finite.
    """

    def __init__(
        self,
        template: TinyPredictorParams,
        features: np.ndarray,
        targets: StageTargets,
        weights: LossWeights,
    ) -> None:
        h, w = features.shape[:2]
        n = h * w
        self.xmat = expand_features(features)
        self.loss_weights = weights
        self.slices = template.head_slices()
        if targets.classes.shape != (h, w):
            raise LossError("target shape mismatch")
        self.seg_target = ohem_target(
            targets.classes.data, template.n_classes + 1, weights.hard_pixel_ratio
        )
        n_off = n_pos = n_neg = 0
        self.off_target = None
        if targets.offsets is not None:
            if targets.offsets.shape != (h, w):
                raise LossError("offset field shape mismatch")
            vectors, valid = offset_target(targets.offsets)
            self.off_target = (vectors, valid.ravel())
            self.off_coeff = weights.lambda_off * template.offset_scale
            n_off = len(vectors)
        self.aff_target = None
        if targets.affinity is not None:
            pos, pos_floor, neg_floor = affinity_floor(targets.affinity.targets)
            self.aff_target = (pos, pos_floor, neg_floor)
            self.aff_coeff = weights.lambda_aff * _logit_scale(template.embed_dim)
            # Both pair ends gathered at once: ia rows, then ib rows.
            self.ends = np.concatenate(_pair_index(targets.affinity, w))
            # The embedding gradient sums, per element, the ia terms in pair
            # order and then the ib terms, the order of one add.at per end.
            d = template.embed_dim
            self.scatter = (self.ends[:, None] * d + np.arange(d)).ravel()
            self.emb_size = n * d
            n_pos, n_neg = len(pos_floor), len(neg_floor)
        self.counts = (self.seg_target[1], n_off, n_pos, n_neg)

    def __call__(
        self, params: TinyPredictorParams
    ) -> tuple[LossReport, tuple[np.ndarray, np.ndarray]]:
        """Forward pass, three losses, and the analytic parameter gradient."""
        y = self.xmat @ params.weights + params.biases
        if not np.all(np.isfinite(y)):
            raise PipelineError("diverged: predictor outputs are non-finite")
        cls_sl, off_sl, emb_sl = self.slices
        d_y = np.zeros_like(y)

        seg, g_seg = seg_loss_ohem(y[:, cls_sl], *self.seg_target)
        d_y[:, cls_sl] = self.loss_weights.lambda_seg * g_seg

        off = 0.0
        if self.off_target is not None:
            pred = _offset_head(params, y)
            if not np.all(np.isfinite(pred)):
                raise PipelineError("diverged: predicted offsets are non-finite")
            off, g_off = offset_loss(pred, *self.off_target)
            d_y[:, off_sl] = self.off_coeff * g_off

        aff = 0.0
        if self.aff_target is not None:
            n_pairs = len(self.ends) // 2
            ends = y[:, emb_sl][self.ends]
            emb_a, emb_b = ends[:n_pairs], ends[n_pairs:]
            aff, g_logit = affinity_loss(_pair_logits(emb_a, emb_b), *self.aff_target)
            coeff = (self.aff_coeff * g_logit)[:, None]
            terms = np.empty_like(ends)
            np.multiply(coeff, emb_b, out=terms[:n_pairs])
            np.multiply(coeff, emb_a, out=terms[n_pairs:])
            g_emb = np.bincount(self.scatter, terms.ravel(), minlength=self.emb_size)
            d_y[:, emb_sl] = g_emb.reshape(len(y), -1)

        report = total_loss((seg, off, aff), self.loss_weights, self.counts)
        return report, (self.xmat.T @ d_y, d_y.sum(axis=0))


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
    objective = _Objective(template, features, targets, weights)
    report, (gw, gb) = objective(template.with_flat(flat))
    return report.total, np.concatenate([gw.ravel(), gb.ravel()])


def _step(
    params: TinyPredictorParams, objective: _Objective, learning_rate: float
) -> tuple[TinyPredictorParams, LossReport]:
    """One gradient-descent update; returns the pre-update loss report.

    Overflow and invalid values raise no NumPy warning here: the explicit
    finiteness checks catch them and raise a PipelineError instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        report, (gw, gb) = objective(params)
        for name in ("seg", "off", "aff"):
            if not math.isfinite(getattr(report, name)):
                raise PipelineError(f"diverged: {name} loss is non-finite")
        updated = replace(
            params,
            weights=params.weights - learning_rate * gw,
            biases=params.biases - learning_rate * gb,
        )
    return updated, report


def train_step(
    params: TinyPredictorParams,
    features: np.ndarray,
    targets: StageTargets,
    cfg: MdmConfig,
) -> tuple[TinyPredictorParams, LossReport]:
    """One gradient-descent update; returns the pre-update loss report."""
    objective = _Objective(params, features, targets, cfg.loss_weights)
    return _step(params, objective, cfg.learning_rate)


def _fit(
    params: TinyPredictorParams,
    features: np.ndarray,
    targets: StageTargets,
    cfg: MdmConfig,
    iters: int,
    phase: str,
) -> tuple[TinyPredictorParams, list[LossReport]]:
    """iters updates of one training phase ("warm-up" or "stage <index>").

    The objective, with the expanded features and every other constant of
    the stage, is built once for all of them. A divergence names the phase
    and the step it happened at.
    """
    objective = _Objective(params, features, targets, cfg.loss_weights)
    history = []
    for it in range(iters):
        try:
            params, report = _step(params, objective, cfg.learning_rate)
        except PipelineError as err:
            raise PipelineError(
                f"{err} in {phase}, step {it + 1} of {iters};"
                " try a lower learning rate (--lr)"
            ) from None
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
    params, history = _fit(
        params, scene.features, targets, cfg, cfg.iters_per_stage, f"stage {stage_idx}"
    )

    outs = predict(params, scene.features)
    offsets_used = offset_override if offset_override is not None else outs.offsets
    grouped = group_instances(offsets_used, semantic_in, points, cfg.grouping)
    pseudo, classes = finalize_pseudo_labels(grouped, semantic_in, points)

    def predicted_affinity(win_i: Window, win_j: Window) -> np.ndarray:
        emb = outs.embeddings
        return sigmoid(_pair_logits(emb[win_i], emb[win_j]).ravel())

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
        params, warmup_history = _fit(
            params, features, warm_targets, cfg, cfg.warmup_iters, "warm-up"
        )

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
