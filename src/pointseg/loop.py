"""Recurrent label-synthesis loop.

A small linear predictor maps per-pixel features (plus their 3x3
neighborhood means) to class scores, offset vectors, and embedding channels
whose pairwise dot products give affinity logits. Each stage's targets are
synthesized once, from its semantic input with the points pinned; the
warm-up trains on stage 0's without their affinity pairs. Each stage trains
on its targets and refreshes the semantic map through the predicted affinity
for the next stage. The targets keep the pinned map's matched s2i.Regions,
so grouping needs no second components pass. A stage's pseudo instances are
its region-matching target labels, each region holding several points
re-split by the predicted offsets' votes, masked by the unpinned input; they
are an output only, and feed no later stage.

The predictor's input, the expand_features planes, is built once per run
and read by every phase and every stage's predict. Training runs full-batch
Adam on a fixed objective per phase (the warm-up and each stage); _Objective
builds the phase's constants and workspace once and computes each step's
loss and gradient channel-first. The parameters share that layout: one
(2F + 1, K) matrix theta, the biases its last row, so the gradient and
Adam's moments are single arrays too. The stage's refresh reads the
embeddings as (D, H, W) planes, and one _pair_logits serves both.
Validated types (ClassScoreMap, OffsetField, LabelGrid) stay at the API:
predict, build_stage_targets, run_stage.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridError, LossError, PipelineError, SceneError
from .grids import ClassScoreMap, LabelGrid, OffsetField, PointAnnotationSet, box_sum
from .i2s import AffinitySampleSet, I2SConfig, Window, build_affinity_targets, refresh_semantic
from .losses import (
    LAMBDA_AFF,
    LAMBDA_OFF,
    LAMBDA_SEG,
    LossReport,
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
    Regions,
    assign_points,
    attach_points,
    compute_offset_field,
    extract_regions,
    finalize_pseudo_labels,
    group_instances,
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
    "build_stage_targets",
    "run_stage",
    "run_mdm",
]

EMBED_DIM = 8
# Offsets are regressed in units of this many pixels so head weights stay O(1).
OFFSET_OUTPUT_SCALE = 8.0
# Adam's moment decay rates and denominator floor, as Kingma & Ba recommend.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _derive_seed(base: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(base), *keys]).generate_state(1, np.uint64)[0])


def expand_features(features: np.ndarray) -> np.ndarray:
    """The predictor's (H, W, 2F + 1) input: the F features, their 3x3
    neighborhood means, and a closing channel of ones, which multiplies out
    to the biases. The means are grids.box_sum window sums over in-grid
    pixel counts, so border windows are clipped to the grid.
    """
    feats = np.asarray(features, dtype=np.float64)
    ones = np.ones((*feats.shape[:2], 1))
    return np.concatenate([feats, box_sum(feats, 1) / box_sum(ones, 1), ones], axis=2)


@dataclass(frozen=True, eq=False)
class TinyPredictorParams:
    """Linear head weights over the expanded features, the biases last:
    the outputs are x @ theta[:-1] + theta[-1]."""

    theta: np.ndarray  # (2F + 1, C+1+2+D)
    n_classes: int

    @classmethod
    def initialize(cls, seed: int, feature_dim: int, n_classes: int) -> "TinyPredictorParams":
        fan_in = 2 * feature_dim
        n_out = (n_classes + 1) + 2 + EMBED_DIM
        bound = 1.0 / math.sqrt(fan_in)
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(-bound, bound, size=(fan_in + 1, n_out)), n_classes)

    def head_slices(self) -> tuple[slice, slice, slice]:
        c1 = self.n_classes + 1
        return slice(0, c1), slice(c1, c1 + 2), slice(c1 + 2, c1 + 2 + EMBED_DIM)


@dataclass(frozen=True, eq=False)
class PredictorOutputs:
    class_map: ClassScoreMap
    offsets: OffsetField
    embeddings: np.ndarray  # (H, W, D)


def _logit_scale(embed_dim: int) -> float:
    return 1.0 / math.sqrt(embed_dim)


def _pair_logits(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """Affinity logits dot(emb_a, emb_b) / sqrt(D) over the first axis of the
    two aligned channel-first (D, ...) embedding arrays, one per end of each
    pair. Swapping two arguments of one memory layout gives the same floats."""
    return np.einsum("d...,d...->...", emb_a, emb_b) * _logit_scale(len(emb_a))


def predict(params: TinyPredictorParams, x: np.ndarray) -> PredictorOutputs:
    """Deterministic forward pass over the (H, W, 2F + 1) expand_features planes."""
    h, w, k = x.shape
    if k != len(params.theta):
        raise PipelineError(f"{k - 1} features do not match fan-in {len(params.theta) - 1}")
    y = x.reshape(h * w, k)[:, :-1] @ params.theta[:-1] + params.theta[-1]
    cls_sl, off_sl, emb_sl = params.head_slices()
    class_map = ClassScoreMap(y[:, cls_sl].reshape(h, w, -1))
    offsets = OffsetField(
        OFFSET_OUTPUT_SCALE * y[:, off_sl].reshape(h, w, 2), np.ones((h, w), dtype=bool)
    )
    embeddings = y[:, emb_sl].reshape(h, w, EMBED_DIM)
    return PredictorOutputs(class_map, offsets, embeddings)


@dataclass(frozen=True, eq=False)
class StageTargets:
    """Supervision synthesized from one stage's semantic input; affinity is
    None only in the warm-up's copy, which trains without pairs."""

    initial: LabelGrid
    regions: Regions  # the input's regions, matched to the points
    classes: LabelGrid
    offsets: OffsetField
    affinity: AffinitySampleSet | None


@dataclass(frozen=True)
class MdmConfig:
    """Settings of one run_mdm call.

    Training takes warmup_iters Adam steps before stage 0 and
    iters_per_stage Adam steps in each of the n_stages stages, with Adam
    step size learning_rate. The segmentation loss keeps the hardest
    hard_pixel_ratio of the pixels.
    """

    n_stages: int = 3
    warmup_iters: int = 25
    iters_per_stage: int = 100
    learning_rate: float = 0.01
    hard_pixel_ratio: float = 0.2
    i2s: I2SConfig = field(default_factory=I2SConfig)
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
        if not (0.0 < self.hard_pixel_ratio <= 1.0):  # NaN fails too
            raise PipelineError(
                f"hard pixel ratio must be in (0, 1], got {self.hard_pixel_ratio}"
            )
        if self.seed < 0:
            raise PipelineError(f"seed must be >= 0, got {self.seed}")


def build_stage_targets(
    semantic_in: LabelGrid,
    points: PointAnnotationSet,
    cfg: MdmConfig,
    affinity_seed: int,
) -> StageTargets:
    """Run the S2I target synthesis for one stage.

    Some region must match a point, or there are no affinity pairs to draw,
    a PipelineError. A pinned map always matches one: pinning gives each
    point's own pixel its class.
    """
    regions = attach_points(extract_regions(semantic_in), points)
    initial = assign_points(regions, points)
    # The class head is supervised by the stage's semantic map itself; the
    # instance labels feed only the offset and affinity targets. Dropping
    # point-less foreground from the class supervision would slowly erase
    # every region whose point the corruption displaced.
    classes = semantic_in
    offsets = compute_offset_field(initial, points)
    affinity = build_affinity_targets(initial, cfg.i2s, seed=affinity_seed)
    return StageTargets(initial, regions, classes, offsets, affinity)


class _Objective:
    """The training objective over one stage's fixed features and targets.

    Everything that does not depend on the parameters is built once, here:
    the feature planes seen as (2F + 1, N), their closing row of ones
    last, the OHEM target index and kept count, the offset targets with the
    feature columns of their valid pixels, the flat pair indices with the
    feature columns of both ends of every pair, and the constant floor
    terms of the affinity loss. The per-stage input checks run here too, so
    an evaluation only checks what the parameters can break: that the
    outputs and the scaled offsets are finite.

    The workspace is allocated here too, once per phase: the (K, N) output
    planes and their finiteness mask, the (2, N) scaled-offset plane, the
    feature columns of the kept pixels, and the (D, 2P) embeddings at the P
    pairs' ends with their gradient. Each evaluation overwrites it in place,
    so the Adam loop allocates no array of that size: a fresh one would be
    new memory to the allocator on every step, paid for in page faults.
    Nothing an evaluation returns points into it: the report, the gradient
    and what the losses return are fresh on every call.

    An evaluation computes the (K, N) output planes W.T @ x + b, with
    theta = (W; b), and the three losses on their heads' rows. Each head's
    gradient w.r.t. theta is one matmul of the feature columns its loss
    reads with the loss's gradient at those columns: the kept pixels for
    the class head, the valid pixels for the offset head, and the pair ends
    for the embedding head, where the gradient at end a of a pair is its
    logit's gradient times the embedding at end b, and the other way round.
    """

    def __init__(
        self,
        template: TinyPredictorParams,
        x: np.ndarray,
        targets: StageTargets,
        hard_pixel_ratio: float,
    ) -> None:
        h, w = x.shape[:2]
        n = h * w
        # The ones row multiplies out to the bias gradient. xT is a view of
        # the pixel-major planes, so a pixel's column is one contiguous row
        # of xT.T.
        self.xT = x.reshape(n, -1).T
        self.slices = template.head_slices()
        if targets.classes.shape != (h, w):
            raise LossError("target shape mismatch")
        self.seg_target = ohem_target(
            targets.classes.data, template.n_classes + 1, hard_pixel_ratio
        )
        if targets.offsets.shape != (h, w):
            raise LossError("offset field shape mismatch")
        self.off_target = offset_target(targets.offsets)  # (vectors, index)
        self.off_x = self.xT[:, self.off_target[1]]
        self.off_coeff = LAMBDA_OFF * OFFSET_OUTPUT_SCALE
        n_off = len(self.off_target[1])
        n_pos = n_neg = 0
        self.aff_target = None
        if targets.affinity is not None:
            self.aff_target = affinity_floor(targets.affinity.targets)
            self.aff_coeff = LAMBDA_AFF * _logit_scale(EMBED_DIM)
            # Both pair ends at once: the a ends, then the b ends.
            self.ends = np.concatenate([targets.affinity.a, targets.affinity.b])
            self.ends_x = self.xT[:, self.ends]
            n_pos = int(np.count_nonzero(self.aff_target[0] < 0))  # positives weigh < 0
            n_neg = len(self.ends) // 2 - n_pos
        self.counts = (self.seg_target[1], n_off, n_pos, n_neg)
        # The workspace, overwritten by every evaluation.
        self.y = np.empty((template.theta.shape[1], n))
        self.finite = np.empty(self.y.shape, dtype=bool)
        self.kept_rows = np.empty((self.seg_target[1], len(self.xT)))
        self.pred = np.empty((2, n))
        if self.aff_target is not None:
            self.ends_y = np.empty((EMBED_DIM, len(self.ends)))
            self.g_ends = np.empty_like(self.ends_y)

    def __call__(self, params: TinyPredictorParams) -> tuple[LossReport, np.ndarray]:
        """Forward pass, three losses, and the analytic gradient w.r.t.
        theta, computed in the workspace and returned in fresh arrays."""
        y = np.matmul(params.theta[:-1].T, self.xT[:-1], out=self.y)
        y += params.theta[-1][:, None]
        if not np.isfinite(y, out=self.finite).all():
            raise PipelineError("predictor outputs are non-finite")
        cls_sl, off_sl, emb_sl = self.slices
        grad = np.zeros((len(self.xT), len(y)))  # theta's layout

        # The class rows are OHEM's softmax workspace: nothing reads them after.
        seg, kept, g_seg = seg_loss_ohem(y[cls_sl], *self.seg_target)
        # mode="clip" writes straight into out, where the default buffers it;
        # every index here is in range.
        kept_x = np.take(self.xT.T, kept, axis=0, out=self.kept_rows, mode="clip").T
        grad[:, cls_sl] = kept_x @ (LAMBDA_SEG * g_seg).T

        pred = np.multiply(OFFSET_OUTPUT_SCALE, y[off_sl], out=self.pred)
        if not np.isfinite(pred, out=self.finite[off_sl]).all():
            raise PipelineError("predicted offsets are non-finite")
        off, g_off = offset_loss(pred, *self.off_target)
        grad[:, off_sl] = self.off_x @ (self.off_coeff * g_off).T

        aff = 0.0
        if self.aff_target is not None:
            n_pairs = len(self.ends) // 2
            ends = np.take(y[emb_sl], self.ends, axis=1, out=self.ends_y, mode="clip")
            emb_a, emb_b = ends[:, :n_pairs], ends[:, n_pairs:]
            aff, g_logit = affinity_loss(_pair_logits(emb_a, emb_b), *self.aff_target)
            coeff = self.aff_coeff * g_logit
            g_ends = self.g_ends
            np.multiply(coeff, emb_b, out=g_ends[:, :n_pairs])
            np.multiply(coeff, emb_a, out=g_ends[:, n_pairs:])
            grad[:, emb_sl] = self.ends_x @ g_ends.T

        report = total_loss((seg, off, aff), self.counts)
        return report, grad


@contextmanager
def _diverging(where: str):
    """Run the block without NumPy warnings; a non-finite value is a divergence at `where`."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except (GridError, PipelineError) as err:
            raise PipelineError(
                f"diverged: {err} in {where}; try a lower learning rate (--lr)"
            ) from None


def _fit(
    params: TinyPredictorParams,
    x: np.ndarray,
    targets: StageTargets,
    cfg: MdmConfig,
    iters: int,
    phase: str,
) -> tuple[TinyPredictorParams, list[LossReport]]:
    """iters Adam updates of one training phase ("warm-up" or "stage <index>").

    Adam (Kingma & Ba, ICLR 2015) with step size cfg.learning_rate; its
    moments start at zero in every phase. Each report is the loss before its
    update. The objective, with every constant of the stage, is built once
    for all of them, over the run's feature planes x. A divergence names
    the phase and the step it happened at.
    """
    objective = _Objective(params, x, targets, cfg.hard_pixel_ratio)
    m = v = 0.0  # first and second moments of theta
    history = []
    for t in range(1, iters + 1):
        with _diverging(f"{phase}, step {t} of {iters}"):
            report, grad = objective(params)
            for name in ("seg", "off", "aff"):
                if not math.isfinite(getattr(report, name)):
                    raise PipelineError(f"{name} loss is non-finite")
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (grad * grad)
            theta = params.theta - cfg.learning_rate * (m / (1.0 - ADAM_BETA1**t)) / (
                np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
            )
        params = replace(params, theta=theta)
        history.append(report)
    return params, history


@dataclass(frozen=True, eq=False)
class StageResult:
    stage_idx: int
    semantic_in: LabelGrid
    initial_instances: LabelGrid
    pseudo_instances: LabelGrid
    semantic_out: LabelGrid
    refreshed_class_map: ClassScoreMap
    params: TinyPredictorParams
    losses: list[LossReport]
    metrics: MatchReport | None = None


def _masked_argmax(scores: ClassScoreMap, allowed: set[int]) -> LabelGrid:
    data = scores.data.copy()
    data[:, :, [ch for ch in range(data.shape[2]) if ch not in allowed]] = -np.inf
    return LabelGrid(np.argmax(data, axis=2).astype(np.int32))


def _points_first(semantic: LabelGrid, points: PointAnnotationSet) -> LabelGrid:
    """Force a 5x5 patch at each annotated point to its annotated class,
    then each point's own pixel, so no later patch overwrites a point.

    Annotations are the one ground truth the loop holds; a map that
    contradicts a point at its own pixel would orphan the instance in region
    matching. The patch radius covers the corruption reach so a pinned point
    reconnects to its surviving region. Pinning a pinned map changes nothing.
    """
    data = semantic.data.copy()
    for p in points:
        data[max(0, p.y - 2) : p.y + 3, max(0, p.x - 2) : p.x + 3] = p.class_id
    for p in points:
        data[p.y, p.x] = p.class_id
    return LabelGrid(data)


def run_stage(
    stage_idx: int,
    semantic_in: LabelGrid,
    targets: StageTargets,
    x: np.ndarray,
    points: PointAnnotationSet,
    params: TinyPredictorParams,
    cfg: MdmConfig,
) -> StageResult:
    """One train -> group -> I2S refresh round on the (H, W, 2F + 1)
    expand_features planes x and targets built from semantic_in pinned; the
    pseudo instances are masked by semantic_in."""
    params, history = _fit(params, x, targets, cfg, cfg.iters_per_stage, f"stage {stage_idx}")

    # No evaluation follows the last update: its outputs are checked here.
    with _diverging(f"stage {stage_idx}, after its last step"):
        outs = predict(params, x)
        grouped = group_instances(outs.offsets, targets.initial, targets.regions, points)
        pseudo = finalize_pseudo_labels(grouped, semantic_in, points)

        emb = np.ascontiguousarray(outs.embeddings.transpose(2, 0, 1))  # (D, H, W)

        def predicted_affinity(win_i: Window, win_j: Window) -> np.ndarray:
            # Symmetric, as refresh_semantic requires: one call serves both ends.
            logits = _pair_logits(emb[(slice(None), *win_i)], emb[(slice(None), *win_j)])
            return sigmoid(logits.ravel())

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

    The predictor's input, its feature planes, is built once, from the
    scene's image and the corrupted semantic map (never ground truth), and
    stays fixed: every phase's objective and every stage's predict read it;
    only the supervision side evolves from stage to stage. Each stage's
    targets are built once, from its semantic input pinned: stage 0 reads
    the corrupted map, and stage s >= 1 stage s-1's refreshed map. The
    warm-up trains on stage 0's targets without their affinity pairs.

    A scene without an annotated point has no point-to-instance relation
    to learn: it is a SceneError, raised before any target is built.
    """
    if not len(scene.points):
        raise SceneError("no annotated point: training needs at least one")
    x = expand_features(features_from_semantic(scene, corrupted_semantic))
    points = scene.points
    params = TinyPredictorParams.initialize(
        seed=_derive_seed(cfg.seed, 0, 0),
        feature_dim=x.shape[2] // 2,
        n_classes=scene.n_classes,
    )

    classes = points.class_of()
    warmup_history: list[LossReport] = []
    stages: list[StageResult] = []
    semantic = corrupted_semantic
    for stage_idx in range(cfg.n_stages):
        targets = build_stage_targets(
            _points_first(semantic, points), points, cfg, _derive_seed(cfg.seed, stage_idx, 1)
        )
        if stage_idx == 0 and cfg.warmup_iters:
            params, warmup_history = _fit(
                params, x, replace(targets, affinity=None), cfg,
                cfg.warmup_iters, "warm-up",
            )
        result = run_stage(stage_idx, semantic, targets, x, points, params, cfg)
        metrics = greedy_match(
            result.pseudo_instances,
            scene.gt_instances,
            pred_classes=classes,
            gt_classes=classes,
            class_aware=True,
        )
        stages.append(replace(result, metrics=metrics))
        semantic = result.semantic_out
        params = result.params
    return MdmResult(stages=stages, warmup_losses=warmup_history)
