"""Pseudo-label quality metrics: IoU, greedy matching, and average precision."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EvalError
from .grids import LabelGrid

__all__ = [
    "MatchReport",
    "ApReport",
    "mask_iou",
    "greedy_match",
    "ap_report",
]

MATCH_THRESHOLDS = (0.5, 0.7, 0.9)
AP_THRESHOLDS = (0.5, 0.7, 0.75)


@dataclass(frozen=True)
class MatchReport:
    """Per-ground-truth best IoU under greedy matching.

    counts[t] is the number of matched ground-truth instances with IoU
    strictly above t; overall_iou is the mean best IoU over ground-truth
    instances, as a percentage.
    """

    ious: dict[int, float]
    matches: dict[int, int | None]
    counts: dict[float, int]
    overall_iou: float


@dataclass(frozen=True)
class ApReport:
    map50: float
    map70: float
    map75: float


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boolean masks on one grid."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise EvalError("masks must share a grid")
    union = np.logical_or(a, b).sum()
    if union == 0:
        raise EvalError("IoU undefined for two empty masks")
    return float(np.logical_and(a, b).sum() / union)


def _instance_masks(grid: LabelGrid) -> dict[int, np.ndarray]:
    return {i: grid.data == i for i in grid.ids()}


def greedy_match(
    pred: LabelGrid,
    gt: LabelGrid,
    pred_classes: Mapping[int, int] | None = None,
    gt_classes: Mapping[int, int] | None = None,
    class_aware: bool = False,
) -> MatchReport:
    """Greedy one-to-one matching of predictions onto ground truth.

    Predictions are visited by descending size, then ascending id, size
    standing in for confidence. Each claims the unmatched
    ground-truth instance (same class when class_aware) with the highest
    positive IoU, ties to the lowest gt id.
    """
    if pred.shape != gt.shape:
        raise EvalError("pred/gt shape mismatch")
    if class_aware and (pred_classes is None or gt_classes is None):
        raise EvalError("class-aware matching needs class maps for both sides")
    pred_masks = _instance_masks(pred)
    gt_masks = _instance_masks(gt)
    order = sorted(pred_masks, key=lambda i: (-int(pred_masks[i].sum()), i))
    ious = {g: 0.0 for g in gt_masks}
    matches: dict[int, int | None] = {g: None for g in gt_masks}
    taken: set[int] = set()
    for p in order:
        best_gt, best_iou = None, 0.0
        for g in sorted(gt_masks):
            if g in taken:
                continue
            if class_aware and pred_classes[p] != gt_classes[g]:
                continue
            iou = mask_iou(pred_masks[p], gt_masks[g])
            if iou > best_iou:
                best_gt, best_iou = g, iou
        if best_gt is not None:
            taken.add(best_gt)
            ious[best_gt] = best_iou
            matches[best_gt] = p
    counts = {t: sum(1 for v in ious.values() if v > t) for t in MATCH_THRESHOLDS}
    overall = 100.0 * (sum(ious.values()) / len(ious)) if ious else 0.0
    return MatchReport(ious=ious, matches=matches, counts=counts, overall_iou=overall)


def _ap_single_class(
    preds: list[tuple[np.ndarray, float, int]],
    gts: list[np.ndarray],
    iou_threshold: float,
) -> float:
    """All-point-interpolated AP for one class; preds as (mask, score, id)."""
    if not gts:
        return 0.0
    if not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], preds[i][2]))
    taken: set[int] = set()
    tp = np.zeros(len(order))
    for rank, idx in enumerate(order):
        mask = preds[idx][0]
        best_g, best_iou = None, 0.0
        for g, gmask in enumerate(gts):
            if g in taken:
                continue
            iou = mask_iou(mask, gmask)
            if iou >= iou_threshold and iou > best_iou:
                best_g, best_iou = g, iou
        if best_g is not None:
            taken.add(best_g)
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / len(gts)
    precision = cum_tp / np.arange(1, len(order) + 1)
    # Precision envelope, then the area under the step curve.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def _per_class_ap(
    preds: Sequence[tuple[np.ndarray, float, int]],
    gts: Sequence[tuple[np.ndarray, int]],
    iou_threshold: float,
) -> dict[int, float]:
    """AP of every class on either side, in class order; preds tie by index."""
    classes = sorted({c for _, _, c in preds} | {c for _, c in gts})
    return {
        c: _ap_single_class(
            [(mask, score, i) for i, (mask, score, pc) in enumerate(preds) if pc == c],
            [mask for mask, gc in gts if gc == c],
            iou_threshold,
        )
        for c in classes
    }


def ap_report(
    pred: LabelGrid,
    gt: LabelGrid,
    pred_classes: Mapping[int, int] | None = None,
    gt_classes: Mapping[int, int] | None = None,
) -> ApReport:
    """AP at the fixed threshold trio; instance size stands in for confidence.

    Each mAP is the mean AP over every class on either side; a class with
    predictions but no ground truth contributes AP 0. An instance that its
    side's class map does not list, or that has no class map, is class 1.
    """
    pred_masks = _instance_masks(pred)
    gt_masks = _instance_masks(gt)
    get_pc = (pred_classes or {}).get
    get_gc = (gt_classes or {}).get
    preds = [
        (mask, float(mask.sum()), get_pc(i, 1))
        for i, mask in sorted(pred_masks.items())
    ]
    gts = [(mask, get_gc(i, 1)) for i, mask in sorted(gt_masks.items())]
    maps = {}
    for t in AP_THRESHOLDS:
        table = _per_class_ap(preds, gts, t)
        maps[t] = float(np.mean(list(table.values()))) if table else 0.0
    return ApReport(map50=maps[0.5], map70=maps[0.7], map75=maps[0.75])
