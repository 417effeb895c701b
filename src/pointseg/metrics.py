"""Pseudo-label quality metrics: greedy matching and average precision.

Both metrics read one overlap table. `_overlaps` counts every (pred id, gt id)
pixel pair in a single pass over the grids and turns the counts into a
(P, G) IoU table. `_claim` is the one greedy claim that matching and each
AP threshold run on that table; no metric builds a per-instance mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import EvalError
from .grids import LabelGrid

__all__ = [
    "MatchReport",
    "ApReport",
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


def _overlaps(pred: LabelGrid, gt: LabelGrid) -> tuple:
    """(pred, gt, pred ids, gt ids, pred areas, (P, G) IoU table): the table
    led by the two grids it counts, ids sorted, foreground only.

    One np.unique over joint int64 keys pred * (max gt id + 1) + gt counts
    every pixel pair; ids may reach the int32 maximum, so nothing is sized
    by the largest id.
    """
    if pred.shape != gt.shape:
        raise EvalError("pred/gt shape mismatch")
    base = int(gt.data.max()) + 1
    keys = pred.data.astype(np.int64)
    keys *= base  # in place: one int64 grid at a time
    keys += gt.data
    keys, counts = np.unique(keys, return_counts=True)
    pred_ids, p_at = np.unique(keys // base, return_inverse=True)
    gt_ids, g_at = np.unique(keys % base, return_inverse=True)
    inter = np.zeros((len(pred_ids), len(gt_ids)), dtype=np.int64)
    inter[p_at, g_at] = counts
    p_fg, g_fg = pred_ids > 0, gt_ids > 0
    # Row and column sums count background too, so they are the full areas.
    p_area, g_area = inter.sum(axis=1)[p_fg], inter.sum(axis=0)[g_fg]
    inter = inter[np.ix_(p_fg, g_fg)]
    iou = inter / (p_area[:, None] + g_area[None, :] - inter)
    return pred, gt, pred_ids[p_fg], gt_ids[g_fg], p_area, iou


def _table(pred: LabelGrid, gt: LabelGrid, overlaps: tuple | None) -> tuple[np.ndarray, ...]:
    """The ids, areas and IoU of `overlaps`, which must have counted these
    very grids, or of a new _overlaps(pred, gt) when it is None."""
    table = _overlaps(pred, gt) if overlaps is None else overlaps
    if table[:2] != (pred, gt):  # LabelGrid compares by identity
        raise EvalError("the overlap table was counted on other grids")
    return table[2:]


def _claim(iou: np.ndarray, order: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy one-to-one claim on an IoU table, one entry per row of `order`.

    Each row, in order, takes the unclaimed column with the highest IoU that
    is > 0 and >= threshold, ties to the lowest column; -1 if none qualifies.
    """
    claims = np.full(len(order), -1)
    free = np.ones(iou.shape[1], dtype=bool)
    for k, row in enumerate(order):
        open_iou = np.where(free & (iou[row] >= threshold), iou[row], 0.0)
        if open_iou.any():
            claims[k] = col = int(np.argmax(open_iou))
            free[col] = False
    return claims


def _class_column(ids: np.ndarray, classes: Mapping[int, int], side: str) -> np.ndarray:
    missing = [int(i) for i in ids if int(i) not in classes]
    if missing:
        raise EvalError(f"{side} instance ids {missing} have no class in the {side} class map")
    return np.array([classes[int(i)] for i in ids])


def greedy_match(
    pred: LabelGrid,
    gt: LabelGrid,
    pred_classes: Mapping[int, int] | None = None,
    gt_classes: Mapping[int, int] | None = None,
    class_aware: bool = False,
    *, overlaps: tuple | None = None,
) -> MatchReport:
    """Greedy one-to-one matching of predictions onto ground truth.

    Predictions are visited by descending size, then ascending id, size
    standing in for confidence. Each claims the unmatched
    ground-truth instance (same class when class_aware) with the highest
    positive IoU, ties to the lowest gt id. With class_aware, every id of
    either grid needs a class in its side's map.

    overlaps is internal: `pointseg eval` passes the table that
    metrics._overlaps(pred, gt) counted on these very grids, so that
    matching and AP count it once; a table of other grids is refused.
    """
    pred_ids, gt_ids, p_area, iou = _table(pred, gt, overlaps)
    if class_aware:
        if pred_classes is None or gt_classes is None:
            raise EvalError("class-aware matching needs class maps for both sides")
        pc = _class_column(pred_ids, pred_classes, "pred")
        gc = _class_column(gt_ids, gt_classes, "gt")
        iou = np.where(pc[:, None] == gc[None, :], iou, 0.0)
    order = np.lexsort((pred_ids, -p_area))
    ious = {int(g): 0.0 for g in gt_ids}
    matches: dict[int, int | None] = {int(g): None for g in gt_ids}
    for row, col in zip(order, _claim(iou, order, 0.0)):
        if col >= 0:
            ious[int(gt_ids[col])] = float(iou[row, col])
            matches[int(gt_ids[col])] = int(pred_ids[row])
    counts = {t: sum(1 for v in ious.values() if v > t) for t in MATCH_THRESHOLDS}
    overall = 100.0 * (sum(ious.values()) / len(ious)) if ious else 0.0
    return MatchReport(ious=ious, matches=matches, counts=counts, overall_iou=overall)


def _ap_single_class(iou: np.ndarray, rows: np.ndarray, iou_threshold: float) -> float:
    """All-point-interpolated AP of one class: `iou` holds its gt columns,
    `rows` its predictions in confidence order."""
    if iou.shape[1] == 0:
        return 0.0
    tp = (_claim(iou, rows, iou_threshold) >= 0).astype(np.float64)
    cum_tp = np.cumsum(tp)
    recall = cum_tp / iou.shape[1]
    precision = cum_tp / np.arange(1, len(rows) + 1)
    # Precision envelope, then the area under the step curve.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for step, p in zip(np.diff(recall, prepend=0.0), envelope):
        ap += step * p
    return float(ap)


def ap_report(
    pred: LabelGrid,
    gt: LabelGrid,
    pred_classes: Mapping[int, int] | None = None,
    gt_classes: Mapping[int, int] | None = None,
    *, overlaps: tuple | None = None,
) -> ApReport:
    """AP at the fixed threshold trio; instance size stands in for confidence.

    Each mAP is the mean AP over every class on either side; a class with
    predictions but no ground truth contributes AP 0. An instance that its
    side's class map does not list, or that has no class map, is class 1.
    overlaps is internal, as for greedy_match.
    """
    pred_ids, gt_ids, p_area, iou = _table(pred, gt, overlaps)
    pc = np.array([(pred_classes or {}).get(int(i), 1) for i in pred_ids], dtype=np.int64)
    gc = np.array([(gt_classes or {}).get(int(i), 1) for i in gt_ids], dtype=np.int64)
    order = np.lexsort((pred_ids, -p_area))
    per_class = [(iou[:, gc == c], order[pc[order] == c]) for c in sorted(set(pc) | set(gc))]
    maps = [
        float(np.mean([_ap_single_class(cols, rows, t) for cols, rows in per_class]))
        if per_class else 0.0
        for t in AP_THRESHOLDS
    ]
    return ApReport(*maps)
