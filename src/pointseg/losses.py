"""Training objectives with hand-derived gradients.

Three losses: smooth-L1 offset regression over pseudo-labeled pixels,
online-hard-example-mined cross entropy over the class map, and the
sigmoid pixel-pair affinity loss, weighted by the fixed constants of the
published operating point.

The losses take raw arrays, since the training loop evaluates them hundreds
of times against the same targets. What depends on the targets alone is
built and checked once by offset_target, ohem_target and affinity_floor,
whose results are passed on to offset_loss, seg_loss_ohem and affinity_loss.

Predictions come channel-first: (channels, pixels) planes with pixels in
raster order, so every elementwise step and every reduction over the
channels runs over long contiguous rows. The class and offset losses return
their gradient only at the pixel columns they read (the OHEM-kept pixels,
the valid offset pixels); every other column's gradient is zero, and the
caller multiplies by the features at those columns alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LossError
from .grids import OffsetField

__all__ = [
    "LossReport",
    "sigmoid",
    "softmax_rows",
    "smooth_l1",
    "offset_target",
    "offset_loss",
    "ohem_target",
    "seg_loss_ohem",
    "affinity_floor",
    "affinity_loss",
    "total_loss",
]

CE_PROB_FLOOR = 1e-12
# Weights of the segmentation, offset and affinity losses in the objective,
# the published operating point.
LAMBDA_SEG, LAMBDA_OFF, LAMBDA_AFF = 1.0, 0.01, 1.0


@dataclass(frozen=True)
class LossReport:
    seg: float
    off: float
    aff: float
    total: float
    n_seg_pixels: int = 0
    n_off_pixels: int = 0
    n_pos_pairs: int = 0
    n_neg_pairs: int = 0

    def as_dict(self) -> dict:
        # The fields in declaration order; they are flat scalars, so no deep
        # copy is needed.
        return dict(vars(self))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, branch-free: exp(-|x|) never overflows.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, the same
    floats as evaluating the two branches on their own masks. The steps run
    in place on two fresh arrays; out= keeps a 0-d input an array, where a
    ufunc without it would return a scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out if out.ndim else out[()]


def softmax_rows(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalized exponential of float scores along `axis` (the last by
    default), max-shifted for stability.

    The shift, exp and division run in place on one fresh array, and the
    sum lands in the max's plane.
    """
    # The max one channel at a time: exact, and far cheaper than a reduction
    # over a short axis.
    planes = np.moveaxis(scores, axis, 0)
    top = np.array(planes[0])  # a copy, and an array even for 1-d scores
    for plane in planes[1:]:
        np.maximum(top, plane, out=top)
    top = np.expand_dims(top, axis)
    ex = np.subtract(scores, top)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=axis, keepdims=True, out=top)
    return ex


def smooth_l1(x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative: 0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.abs(x) < 1.0
    value = np.where(inner, 0.5 * x * x, np.abs(x) - 0.5)
    deriv = np.where(inner, x, np.sign(x))
    return value, deriv


def offset_target(target: OffsetField) -> tuple[np.ndarray, np.ndarray]:
    """The offset loss's fixed inputs: the target vectors at the M valid
    pixels as (2, M) planes, and the flat raster index of those pixels."""
    index = np.flatnonzero(target.valid)
    if not len(index):
        raise LossError("empty pseudo set")
    return np.ascontiguousarray(target.vectors.reshape(-1, 2)[index].T), index


def offset_loss(
    pred: np.ndarray, target: np.ndarray, index: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 over the valid pixels, both vector components summed.

    pred holds (2, N) predicted vector planes; target and index come from
    offset_target. Returns the scalar loss and its (2, M) gradient w.r.t.
    pred at the valid pixels, in index order; it is zero elsewhere.
    """
    n = len(index)
    value, deriv = smooth_l1(pred.take(index, axis=1) - target)
    return float(value.sum(axis=0).sum() / n), deriv / n


def ohem_target(
    target_classes: np.ndarray, channels: int, ratio: float
) -> tuple[np.ndarray, int]:
    """The OHEM loss's fixed inputs: the flat index of each pixel's target
    score in a (channels, N) array of raster-ordered score planes, and the
    number of pixels kept, ceil(ratio * N)."""
    if not (0.0 < ratio <= 1.0):
        raise LossError(f"ratio must be in (0, 1], got {ratio}")
    target = np.asarray(target_classes).ravel()
    n = len(target)
    if n == 0:
        raise LossError("empty seg set")
    if int(target.max()) >= channels:
        raise LossError("target class id exceeds score channels")
    return target.astype(np.int64) * n + np.arange(n), int(math.ceil(ratio * n))


def seg_loss_ohem(
    scores: np.ndarray, target_index: np.ndarray, n_keep: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross entropy over the n_keep hardest pixels.

    scores holds raw (C, N) class score planes, pixels in raster order;
    target_index and n_keep come from ohem_target. Ties at the cutoff break
    by raster order. Returns the loss, the kept pixels (hardest first), and
    the (C, n_keep) gradient w.r.t. their scores, softmax minus one-hot; the
    gradient at every other pixel is zero.
    """
    probs = softmax_rows(scores, axis=0)
    p_true = probs.take(target_index)
    ce = np.maximum(p_true, CE_PROB_FLOOR)
    np.log(ce, out=ce)
    np.negative(ce, out=ce)
    # A stable sort of the candidates at or above the cutoff keeps the order
    # a stable sort of every pixel would give: descending CE, then raster.
    hardness = -ce
    cutoff = np.partition(hardness, n_keep - 1)[n_keep - 1]
    candidates = np.flatnonzero(hardness <= cutoff)
    kept = candidates[np.argsort(hardness[candidates], kind="stable")[:n_keep]]
    loss = float(ce[kept].mean())
    np.put(probs, target_index[kept], p_true[kept] - 1.0)  # softmax minus one-hot
    return loss, kept, probs[:, kept] / n_keep


def affinity_floor(targets: np.ndarray) -> tuple[np.ndarray, float]:
    """The affinity loss's fixed inputs: each pair's weight in the mean over
    its side, -1/n_pos on a positive and 1/n_neg on a negative, and the
    loss's constant floor, the mean of 2 - sigmoid(target) over the
    positives plus that of sigmoid(target) over the negatives."""
    if len(targets) == 0:
        raise LossError("empty sample set")
    pos = targets > 0.5
    n_pos = int(np.count_nonzero(pos))
    n_neg = len(targets) - n_pos
    floor = 0.0
    if n_pos:
        floor += float(np.sum(2.0 - sigmoid(targets[pos])) / n_pos)
    if n_neg:
        floor += float(np.sum(sigmoid(targets[~pos])) / n_neg)
    # max(., 1): a side with no pairs has no pair to weigh.
    weights = np.where(pos, -1.0 / max(n_pos, 1), 1.0 / max(n_neg, 1))
    return weights, floor


def affinity_loss(
    logits: np.ndarray, weights: np.ndarray, floor: float
) -> tuple[float, np.ndarray]:
    """Sigmoid pair loss, implemented literally with the binary targets fed
    through the sigmoid as well, which leaves a constant floor of
    (1 - sigmoid(1)) per positive and sigmoid(0) per negative. Above the
    floor it is the mean of -sigmoid(logit) over the positive pairs plus
    the mean of sigmoid(logit) over the negative ones.

    logits holds the predicted pair logits; weights and floor come from
    affinity_floor. Returns the loss and its gradient w.r.t. the logits.
    """
    s = sigmoid(logits)
    return floor + float(weights @ s), weights * (s * (1.0 - s))


def total_loss(
    parts: tuple[float, float, float],
    counts: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> LossReport:
    """Weighted sum of (seg, off, aff) with the bookkeeping counts."""
    seg, off, aff = (float(p) for p in parts)
    total = LAMBDA_SEG * seg + LAMBDA_OFF * off + LAMBDA_AFF * aff
    return LossReport(
        seg=seg, off=off, aff=aff, total=total,
        n_seg_pixels=counts[0], n_off_pixels=counts[1],
        n_pos_pairs=counts[2], n_neg_pairs=counts[3],
    )
