"""Training objectives with hand-derived gradients.

Three losses: smooth-L1 offset regression over pseudo-labeled pixels,
online-hard-example-mined cross entropy over the class map, and the
sigmoid pixel-pair affinity loss, weighted by the fixed constants of the
published operating point.

The losses take raw arrays, since the training loop evaluates them thousands
of times against the same targets. What depends on the targets alone is
built and checked once by offset_target, ohem_target and affinity_floor,
whose results are passed on to offset_loss, seg_loss_ohem and affinity_loss.
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
        return {
            "seg": self.seg, "off": self.off, "aff": self.aff, "total": self.total,
            "n_seg_pixels": self.n_seg_pixels, "n_off_pixels": self.n_off_pixels,
            "n_pos_pairs": self.n_pos_pairs, "n_neg_pairs": self.n_neg_pairs,
        }


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Normalized exponential along the last axis, max-shifted for stability."""
    # The max one channel at a time: exact, and far cheaper than a reduction
    # over a short last axis.
    top = scores[..., 0]
    for ch in range(1, scores.shape[-1]):
        top = np.maximum(top, scores[..., ch])
    ex = np.exp(scores - top[..., None])
    return ex / ex.sum(axis=-1, keepdims=True)


def smooth_l1(x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative: 0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.abs(x) < 1.0
    value = np.where(inner, 0.5 * x * x, np.abs(x) - 0.5)
    deriv = np.where(inner, x, np.sign(x))
    return value, deriv


def offset_target(target: OffsetField) -> tuple[np.ndarray, np.ndarray]:
    """The offset loss's fixed inputs: the target vectors at the valid
    pixels, in raster order, and the validity mask."""
    valid = target.valid
    if not valid.any():
        raise LossError("empty pseudo set")
    return target.vectors[valid], valid


def offset_loss(
    pred: np.ndarray, target: np.ndarray, valid: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 over the valid pixels, both vector components summed.

    pred holds (..., 2) predicted vectors, valid a boolean mask over its
    leading axes, and target the (M, 2) vectors at the M >= 1 valid pixels
    in raster order (see offset_target). Returns the scalar loss and its
    gradient w.r.t. pred (zero outside the valid set).
    """
    n = len(target)
    value, deriv = smooth_l1(pred[valid] - target)
    grad = np.zeros_like(pred)
    grad[valid] = deriv / n
    return float(value.sum(axis=-1).sum() / n), grad


def ohem_target(
    target_classes: np.ndarray, channels: int, ratio: float
) -> tuple[np.ndarray, int]:
    """The OHEM loss's fixed inputs: the flat index of each pixel's target
    score in a raster-ordered (N, channels) score array, and the number of
    pixels kept, ceil(ratio * N)."""
    if not (0.0 < ratio <= 1.0):
        raise LossError(f"ratio must be in (0, 1], got {ratio}")
    target = np.asarray(target_classes).ravel()
    n = len(target)
    if n == 0:
        raise LossError("empty seg set")
    if int(target.max()) >= channels:
        raise LossError("target class id exceeds score channels")
    return np.arange(n) * channels + target, int(math.ceil(ratio * n))


def seg_loss_ohem(
    scores: np.ndarray, target_index: np.ndarray, n_keep: int
) -> tuple[float, np.ndarray]:
    """Cross entropy over the n_keep hardest pixels.

    scores holds raw (..., C) class scores, one row per pixel in raster
    order; target_index and n_keep come from ohem_target. Ties at the cutoff
    break by raster order. Returns the loss and its gradient w.r.t. the
    scores (softmax minus one-hot on kept pixels).
    """
    probs = softmax_rows(scores).reshape(-1, scores.shape[-1])
    p_true = probs.take(target_index)
    ce = -np.log(np.maximum(p_true, CE_PROB_FLOOR))
    # A stable sort of the candidates at or above the cutoff keeps the order
    # a stable sort of every pixel would give: descending CE, then raster.
    hardness = -ce
    cutoff = np.partition(hardness, n_keep - 1)[n_keep - 1]
    candidates = np.flatnonzero(hardness <= cutoff)
    kept = candidates[np.argsort(hardness[candidates], kind="stable")[:n_keep]]
    loss = float(ce[kept].mean())
    np.put(probs, target_index, p_true - 1.0)  # softmax minus one-hot
    grad = np.zeros_like(probs)
    grad[kept] = probs[kept] / n_keep
    return loss, grad.reshape(scores.shape)


def affinity_floor(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The affinity loss's fixed inputs: the positive-pair mask and the
    constant floor terms of the positive and the negative pairs."""
    if len(targets) == 0:
        raise LossError("empty sample set")
    pos = targets > 0.5
    return pos, 2.0 - sigmoid(targets[pos]), sigmoid(targets[~pos])


def affinity_loss(
    logits: np.ndarray, pos: np.ndarray, pos_floor: np.ndarray, neg_floor: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sigmoid pair loss, implemented literally with the binary targets fed
    through the sigmoid as well, which leaves a constant floor of
    (1 - sigmoid(1)) per positive and sigmoid(0) per negative.

    logits holds the predicted pair logits; pos, pos_floor and neg_floor
    come from affinity_floor. Returns the loss and its gradient w.r.t. the
    logits.
    """
    n_pos, n_neg = len(pos_floor), len(neg_floor)
    s = sigmoid(logits)
    ds = s * (1.0 - s)
    loss = 0.0
    grad = np.zeros(len(logits), dtype=np.float64)
    if n_pos:
        loss += float(np.sum(pos_floor - s[pos]) / n_pos)
        grad[pos] = -ds[pos] / n_pos
    if n_neg:
        neg = ~pos
        loss += float(np.sum(neg_floor + s[neg]) / n_neg)
        grad[neg] = ds[neg] / n_neg
    return loss, grad


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
