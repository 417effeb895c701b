"""Training objectives with hand-derived gradients.

Three losses: smooth-L1 offset regression over pseudo-labeled pixels,
online-hard-example-mined cross entropy over the class map, and the
sigmoid pixel-pair affinity loss. A central-finite-difference checker
verifies every analytic gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LossError
from .grids import ClassScoreMap, LabelGrid, OffsetField
from .i2s import AffinitySampleSet

__all__ = [
    "LossWeights",
    "LossReport",
    "GradCheckReport",
    "sigmoid",
    "softmax_rows",
    "smooth_l1",
    "offset_loss",
    "seg_loss_ohem",
    "affinity_loss",
    "total_loss",
    "grad_check",
]

CE_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Objective weights; defaults follow the published operating point."""

    lambda_seg: float = 1.0
    lambda_off: float = 0.01
    lambda_aff: float = 1.0
    hard_pixel_ratio: float = 0.2

    def __post_init__(self):
        for name in ("lambda_seg", "lambda_off", "lambda_aff"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise LossError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.hard_pixel_ratio <= 1.0):
            raise LossError(f"hard pixel ratio must be in (0, 1], got {self.hard_pixel_ratio}")


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
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def smooth_l1(x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative: 0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.abs(x) < 1.0
    value = np.where(inner, 0.5 * x * x, np.abs(x) - 0.5)
    deriv = np.where(inner, x, np.sign(x))
    return value, deriv


def offset_loss(pred: OffsetField, target: OffsetField) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 over target-valid pixels, both vector components summed.

    Returns the scalar loss and its gradient w.r.t. the predicted vectors
    (zero outside the valid set).
    """
    if pred.shape != target.shape:
        raise LossError("offset field shape mismatch")
    valid = target.valid
    n = int(valid.sum())
    if n == 0:
        raise LossError("empty pseudo set")
    diff = pred.vectors - target.vectors
    value, deriv = smooth_l1(diff)
    per_pixel = value.sum(axis=2)[valid]
    grad = np.zeros_like(pred.vectors)
    grad[valid] = deriv[valid] / n
    return float(per_pixel.sum() / n), grad


def seg_loss_ohem(
    pred_scores: ClassScoreMap,
    target_classes: LabelGrid,
    ratio: float,
) -> tuple[float, np.ndarray]:
    """Cross entropy over the hardest ceil(ratio * N) pixels.

    Ties at the cutoff break by raster order. Returns the loss and its
    gradient w.r.t. the raw scores (softmax minus one-hot on kept pixels).
    """
    if not (0.0 < ratio <= 1.0):
        raise LossError(f"ratio must be in (0, 1], got {ratio}")
    h, w, ch = pred_scores.data.shape
    if target_classes.shape != (h, w):
        raise LossError("target shape mismatch")
    if int(target_classes.data.max()) >= ch:
        raise LossError("target class id exceeds score channels")
    n = h * w
    if n == 0:
        raise LossError("empty seg set")
    probs = softmax_rows(pred_scores.data.reshape(n, ch))
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


def affinity_loss(samples: AffinitySampleSet) -> tuple[float, np.ndarray]:
    """Sigmoid pair loss, implemented literally with the binary targets fed
    through the sigmoid as well, which leaves a constant floor of
    (1 - sigmoid(1)) per positive and sigmoid(0) per negative.

    Returns the loss and its gradient w.r.t. the predicted logits.
    """
    if len(samples) == 0:
        raise LossError("empty sample set")
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


def total_loss(
    parts: tuple[float, float, float],
    weights: LossWeights,
    counts: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> LossReport:
    """Weighted sum of (seg, off, aff) with the bookkeeping counts."""
    seg, off, aff = (float(p) for p in parts)
    total = weights.lambda_seg * seg + weights.lambda_off * off + weights.lambda_aff * aff
    return LossReport(
        seg=seg, off=off, aff=aff, total=total,
        n_seg_pixels=counts[0], n_off_pixels=counts[1],
        n_pos_pairs=counts[2], n_neg_pairs=counts[3],
    )


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    n_params: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(f, x0: np.ndarray, h: float = 1e-3, tol: float = 1e-4) -> GradCheckReport:
    """Compare f's analytic gradient against central finite differences.

    f maps a flat parameter vector to (value, gradient). The relative error
    denominator is floored at 1e-6, the checker's noise floor; f should be
    smooth near x0 (keep away from OHEM cutoffs and smooth-L1 kinks).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    _, analytic = f(x0)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x0.shape:
        raise LossError("gradient shape mismatch")
    numeric = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        up, _ = f(x0 + step)
        down, _ = f(x0 - step)
        numeric[i] = (up - down) / (2.0 * h)
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    return GradCheckReport(
        max_rel_error=float(rel.max()) if rel.size else 0.0,
        worst_index=worst,
        n_params=int(x0.size),
        tol=tol,
    )
