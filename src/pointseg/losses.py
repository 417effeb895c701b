"""Training objectives with hand-derived gradients.

Three losses: smooth-L1 offset regression over pseudo-labeled pixels,
online-hard-example-mined cross entropy over the class map, and the
sigmoid pixel-pair affinity loss. A central-finite-difference checker
verifies every analytic gradient.

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
    "LossWeights",
    "LossReport",
    "GradCheckReport",
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise LossError(f"{name} must be finite and >= 0, got {value}")
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
