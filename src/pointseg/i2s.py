"""Instance-to-semantic branch.

Builds binary pixel-pair affinity targets from an instance map and refreshes
a class score map through a row-normalized Hadamard-powered affinity
operator. Affinity is evaluated only at sampled pairs or within a
neighborhood radius. The refresh takes one of two affinity sources:

  * a symmetric callable over two aligned slice windows of the grid, called
    once per unordered offset, so every pair of an offset is evaluated in
    one vectorised step and added at both of its ends (the predicted
    affinity of the training loop, a sigmoid of embedding dot products);
  * an instance LabelGrid, whose 0/1 same-instance affinity reduces the
    refresh to box sums over each instance's mask, one grids.box_sum over
    the instance's bounding box (`pointseg i2s`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PipelineError
from .grids import ClassScoreMap, LabelGrid, box_sum

__all__ = [
    "I2SConfig",
    "AffinitySampleSet",
    "build_affinity_targets",
    "refresh_semantic",
]

Window = tuple[slice, slice]
AffinityFn = Callable[[Window, Window], np.ndarray]
# Pixels per multiply-add of the callable refresh: the (C + 1, _CHUNK) product
# stays in cache until it is added.
_CHUNK = 8192


@dataclass(frozen=True)
class I2SConfig:
    beta: float = 2.0
    pair_radius: int = 8
    max_pairs: int = 4096

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise PipelineError(f"beta must be finite and >= 1, got {self.beta}")
        if self.pair_radius < 1:
            raise PipelineError("pair radius must be >= 1")
        if self.max_pairs < 2:
            raise PipelineError("max_pairs must be >= 2")


@dataclass(frozen=True, eq=False)
class AffinitySampleSet:
    """Sampled pixel pairs with binary same-instance targets.

    a and b are (n,) int arrays of the pairs' ends as flat raster indices
    y * W + x; targets are 1.0 for same-instance pairs and 0.0 otherwise.
    """

    a: np.ndarray
    b: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "targets"):
            arr = np.asarray(getattr(self, name))
            object.__setattr__(self, name, arr)
        if len(self.a) != len(self.b) or len(self.a) != len(self.targets):
            raise PipelineError("pair arrays must have equal length")

    def __len__(self) -> int:
        return len(self.targets)


def _half_plane_offsets(radius: int, h: int, w: int) -> list[tuple[int, int]]:
    """Each unordered pair within Chebyshev radius exactly once, keeping only
    the offsets some pixel pair of an h x w grid spans."""
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    return [(dy, dx) for dy in range(ry + 1) for dx in range(-rx, rx + 1) if dy or dx > 0]


def _offset_windows(h: int, w: int, dy: int, dx: int) -> tuple[Window, Window]:
    """Equal-shape windows of the pixels i and their partners j = i + (dy, dx)."""
    win_i = (slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx)))
    win_j = (slice(max(0, dy), h + min(0, dy)), slice(max(0, dx), w + min(0, dx)))
    return win_i, win_j


def build_affinity_targets(
    instances: LabelGrid, cfg: I2SConfig, seed: int = 0
) -> AffinitySampleSet:
    """Sample up to max_pairs pixel pairs within pair_radius.

    Pairs of two background pixels are excluded. Positives and negatives
    differ by at most one unless one side runs out. Sampling is deterministic
    per seed. A radius past the grid samples as the largest radius that fits.

    Both ends of a candidate lie within pair_radius of the foreground's
    bounding box, so the draw works on that box alone. Each side marks its
    candidates on one boolean plane of the box per offset of
    _half_plane_offsets, at the pair's first end, and counts each plane as it
    marks it. A candidate's key is its offset's index times the box's size
    plus its first end's raster index in the box, and its rank is its place
    in key order: window raster order is box raster order, and box raster
    order is grid raster order. Ranks are drawn without replacement,
    positives first. The cumulative plane counts give each drawn rank its
    plane and its rank within that plane, and one np.flatnonzero of the
    plane gives its first end. The pairs come out sorted by key, the order
    of the full candidate list.
    """
    h, w = instances.shape
    fg = instances.data > 0
    rows, cols = np.flatnonzero(fg.any(axis=1)), np.flatnonzero(fg.any(axis=0))
    if not len(rows):
        raise PipelineError("no affinity pairs")
    r = min(cfg.pair_radius, max(h, w))
    y0, x0 = max(int(rows[0]) - r, 0), max(int(cols[0]) - r, 0)
    box = np.s_[y0 : int(rows[-1]) + r + 1, x0 : int(cols[-1]) + r + 1]
    lab, fg = instances.data[box], fg[box]
    bh, bw = lab.shape
    offsets = _half_plane_offsets(cfg.pair_radius, bh, bw)
    planes = np.zeros((2, len(offsets), bh, bw), dtype=bool)  # positives, negatives
    counts = np.zeros((2, len(offsets)), dtype=np.int64)
    for k, (dy, dx) in enumerate(offsets):
        win_a, win_b = _offset_windows(bh, bw, dy, dx)
        same = (lab[win_a] == lab[win_b]) & fg[win_a]
        # A same-instance pair has both ends in the foreground.
        for side, marks in enumerate((same, (fg[win_a] | fg[win_b]) ^ same)):
            planes[side, k][win_a] = marks
            counts[side, k] = np.count_nonzero(marks)
    supply = counts.sum(axis=1).tolist()
    if sum(supply) == 0:
        raise PipelineError("no affinity pairs")

    rng = np.random.default_rng(seed)
    n_pos = min(supply[0], (cfg.max_pairs + 1) // 2)
    n_neg = min(supply[1], cfg.max_pairs - n_pos)
    n_pos = min(supply[0], cfg.max_pairs - n_neg)
    keys = []
    for side, n_draw in enumerate((n_pos, n_neg)):
        ranks = np.sort(rng.choice(supply[side], n_draw, replace=False))
        ends = np.cumsum(counts[side])
        plane = np.searchsorted(ends, ranks, side="right")
        within = ranks - (ends[plane] - counts[side, plane])
        first = np.empty_like(within)
        # Sorted, the draws on plane k are one run, [lo, hi).
        lo = 0
        for k, hi in enumerate(np.searchsorted(plane, np.arange(1, len(offsets) + 1)).tolist()):
            if hi > lo:
                first[lo:hi] = np.flatnonzero(planes[side, k])[within[lo:hi]]
                lo = hi
        keys.append(plane * lab.size + first)
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    k, at = np.divmod(keys[order], lab.size)
    dy, dx = np.array(offsets)[k].T
    a = (at // bw + y0) * w + at % bw + x0
    targets = np.repeat([1.0, 0.0], [n_pos, n_neg])[order]
    return AffinitySampleSet(a=a, b=a + dy * w + dx, targets=targets)


def refresh_semantic(
    affinity: AffinityFn | LabelGrid,
    class_map: ClassScoreMap,
    cfg: I2SConfig,
) -> ClassScoreMap:
    """Refresh class scores through the affinity operator.

    Each output row is sum_j W_ij * C(j, .) with W the row-normalized
    Hadamard power affinity over the pixels j within cfg.pair_radius
    (Chebyshev, clipped to the grid), self-affinity fixed at 1.

    `affinity` is either a callable f(win_i, win_j) -> values in [0, 1] or
    an instance LabelGrid of the class map's grid.

    A callable must be symmetric: f(win_j, win_i) would return the same
    values as f(win_i, win_j). It is called once per unordered offset, for
    the half-plane offsets (dy, dx) with dy > 0, or dy == 0 and dx > 0, in
    the order _half_plane_offsets lists them, skipping offsets no pixel pair
    of the grid spans. Each win is a (row slice, column slice) window of the
    grid; the two have equal shape, pixel j = i + (dy, dx) sits at the same
    place in win_j as i in win_i, and f returns one value per pair as a 1-D
    array in raster order of the window. Each offset's values are added at
    the i side (W_ij C(j, .) into row i) and then at the j side (W_ji C(i, .)
    into row j), so each pixel's sums accumulate in that order. A pixel
    whose partner at an offset is off the grid still gets that offset's
    term, an exact 0: it changes no value, but a score of -0.0 can come out
    as +0.0.

    A LabelGrid makes two pixels affine (1) when they carry the same nonzero
    id and not affine (0) otherwise. cfg.beta cannot change a 0/1 affinity:
    a foreground row becomes the mean of its instance's rows within the
    window, and a background row is kept. On integer-valued scores, one-hot
    maps included, every partial sum is exact, so the result equals the
    callable path's bit for bit; on other scores the two differ only by
    the order of summation.
    """
    if isinstance(affinity, LabelGrid):
        if affinity.shape != class_map.data.shape[:2]:
            raise PipelineError("instances and classmap disagree on the grid")
        return _refresh_by_instances(affinity, class_map, cfg.pair_radius)
    h, w, ch = class_map.data.shape
    # The class planes and a last plane of ones, whose sums are each pixel's
    # weight, as flat rasters of width w + pad: pixel i's partner at offset
    # (dy, dx) sits at i + dy * (w + pad) + dx, in the pad when it is off the
    # grid's side. So each side of an offset is a multiply-add over
    # contiguous slices, and a pair with an end off the grid adds an exact 0:
    # its value is 0 in `vals`, and the pad columns hold 1s.
    wp = w + min(cfg.pair_radius, w - 1)
    n = h * wp
    planes = np.ones((ch + 1, h, wp))
    planes[:ch, :, :w] = class_map.data.transpose(2, 0, 1)
    planes = planes.reshape(ch + 1, n)
    acc = planes.copy()  # diagonal term with weight 1^beta = 1
    vals, term = np.empty(n), np.empty((ch + 1, _CHUNK))
    for dy, dx in _half_plane_offsets(cfg.pair_radius, h, w):
        win_i, win_j = _offset_windows(h, w, dy, dx)
        vals.fill(0.0)
        window = np.asarray(affinity(win_i, win_j), dtype=np.float64) ** cfg.beta
        vals.reshape(h, wp)[win_i] = window.reshape(h - dy, w - abs(dx))
        # The i side, then the j side: pixels i < m pair with j = i + shift.
        shift = dy * wp + dx
        m = n - shift
        for dst, src in ((acc[:, :m], planes[:, shift:]), (acc[:, shift:], planes[:, :m])):
            for at in range(0, m, _CHUNK):
                part = slice(at, min(at + _CHUNK, m))
                dst[:, part] += np.multiply(vals[part], src[:, part], out=term[:, : part.stop - at])
    return ClassScoreMap((acc[:ch] / acc[ch]).reshape(ch, h, wp)[:, :, :w].transpose(1, 2, 0))


def _refresh_by_instances(
    instances: LabelGrid, class_map: ClassScoreMap, r: int
) -> ClassScoreMap:
    """The refresh under the 0/1 same-instance affinity of `instances`."""
    scores = class_map.data
    out = scores.copy()  # a background row is affine to itself alone: kept
    width = instances.shape[1]
    flat_lab = instances.data.ravel()
    # One stable sort groups the foreground pixels by id.
    flat = np.flatnonzero(flat_lab)
    flat = flat[np.argsort(flat_lab[flat], kind="stable")]
    cuts = np.flatnonzero(np.diff(flat_lab[flat])) + 1
    for pixels in np.split(flat, cuts):
        if not len(pixels):
            continue  # an all-background grid
        ys, xs = np.divmod(pixels, width)
        y0, x0 = ys.min(), xs.min()
        local = (ys - y0, xs - x0)
        mask = np.zeros((ys.max() - y0 + 1, xs.max() - x0 + 1))
        mask[local] = 1.0
        crop = scores[y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1]]
        sums = box_sum(np.dstack([crop * mask[:, :, None], mask]), r)[local]
        out[ys, xs] = sums[:, :-1] / sums[:, -1:]
    return ClassScoreMap(out)
