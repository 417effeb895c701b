"""Deterministic synthetic scenes and a corruption model for semantic inputs.

A scene is a small raster world: ground-truth instances, their class map, one
annotated interior point per instance, and its image, one intensity plane.
The corruption model stands in for an imperfect off-the-shelf semantic map.
The predictor's features are built from the image and a semantic map by
features_from_semantic alone; a scene holds none, so the predictor sees
ground truth only where a caller passes it in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, SceneError
from .grids import PGM_MAX_ID, LabelGrid, Point, PointAnnotationSet

__all__ = [
    "Scene",
    "CorruptionConfig",
    "generate_scene",
    "corrupt_semantic",
    "pick_points",
    "features_from_semantic",
]

_PLACEMENT_TRIES = 60
_SCENE_RESTARTS = 16
_MIN_NEW_PIXELS = 9
_MAX_OCCLUDED_FRACTION = 0.35


@dataclass(frozen=True, eq=False)
class Scene:
    """Ground truth plus the image of one synthetic scene.

    Construction checks that both gt grids and the intensity share one
    H x W, that the intensity is finite, that n_classes is an int >= 1,
    that every point lies on the grid, that no point's class exceeds
    n_classes and that every gt instance has a point. The scene keeps a
    read-only float64 copy of the intensity.
    """

    gt_instances: LabelGrid
    gt_semantic: LabelGrid
    points: PointAnnotationSet
    intensity: np.ndarray  # (H, W) float64
    n_classes: int

    def __post_init__(self):
        shape = self.gt_instances.shape
        if self.gt_semantic.shape != shape:
            raise SceneError(
                f"gt semantic grid {self.gt_semantic.shape} differs from gt instance grid {shape}"
            )
        if np.shape(self.intensity) != shape:
            raise SceneError(f"intensity of shape {np.shape(self.intensity)} on a {shape} grid")
        intensity = np.array(self.intensity, dtype=np.float64)
        if not np.isfinite(intensity).all():
            raise SceneError("intensity holds non-finite values")
        intensity.setflags(write=False)
        object.__setattr__(self, "intensity", intensity)
        if type(self.n_classes) is not int or self.n_classes < 1:
            raise SceneError(f"n_classes must be an int >= 1, got {self.n_classes!r}")
        try:
            self.points.validate_on(*shape)
        except GridError as err:
            raise SceneError(str(err)) from None
        top = max((p.class_id for p in self.points), default=0)
        if top > self.n_classes:
            raise SceneError(f"point class {top} exceeds the scene's {self.n_classes} classes")
        unpointed = self.points.ids_without_points(self.gt_instances)
        if unpointed:
            raise SceneError(f"gt instance ids {unpointed} have no annotated point")


@dataclass(frozen=True)
class CorruptionConfig:
    """Morphological and stochastic damage applied to a clean semantic map."""

    dilation_px: int = 0
    erosion_px: int = 0
    merge_adjacent: bool = False
    flip_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.dilation_px < 0 or self.erosion_px < 0:
            raise SceneError("dilation/erosion must be >= 0")
        if not (0.0 <= self.flip_rate < 1.0):
            raise SceneError(f"flip rate must be in [0, 1), got {self.flip_rate}")


def _shift_or(mask: np.ndarray) -> np.ndarray:
    """One 8-neighborhood dilation step: a 3-wide OR along rows, then along
    columns. Pixels beyond the array count as False, so a crop steps as the
    whole grid does if each side keeps a margin the mask does not reach or
    ends at the grid edge, which erosion (`~_shift_or(~m)`) treats as inside.
    """
    row = mask.copy()
    row[:, 1:] |= mask[:, :-1]
    row[:, :-1] |= mask[:, 1:]
    out = row.copy()
    out[1:] |= row[:-1]
    out[:-1] |= row[1:]
    return out


def _dilate(mask: np.ndarray, n: int) -> np.ndarray:
    for _ in range(min(n, sum(mask.shape))):  # a mask is fixed after H + W steps
        mask = _shift_or(mask)
    return mask


def _erode(mask: np.ndarray, n: int) -> np.ndarray:
    return ~_dilate(~mask, n)


def _rasterize(kind: str, sy: int, sx: int) -> np.ndarray:
    """The shape on its own sy x sx box; an ellipse never leaves its box."""
    if kind == "rect":
        return np.ones((sy, sx), dtype=bool)
    yy, xx = np.ogrid[0:sy, 0:sx]
    cy, cx, ry, rx = (sy - 1) / 2.0, (sx - 1) / 2.0, sy / 2.0, sx / 2.0
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def generate_scene(
    seed: int,
    h: int = 64,
    w: int = 64,
    n_instances: int | None = None,
    n_classes: int = 3,
    shape_kind: str = "mixed",
) -> Scene:
    """Place shapes deterministically; later-drawn instances occlude earlier ones.

    Classes are assigned round-robin so the pigeonhole guarantees same-class
    pairs whenever n_instances > n_classes. The image is a per-instance
    jittered intensity on a zero background. n_instances None, `pointseg
    synth`'s default, is drawn from 2-6 by a generator of its own on the seed.
    """
    if seed < 0:
        raise SceneError(f"seed must be >= 0, got {seed}")
    if n_instances is None:
        n_instances = int(np.random.default_rng(seed).integers(2, 7))
    if h < 1 or w < 1:
        raise SceneError(f"grid must be at least 1 x 1, got {h} x {w}")
    if n_instances < 1 or not 1 <= n_classes <= PGM_MAX_ID:  # a label PGM's largest id
        raise SceneError(f"need at least one instance and 1..{PGM_MAX_ID} classes")
    if shape_kind not in ("rect", "ellipse", "mixed"):
        raise SceneError(f"unknown shape kind {shape_kind!r}")
    last_error = None
    for restart in range(_SCENE_RESTARTS):
        # Restarts draw a fresh deterministic stream; restart 0 is the plain
        # per-seed stream so existing scenes stay reproducible.
        rng = (
            np.random.default_rng(seed)
            if restart == 0
            else np.random.default_rng(np.random.SeedSequence([seed, restart]))
        )
        try:
            return _generate_scene_once(rng, seed, h, w, n_instances, n_classes, shape_kind)
        except SceneError as err:
            last_error = err
    raise SceneError(f"placement failed after {_SCENE_RESTARTS} restarts: {last_error}")


def _generate_scene_once(
    rng: np.random.Generator,
    seed: int,
    h: int,
    w: int,
    n_instances: int,
    n_classes: int,
    shape_kind: str,
) -> Scene:
    # Classes come in pairs (1,1,2,2,...) so same-class neighbors, the hard
    # case for point-based separation, appear even in two-instance scenes.
    class_ids = np.array([1 + (i // 2) % n_classes for i in range(n_instances)])
    rng.shuffle(class_ids)

    lo = max(4, min(16, min(h, w) // 4))
    hi = max(lo + 1, min(h, w) * 13 // 32)
    mid = (lo + hi) // 2
    # Alternate small and large footprints: size contrast between neighbors
    # is what makes naive midline splits fail.
    size_band = [(lo, mid) if i % 2 else (mid, hi) for i in range(n_instances)]
    rng.shuffle(size_band)
    instances = np.zeros((h, w), dtype=np.int32)
    boxes: list[tuple[int, int, int, int]] = []  # (y0, x0, sy, sx) per instance
    for inst in range(1, n_instances + 1):
        b_lo, b_hi = size_band[inst - 1]
        before = np.bincount(instances.ravel(), minlength=inst + 1)
        placed = False
        for attempt in range(_PLACEMENT_TRIES):
            sy = int(rng.integers(b_lo, b_hi + 1))
            sx = int(rng.integers(b_lo, b_hi + 1))
            if sy >= h or sx >= w:
                continue
            if boxes and attempt < _PLACEMENT_TRIES // 2:
                # Crowd instances together: neighboring objects are the hard
                # case point supervision must untangle.
                by, bx, bsy, bsx = boxes[int(rng.integers(len(boxes)))]
                gap = int(rng.integers(1, 4))
                side = int(rng.integers(4))
                if side == 0:
                    y0, x0 = by - gap - sy, bx + int(rng.integers(-sx // 2, bsx - sx // 2 + 1))
                elif side == 1:
                    y0, x0 = by + bsy + gap, bx + int(rng.integers(-sx // 2, bsx - sx // 2 + 1))
                elif side == 2:
                    y0, x0 = by + int(rng.integers(-sy // 2, bsy - sy // 2 + 1)), bx - gap - sx
                else:
                    y0, x0 = by + int(rng.integers(-sy // 2, bsy - sy // 2 + 1)), bx + bsx + gap
                if not (0 <= y0 <= h - sy and 0 <= x0 <= w - sx):
                    continue
            else:
                y0 = int(rng.integers(0, h - sy + 1))
                x0 = int(rng.integers(0, w - sx + 1))
            kind = shape_kind if shape_kind != "mixed" else ("rect", "ellipse")[int(rng.integers(2))]
            mask = _rasterize(kind, sy, sx)
            if mask.sum() < _MIN_NEW_PIXELS:
                continue
            # Partial occlusion is allowed (it exercises same-class adjacency)
            # but no earlier instance may lose more than a cap of its pixels.
            box = instances[y0 : y0 + sy, x0 : x0 + sx]
            after = before - np.bincount(box[mask], minlength=inst + 1)
            prev = slice(1, inst)
            if np.all(after[prev] >= np.ceil((1.0 - _MAX_OCCLUDED_FRACTION) * before[prev])):
                box[mask] = inst
                boxes.append((y0, x0, sy, sx))
                placed = True
                break
        if not placed:
            raise SceneError(f"placement failed for instance {inst} (seed {seed})")

    semantic = np.zeros_like(instances)
    fg = instances > 0
    semantic[fg] = class_ids[instances[fg] - 1]

    # Distinct jittered intensity levels so instances are tellable apart.
    order = rng.permutation(n_instances)
    span = 0.6 / max(1, n_instances - 1) if n_instances > 1 else 0.0
    levels = 0.35 + span * order + rng.uniform(-0.04, 0.04, size=n_instances)
    levels = np.clip(levels, 0.05, 1.0)
    intensity = np.zeros((h, w), dtype=np.float64)
    intensity[fg] = levels[instances[fg] - 1]

    gt_instances = LabelGrid(instances)
    gt_semantic = LabelGrid(semantic)
    points = pick_points(gt_instances, seed, gt_semantic)
    return Scene(gt_instances, gt_semantic, points, intensity, n_classes)


def features_from_semantic(scene: Scene, semantic: LabelGrid) -> np.ndarray:
    """The predictor's (H, W, C+1+3) input features: the one-hot channels of
    `semantic`, the normalized y and x, and the scene's intensity.

    The one place that knows the feature layout. The predictor must never
    see the ground-truth semantic map, so pipeline code passes the corrupted
    (or refreshed) map.
    """
    (h, w), c1 = scene.intensity.shape, scene.n_classes + 1
    if semantic.shape != (h, w):
        raise SceneError("semantic shape mismatch")
    if int(semantic.data.max()) >= c1:
        raise SceneError("semantic class id exceeds scene class count")
    feats = np.empty((h, w, c1 + 3), dtype=np.float64)
    feats[:, :, :c1] = semantic.data[:, :, None] == np.arange(c1)
    feats[:, :, -3] = (np.arange(h) / max(h - 1, 1))[:, None]
    feats[:, :, -2] = np.arange(w) / max(w - 1, 1)
    feats[:, :, -1] = scene.intensity
    feats.setflags(write=False)
    return feats


def _chebyshev_distance(mask: np.ndarray, cap: int) -> np.ndarray:
    """Distance to the mask under 8-neighborhood steps, saturated at cap.
    Pixels beyond the array are not in the mask."""
    dist = np.full(mask.shape, cap, dtype=np.int32)
    dist[mask] = 0
    frontier = mask
    for k in range(1, cap):
        if frontier.all():
            break
        frontier = _shift_or(frontier)
        dist[frontier & (dist == cap)] = k
    return dist


def corrupt_semantic(scene: Scene, cfg: CorruptionConfig) -> LabelGrid:
    """Damage the ground-truth semantic map: per-class dilation/erosion,
    optional bridging of nearby same-class blobs, then random label flips.

    Where the grown masks of two classes collide, the pixel goes to the class
    whose original region is nearer, so dilation fronts meet mid-gap instead
    of annexing a neighbor's territory.
    """
    sem = scene.gt_semantic.data
    h, w = sem.shape
    n_classes = int(sem.max())
    # Every distance on the grid is below h + w, so a larger reach decides nothing.
    reach = min(cfg.dilation_px + (4 if cfg.merge_adjacent else 0) + 2, h + w)
    claims = np.zeros((n_classes + 1, h, w), dtype=bool)
    for c in range(1, n_classes + 1):
        mask = sem == c
        if not mask.any():
            continue
        mask = _dilate(mask, cfg.dilation_px)
        mask = _erode(mask, cfg.erosion_px)
        if cfg.merge_adjacent:
            mask = _erode(_dilate(mask, 2), 2)
        claims[c] = mask

    out = np.zeros_like(sem)
    contested = claims[1:].sum(axis=0) > 1
    for c in range(1, n_classes + 1):
        out[claims[c] & ~contested] = c
    if contested.any():
        dists = np.stack(
            [_chebyshev_distance(sem == c, reach) for c in range(1, n_classes + 1)]
        )
        dists = np.where(claims[1:], dists, reach + 1)
        winner = np.argmin(dists, axis=0) + 1  # ties go to the lower class id
        out[contested] = winner[contested]

    if cfg.flip_rate > 0.0 and n_classes > 0:  # with no foreground there is no class to flip to
        rng = np.random.default_rng(cfg.rng_seed)
        flip = rng.random((h, w)) < cfg.flip_rate
        bump = rng.integers(1, n_classes + 1, size=(h, w))
        out = np.where(flip, (out + bump) % (n_classes + 1), out)
    return LabelGrid(out.astype(np.int32))


def pick_points(
    gt_instances: LabelGrid, seed: int, semantic: LabelGrid
) -> PointAnnotationSet:
    """One annotated point per instance, always a pixel of that instance,
    with the class `semantic` holds there.

    Each point is a seeded draw over the region's pixels, weighted toward the
    interior the way human clicks are; every region pixel stays possible.
    The peel runs on the instance's box plus a 1-pixel background margin,
    clipped to the grid, where the grid edge stops it as on the whole grid.
    """
    ids = gt_instances.ids()
    if ids != list(range(1, len(ids) + 1)):
        raise SceneError(f"instance ids must be dense 1..K, got {ids}")
    rng = np.random.default_rng(seed)
    pts = []
    for inst in ids:
        pix = np.argwhere(gt_instances.data == inst)
        (y0, x0), (y1, x1) = np.maximum(pix.min(axis=0) - 1, 0), pix.max(axis=0) + 2
        inside = gt_instances.data[y0:y1, x0:x1] == inst
        # Peel depth: the 8-neighbour distance to the background. The grid
        # edge is not background, so a mask filling its array never peels.
        depth = (
            np.ones(inside.shape, dtype=np.int32) if inside.all()
            else _chebyshev_distance(~inside, sum(inside.shape))
        )
        weights = depth[pix[:, 0] - y0, pix[:, 1] - x0] ** 2
        y, x = pix[int(rng.choice(len(pix), p=weights / weights.sum()))]
        pts.append(Point(int(y), int(x), int(semantic.data[y, x]), inst))
    return PointAnnotationSet(tuple(pts))
