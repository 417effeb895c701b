"""Semantic-to-instance branch.

Turns a class-index map plus point annotations into initial instance labels
and offset targets, and groups predicted offsets back into instances by
center voting with a pseudo-box fallback.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PipelineError
from .grids import (
    DEFAULT_CONNECTIVITY,
    LabelGrid,
    OffsetField,
    Point,
    PointAnnotationSet,
    connected_components,
)

__all__ = [
    "InstanceRegion",
    "GroupingConfig",
    "extract_regions",
    "attach_points",
    "assign_points",
    "class_grid_from_instances",
    "compute_offset_field",
    "point_window",
    "group_instances",
    "finalize_pseudo_labels",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class InstanceRegion:
    """A connected same-class component of the semantic map."""

    region_id: int
    class_id: int
    pixels: np.ndarray  # (n, 2) int32 (y, x), raster order
    owner_points: tuple[int, ...] = ()  # instance ids matched to this region


@dataclass(frozen=True)
class GroupingConfig:
    """Center-voting parameters.

    vote_radius_tau None means max(H, W) / 4, resolved at grouping time.
    """

    vote_radius_tau: float | None = None
    pseudo_box_side: int = 16

    def __post_init__(self):
        if self.pseudo_box_side < 1:
            raise PipelineError("pseudo box side must be >= 1")
        tau = self.vote_radius_tau
        if tau is not None and not (math.isfinite(tau) and tau > 0):
            raise PipelineError(f"vote radius tau must be finite and > 0, got {tau}")


def extract_regions(
    semantic: LabelGrid, connectivity: int = DEFAULT_CONNECTIVITY
) -> list[InstanceRegion]:
    """One region per connected component per class, in (class, raster) order."""
    regions: list[InstanceRegion] = []
    width = semantic.width
    for class_id in semantic.ids():
        comps = connected_components(semantic.data == class_id, connectivity).data.ravel()
        # One stable sort groups the foreground by component id and keeps
        # raster order inside each group; bincount gives the group sizes.
        flat = np.flatnonzero(comps)
        ids = comps[flat]
        flat = flat[np.argsort(ids, kind="stable")]
        yx = np.stack(np.divmod(flat, width), axis=1).astype(np.int32)
        sizes = np.bincount(ids)[1:]
        for pixels in np.split(yx, np.cumsum(sizes)[:-1]):
            regions.append(InstanceRegion(len(regions) + 1, class_id, pixels))
    return regions


def attach_points(
    regions: list[InstanceRegion],
    points: PointAnnotationSet,
    shape: tuple[int, int],
) -> list[InstanceRegion]:
    """Match points to the regions containing them.

    A point whose class disagrees with its region's class is treated as not
    contained (corrupted semantics make this common); it is logged and left
    to the pseudo-box fallback downstream.
    """
    h, w = shape
    points.validate_on(h, w)
    region_at = np.zeros((h, w), dtype=np.int32)
    for region in regions:
        region_at[region.pixels[:, 0], region.pixels[:, 1]] = region.region_id
    owners: dict[int, list[int]] = {r.region_id: [] for r in regions}
    by_id = {r.region_id: r for r in regions}
    for p in points:
        rid = int(region_at[p.y, p.x])
        if rid == 0:
            continue
        if by_id[rid].class_id != p.class_id:
            log.warning(
                "point %s ignored: class %d region %d has class %d",
                (p.y, p.x), p.class_id, rid, by_id[rid].class_id,
            )
            continue
        owners[rid].append(p.instance_id)
    return [replace(r, owner_points=tuple(sorted(owners[r.region_id]))) for r in regions]


def assign_points(
    regions: list[InstanceRegion],
    points: PointAnnotationSet,
    shape: tuple[int, int],
) -> LabelGrid:
    """Initial instance labels from regions and points.

    Regions with one point take its instance id wholesale. Regions holding
    several points are split pixel-wise by nearest point (squared Euclidean,
    ties to the lowest instance id). Pointless regions become background.
    """
    out = np.zeros(shape, dtype=np.int32)
    pos = {p.instance_id: (p.y, p.x) for p in points}
    for region in attach_points(regions, points, shape):
        if not region.owner_points:
            continue
        if len(region.owner_points) == 1:
            out[region.pixels[:, 0], region.pixels[:, 1]] = region.owner_points[0]
            continue
        anchors = np.array([pos[i] for i in region.owner_points], dtype=np.int64)
        pix = region.pixels.astype(np.int64)
        d2 = ((pix[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
        # argmin takes the first minimum; owner_points are sorted ascending.
        chosen = np.asarray(region.owner_points)[np.argmin(d2, axis=1)]
        out[region.pixels[:, 0], region.pixels[:, 1]] = chosen
    return LabelGrid(out)


def _require_points(instances: LabelGrid, points: PointAnnotationSet) -> None:
    orphan = set(instances.ids()) - {p.instance_id for p in points}
    if orphan:
        raise PipelineError(f"instance ids without annotation points: {sorted(orphan)}")


def _class_table(instances: LabelGrid, points: PointAnnotationSet) -> np.ndarray:
    """Lookup table from instance id to its point's class; 0 maps to 0.

    Raises on an instance id that has no annotation point.
    """
    _require_points(instances, points)
    # Point ids are exactly 1..K and the set iterates in id order.
    return np.array([0, *(p.class_id for p in points)], dtype=np.int32)


def class_grid_from_instances(instances: LabelGrid, points: PointAnnotationSet) -> LabelGrid:
    """Class-index grid with each instance painted in its point's class."""
    return LabelGrid(_class_table(instances, points)[instances.data])


def compute_offset_field(instances: LabelGrid, points: PointAnnotationSet) -> OffsetField:
    """Pixel-to-point vectors: for a pixel m of instance k, vector = e_k - m.

    Background pixels are invalid with vector (0, 0).
    """
    _require_points(instances, points)
    pos = {p.instance_id: (p.y, p.x) for p in points}
    h, w = instances.shape
    max_id = max([0, *pos.keys()])
    anchor_y = np.zeros(max_id + 1, dtype=np.float64)
    anchor_x = np.zeros(max_id + 1, dtype=np.float64)
    for inst, (py, px) in pos.items():
        anchor_y[inst], anchor_x[inst] = py, px
    yy, xx = np.mgrid[0:h, 0:w]
    valid = instances.data > 0
    vec = np.zeros((h, w, 2), dtype=np.float64)
    vec[:, :, 0] = np.where(valid, anchor_y[instances.data] - yy, 0.0)
    vec[:, :, 1] = np.where(valid, anchor_x[instances.data] - xx, 0.0)
    return OffsetField(vec, valid)


def point_window(point: Point, side: int, shape: tuple[int, int]) -> tuple[slice, slice]:
    """The side x side window at a point, clipped to the grid: the pseudo-box.

    An even side puts the extra row and column below and right of the point.
    """
    h, w = shape
    half_lo, half_hi = (side - 1) // 2, side // 2
    return (
        slice(max(0, point.y - half_lo), min(h, point.y + half_hi + 1)),
        slice(max(0, point.x - half_lo), min(w, point.x + half_hi + 1)),
    )


def group_instances(
    pred_offsets: OffsetField,
    semantic: LabelGrid,
    points: PointAnnotationSet,
    cfg: GroupingConfig,
) -> LabelGrid:
    """Center voting: each candidate pixel votes at p + offset(p) and joins the
    nearest annotation within tau. Points left empty get a pseudo-box, which
    only ever claims background pixels (earlier points win contested ones)."""
    h, w = semantic.shape
    if pred_offsets.shape != (h, w):
        raise PipelineError("offset field shape mismatch")
    points.validate_on(h, w)
    tau = cfg.vote_radius_tau if cfg.vote_radius_tau is not None else max(h, w) / 4.0
    anchors = points.positions()
    inst_ids = np.array([p.instance_id for p in points], dtype=np.int32)

    yy, xx = np.mgrid[0:h, 0:w]
    votes = np.stack([yy + pred_offsets.vectors[:, :, 0], xx + pred_offsets.vectors[:, :, 1]], axis=2)
    candidates = semantic.data > 0

    out = np.zeros((h, w), dtype=np.int32)
    flat_votes = votes[candidates]
    if len(flat_votes):
        d2 = ((flat_votes[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
        best = np.argmin(d2, axis=1)  # ties resolve to the lowest instance id
        best_d2 = d2[np.arange(len(flat_votes)), best]
        assigned = np.where(best_d2 <= tau * tau, inst_ids[best], 0)
        out[candidates] = assigned

    present = set(np.unique(out[out > 0]).tolist())
    for p in points:
        if p.instance_id in present:
            continue
        box = out[point_window(p, cfg.pseudo_box_side, (h, w))]
        box[box == 0] = p.instance_id
    return LabelGrid(out)


def finalize_pseudo_labels(
    grouped: LabelGrid,
    semantic: LabelGrid,
    points: PointAnnotationSet,
) -> tuple[LabelGrid, dict[int, int]]:
    """Mask grouped instances by the semantic map.

    A pixel survives only where the semantic class equals the class of its
    instance's annotation point; everything else (semantic background
    included) is cleared. Returns the cleaned grid and the instance-to-class
    map of the surviving instances.
    """
    lut = _class_table(grouped, points)
    keep = (grouped.data > 0) & (semantic.data == lut[grouped.data])
    cleaned = np.where(keep, grouped.data, 0).astype(np.int32)
    grid = LabelGrid(cleaned)
    return grid, {i: int(lut[i]) for i in grid.ids()}
