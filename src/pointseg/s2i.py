"""Semantic-to-instance branch.

Turns a class-index map plus point annotations into initial instance labels
and offset targets. Grouping keeps the semantic regions' boundaries: a region
with one point is that point's instance, and only a region shared by several
points is split, each pixel going to the owner nearest its predicted vote.
"""
from __future__ import annotations

import logging
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


def _nearest_owner(
    coords: np.ndarray, region: InstanceRegion, points: PointAnnotationSet
) -> np.ndarray:
    """The owner point of `region` nearest each (y, x) row of `coords`.

    Squared Euclidean distance; ties go to the lowest instance id, as argmin
    takes the first minimum and owner_points are sorted ascending.
    """
    owners = np.asarray(region.owner_points)
    anchors = points.positions()[owners - 1]  # point ids are exactly 1..K
    d2 = ((coords[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    return owners[np.argmin(d2, axis=1)]


def assign_points(
    regions: list[InstanceRegion],
    points: PointAnnotationSet,
    shape: tuple[int, int],
) -> LabelGrid:
    """Initial instance labels from regions that attach_points has matched.

    Regions with one point take its instance id wholesale. Regions holding
    several points are split pixel-wise by the nearest point's position.
    Pointless regions become background.
    """
    out = np.zeros(shape, dtype=np.int32)
    for region in regions:
        if not region.owner_points:
            continue
        ys, xs = region.pixels[:, 0], region.pixels[:, 1]
        if len(region.owner_points) == 1:
            out[ys, xs] = region.owner_points[0]
        else:
            out[ys, xs] = _nearest_owner(region.pixels, region, points)
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
    initial: LabelGrid,
    regions: list[InstanceRegion],
    points: PointAnnotationSet,
) -> LabelGrid:
    """Group pixels within their semantic regions by centre voting.

    `initial` holds the stage's region-matching labels and `regions` the
    matched regions they came from. Each pixel of a region with two or more
    owner points goes to the owner nearest its vote p + offset(p), unless a
    pseudo-box gave it to a point outside the region; every other pixel
    keeps its label.
    """
    if pred_offsets.shape != initial.shape:
        raise PipelineError("offset field shape mismatch")
    out = initial.data.copy()
    for region in regions:
        if len(region.owner_points) < 2:
            continue
        ys, xs = region.pixels[:, 0], region.pixels[:, 1]
        owned = np.isin(out[ys, xs], region.owner_points)
        ys, xs = ys[owned], xs[owned]
        votes = np.stack([ys, xs], axis=1) + pred_offsets.vectors[ys, xs]
        out[ys, xs] = _nearest_owner(votes, region, points)
    return LabelGrid(out)


def finalize_pseudo_labels(
    grouped: LabelGrid,
    semantic: LabelGrid,
    points: PointAnnotationSet,
) -> tuple[LabelGrid, dict[int, int]]:
    """Mask grouped instances by the semantic map.

    A pixel survives only where the semantic class equals the class of its
    instance's annotation point; everything else (semantic background
    included) is cleared. After group_instances only a pseudo-box can cover
    another class or background. Returns the cleaned grid and the
    instance-to-class map of the surviving instances.
    """
    lut = _class_table(grouped, points)
    keep = (grouped.data > 0) & (semantic.data == lut[grouped.data])
    cleaned = np.where(keep, grouped.data, 0).astype(np.int32)
    grid = LabelGrid(cleaned)
    return grid, {i: int(lut[i]) for i in grid.ids()}
