"""Semantic-to-instance branch.

Turns a class-index map plus point annotations into initial instance labels
and offset targets. Grouping keeps the semantic regions' boundaries: a region
with one point is that point's instance, and only a region shared by several
points is split, each pixel going to the owner nearest its predicted vote.
Regions are one region-id grid with a region -> class table, and the points
give id-indexed class and anchor tables: labelling is a table gather, and
only regions holding two or more points are visited one by one.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PipelineError
from .grids import (
    DEFAULT_CONNECTIVITY,
    LabelGrid,
    OffsetField,
    PointAnnotationSet,
    connected_components,
)

__all__ = [
    "Regions",
    "extract_regions",
    "attach_points",
    "assign_points",
    "class_grid_from_instances",
    "compute_offset_field",
    "group_instances",
    "finalize_pseudo_labels",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Regions:
    """The connected same-class components of a semantic map.

    labels holds region ids 1..R in (class, raster) order, 0 on background;
    classes[r] is region r's class, classes[0] = 0; owners maps each region
    that holds matched points to their instance ids, ascending.
    """

    labels: LabelGrid
    classes: np.ndarray  # (R + 1,) int32
    owners: dict[int, tuple[int, ...]] = field(default_factory=dict)


def extract_regions(semantic: LabelGrid, connectivity: int = DEFAULT_CONNECTIVITY) -> Regions:
    """One region per connected component per class, in (class, raster) order.

    One labelling pass numbers the components in raster order; a stable sort
    by class renumbers them class by class.
    """
    comps = connected_components(semantic.data, connectivity).data
    comp_class = np.zeros(int(comps.max()) + 1, dtype=np.int32)
    comp_class[comps] = semantic.data
    order = np.argsort(comp_class[1:], kind="stable") + 1
    relabel = np.zeros_like(comp_class)
    relabel[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return Regions(LabelGrid(relabel[comps]), comp_class[np.r_[0, order]])


def attach_points(regions: Regions, points: PointAnnotationSet) -> Regions:
    """Match points to the regions containing them.

    A point whose class disagrees with its region's class is treated as not
    contained; it is logged and owns no region, so its instance stays empty.
    """
    points.validate_on(*regions.labels.shape)
    owners: dict[int, tuple[int, ...]] = {}
    for p in points:  # in instance-id order
        rid = int(regions.labels.data[p.y, p.x])
        if rid and regions.classes[rid] != p.class_id:
            log.warning(
                "point %s ignored: class %d region %d has class %d",
                (p.y, p.x), p.class_id, rid, regions.classes[rid],
            )
        elif rid:
            owners[rid] = (*owners.get(rid, ()), p.instance_id)
    return replace(regions, owners=owners)


def _split_shared(
    labels: np.ndarray, regions: Regions, points: PointAnnotationSet, vectors=None
) -> LabelGrid:
    """Split, in place, each region of `labels` holding two or more points:
    each pixel p of the region goes to the point nearest its vote
    p + vectors[p], or nearest p itself when vectors is None.

    Squared Euclidean distance; ties go to the lowest instance id, as argmin
    takes the first minimum and owners are sorted ascending.
    """
    anchors = points.anchor_table()
    for rid, owners in regions.owners.items():
        if len(owners) < 2:
            continue
        owners = np.asarray(owners)
        ys, xs = np.nonzero(regions.labels.data == rid)
        votes = np.stack([ys, xs], axis=1) + (0 if vectors is None else vectors[ys, xs])
        d2 = ((votes[:, None, :] - anchors[owners][None]) ** 2).sum(axis=2)
        labels[ys, xs] = owners[np.argmin(d2, axis=1)]
    return LabelGrid(labels)


def assign_points(regions: Regions, points: PointAnnotationSet) -> LabelGrid:
    """Initial instance labels from regions that attach_points has matched.

    Regions with one point take its instance id wholesale. Regions holding
    several points are split pixel-wise by the nearest point's position.
    Pointless regions become background.
    """
    lut = np.zeros(len(regions.classes), dtype=np.int32)
    lut[list(regions.owners)] = [owners[0] for owners in regions.owners.values()]
    return _split_shared(lut[regions.labels.data], regions, points)


def _require_points(instances: LabelGrid, points: PointAnnotationSet) -> None:
    orphan = points.ids_without_points(instances)
    if orphan:
        raise PipelineError(f"instance ids without annotation points: {orphan}")


def class_grid_from_instances(instances: LabelGrid, points: PointAnnotationSet) -> LabelGrid:
    """Class-index grid with each instance painted in its point's class."""
    _require_points(instances, points)
    return LabelGrid(points.class_table()[instances.data])


def compute_offset_field(instances: LabelGrid, points: PointAnnotationSet) -> OffsetField:
    """Pixel-to-point vectors: for a pixel m of instance k, vector = e_k - m.

    Background pixels are invalid, and OffsetField zeroes their vectors.
    """
    _require_points(instances, points)
    anchor_y, anchor_x = points.anchor_table().T
    yy, xx = np.indices(instances.shape)
    vec = np.stack([anchor_y[instances.data] - yy, anchor_x[instances.data] - xx], axis=2)
    return OffsetField(vec, instances.data > 0)


def group_instances(
    pred_offsets: OffsetField,
    initial: LabelGrid,
    regions: Regions,
    points: PointAnnotationSet,
) -> LabelGrid:
    """Group pixels within their semantic regions by centre voting.

    `initial` holds the stage's region-matching labels and `regions` the
    matched regions they came from. Each pixel of a region with two or more
    owner points goes to the owner nearest its vote p + offset(p); every
    other pixel keeps its label.
    """
    if pred_offsets.shape != initial.shape:
        raise PipelineError("offset field shape mismatch")
    return _split_shared(initial.data.copy(), regions, points, pred_offsets.vectors)


def finalize_pseudo_labels(
    grouped: LabelGrid,
    semantic: LabelGrid,
    points: PointAnnotationSet,
) -> LabelGrid:
    """Mask grouped instances by the semantic map.

    A pixel survives only where the semantic class equals the class of its
    instance's annotation point; everything else (semantic background
    included) is cleared, such as pixels a pinned map gave another class.
    """
    _require_points(grouped, points)
    lut = points.class_table()  # lut[0] = 0: background stays background
    return LabelGrid(np.where(semantic.data == lut[grouped.data], grouped.data, 0))
