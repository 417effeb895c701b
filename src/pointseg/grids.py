"""Raster types, connected-component labeling by run-based union-find, a
clipped window sum, and bit-exact codecs.

points.csv and classes.csv share one integer-CSV grammar, read by
decode_int_csv and written by encode_int_csv: a header line naming the
fields, then a row of comma-separated integers per non-blank line.

Conventions shared by the whole package:
  * coordinates are (y, x) with the origin at the top-left pixel
  * offset vectors are stored as (dy, dx) in pixel units
  * label id 0 always means background
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import GridError

__all__ = [
    "LabelGrid",
    "ClassScoreMap",
    "OffsetField",
    "Point",
    "PointAnnotationSet",
    "connected_components",
    "box_sum",
    "encode_label_pgm",
    "decode_label_pgm",
    "encode_tensor",
    "decode_tensor",
    "encode_label_ppm",
    "encode_int_csv",
    "decode_int_csv",
    "encode_points_csv",
    "decode_points_csv",
]

PGM_MAX_ID = 65535
INT32_MAX = int(np.iinfo(np.int32).max)
TENSOR_MAGIC = b"MDMT"
POINTS_HEADER = "y,x,class_id,instance_id"

# Fixed render palette; instance id i > 0 maps to PALETTE[i % 16], background is black.
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """H x W raster of non-negative integer ids, 0 = background."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.size == 0:
            raise GridError("empty raster")
        if not np.issubdtype(arr.dtype, np.integer):
            raise GridError(f"label data must be integers, got {arr.dtype}")
        if int(arr.min()) < 0:
            raise GridError("negative label id")
        if not np.can_cast(arr.dtype, np.int32) and int(arr.max()) > INT32_MAX:
            raise GridError(f"label id {int(arr.max())} exceeds the int32 maximum {INT32_MAX}")
        object.__setattr__(self, "data", _freeze(arr.astype(np.int32)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def ids(self) -> list[int]:
        """Sorted foreground ids present in the grid.

        Every id starts at least one run in raster order, so the sort reads
        only the run starts, a few per row, not every pixel.
        """
        flat = self.data.ravel()
        starts = np.empty(len(flat), dtype=bool)
        starts[0] = True
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        return [int(i) for i in np.unique(flat[starts]) if i > 0]


@dataclass(frozen=True, eq=False)
class ClassScoreMap:
    """H x W x (C+1) real-valued scores; channel 0 is the background class."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise GridError("class score map must be H x W x channels")
        if not np.all(np.isfinite(arr)):
            raise GridError("non-finite class scores")
        object.__setattr__(self, "data", _freeze(arr))

    def argmax_grid(self) -> LabelGrid:
        """Per-pixel winning channel as a class-index grid."""
        return LabelGrid(np.argmax(self.data, axis=2).astype(np.int32))


@dataclass(frozen=True, eq=False)
class OffsetField:
    """H x W field of (dy, dx) pixel vectors with a per-pixel validity mask.

    Invalid pixels are forced to (0, 0) at construction.
    """

    vectors: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        val = np.asarray(self.valid, dtype=bool)
        if vec.ndim != 3 or vec.shape[2] != 2 or vec.size == 0:
            raise GridError("offset field must be H x W x 2")
        if val.shape != vec.shape[:2]:
            raise GridError("validity mask shape mismatch")
        if not np.all(np.isfinite(vec[val])):
            raise GridError("non-finite offsets at valid pixels")
        vec = vec.copy()
        vec[~val] = 0.0
        object.__setattr__(self, "vectors", _freeze(vec))
        object.__setattr__(self, "valid", _freeze(val))

    @property
    def shape(self) -> tuple[int, int]:
        return self.vectors.shape[:2]

    def to_tensor(self) -> np.ndarray:
        """Pack as H x W x 3 (dy, dx, valid-flag) for the tensor codec."""
        return np.concatenate(
            [self.vectors, self.valid[:, :, None].astype(np.float64)], axis=2
        )


class Point(NamedTuple):
    y: int
    x: int
    class_id: int
    instance_id: int


@dataclass(frozen=True)
class PointAnnotationSet:
    """One annotated interior point per instance, ids exactly 1..K, class ids
    1..PGM_MAX_ID (a label PGM carries the class)."""

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(Point(*p) for p in self.points)
        ids = sorted(p.instance_id for p in pts)
        if ids != list(range(1, len(pts) + 1)):
            raise GridError(f"instance ids must be exactly 1..K, got {ids}")
        for p in pts:
            if not 1 <= p.class_id <= PGM_MAX_ID:
                raise GridError(f"class id must be 1..{PGM_MAX_ID}, got {p.class_id}")
            if p.y < 0 or p.x < 0:
                raise GridError("negative point coordinate")
        object.__setattr__(self, "points", tuple(sorted(pts, key=lambda p: p.instance_id)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def class_table(self) -> np.ndarray:
        """(K + 1,) int32: each instance id's class, 0 for background (id 0)."""
        return np.array([0, *(p.class_id for p in self.points)], dtype=np.int32)

    def anchor_table(self) -> np.ndarray:
        """(K + 1, 2) float64: each instance id's point (y, x), (0, 0) for id 0."""
        return np.array([(0, 0), *((p.y, p.x) for p in self.points)], dtype=np.float64)

    def class_of(self) -> dict[int, int]:
        return {p.instance_id: p.class_id for p in self.points}

    def ids_without_points(self, grid: LabelGrid) -> list[int]:
        """Sorted ids of `grid` that no point names: ids are 1..K, so those above K."""
        return [int(i) for i in np.unique(grid.data[grid.data > len(self.points)])]

    def validate_on(self, height: int, width: int) -> None:
        for p in self.points:
            if not (0 <= p.y < height and 0 <= p.x < width):
                raise GridError(f"point {p} outside {height}x{width} grid")


def connected_components(grid: np.ndarray) -> LabelGrid:
    """Label every 8-connected component of equal nonzero value in an integer
    grid; a boolean mask is the two-valued case. Pixels that touch at a corner
    join, as at an edge: this is the one definition of a region.

    Component ids are assigned in raster-scan order of each component's first
    pixel, so the labeling is a pure function of the grid.

    Run-based union-find (Wu, Otoo & Suzuki 2009), vectorised: the runs of
    equal nonzero value along each row are numbered in raster order, and each
    pair of equal-valued runs that touch across two adjacent rows is a link
    (pixels straight above, up-left or up-right). Each root is hooked to the
    smallest lower-numbered root it is linked to and the forest is
    pointer-jumped flat, until each link joins one tree. A root is then its
    component's smallest run, the run holding the component's first pixel,
    so numbering the roots in order gives the raster-order ids.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.size == 0:
        raise GridError("empty raster")
    fg = grid != 0
    starts = fg.copy()
    starts[:, 1:] &= grid[:, 1:] != grid[:, :-1]
    runs = np.cumsum(starts, dtype=np.int32).reshape(grid.shape)
    runs *= fg
    # (pixel, the pixel above it) row planes: straight up, up-left and
    # up-right. A run's number is larger than that of every run above it, so
    # each link is (upper run, lower run).
    planes = [(np.s_[1:, :], np.s_[:-1, :]), (np.s_[1:, 1:], np.s_[:-1, :-1]),
              (np.s_[1:, :-1], np.s_[:-1, 1:])]
    touch = [fg[below] & (grid[below] == grid[above]) for below, above in planes]
    lo = np.concatenate([runs[above][t] for (_, above), t in zip(planes, touch)])
    hi = np.concatenate([runs[below][t] for (below, _), t in zip(planes, touch)])
    parent = np.arange(int(runs.max()) + 1, dtype=np.int32)
    while len(lo):
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]
        split = lo != hi
        lo, hi = np.minimum(lo[split], hi[split]), np.maximum(lo[split], hi[split])
    roots = np.cumsum(parent == np.arange(len(parent)), dtype=np.int32) - 1
    return LabelGrid(roots[parent][runs])


def box_sum(values: np.ndarray, r: int) -> np.ndarray:
    """Sum over each (2r+1)-square window, clipped to the array, of axes 0 and
    1, from prefix sums along each axis; any further axes are summed apart."""
    r = min(r, max(values.shape[:2]))  # a wider window holds no more entries
    for axis in (0, 1):
        n = values.shape[axis]
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 0)  # prefix[k] sums the first k entries
        prefix = np.cumsum(np.pad(values, pad), axis=axis)
        at = np.arange(n)
        values = prefix.take(np.minimum(at + r + 1, n), axis=axis) - prefix.take(
            np.maximum(at - r, 0), axis=axis
        )
    return values


def encode_label_pgm(grid: LabelGrid) -> bytes:
    """Binary PGM (P5). Maxval is 255, or 65535 (big-endian samples) when needed."""
    max_id = int(grid.data.max())
    if max_id > PGM_MAX_ID:
        raise GridError(f"id overflow: {max_id} exceeds {PGM_MAX_ID}")
    maxval = 65535 if max_id > 255 else 255
    h, w = grid.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    return b"".join((header, grid.data.astype(np.uint8 if maxval == 255 else ">u2")))


# Separators (whitespace, or # to the end of its line), then a token (group 1).
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _header_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    """The header token after `pos` and the offset just past it."""
    match = _HEADER_TOKEN.match(blob, pos)
    if not match[1]:
        raise GridError(f"malformed header at byte {match.start(1)}: unexpected end of header")
    return match[1], match.end()


def decode_label_pgm(blob: bytes) -> LabelGrid:
    """Inverse of :func:`encode_label_pgm`; strict about payload length and
    about samples above the header's maxval."""
    magic, pos = _header_token(blob, 0)
    if magic != b"P5":
        raise GridError(f"malformed header at byte 0: expected P5, got {magic!r}")
    values = []
    for _ in range(3):  # width, height, maxval
        tok, end = _header_token(blob, pos)
        try:
            values.append(int(tok))
        except ValueError:
            raise GridError(
                f"malformed header at byte {pos}: expected integer, got {tok!r}"
            ) from None
        pos = end
    width, height, maxval = values
    if width < 1 or height < 1:
        raise GridError(f"malformed header at byte {pos}: bad dimensions {width}x{height}")
    if not (0 < maxval <= PGM_MAX_ID):
        raise GridError(f"malformed header at byte {pos}: bad maxval {maxval}")
    if not blob[pos : pos + 1].isspace():
        raise GridError(f"malformed header at byte {pos}: missing separator")
    start = pos + 1
    bytes_per = 1 if maxval < 256 else 2
    expected = width * height * bytes_per
    payload = blob[start : start + expected]
    if len(payload) < expected:
        raise GridError("unexpected end of data")
    if len(blob) > start + expected:
        raise GridError("trailing data after payload")
    dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    top = int(data.max())
    if top > maxval:
        raise GridError(f"sample {top} exceeds maxval {maxval}")
    return LabelGrid(data.astype(np.int32))


def encode_tensor(values: np.ndarray) -> bytes:
    """Binary tensor codec: magic MDMT, u32 rank, u32 dims, float32-LE payload.

    Values are stored as 32-bit floats, so the round-trip is bit-exact for
    float32-representable data (everything this package writes).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise GridError("non-finite tensor data")
    dims = np.array(arr.shape, dtype="<u4")
    header = TENSOR_MAGIC + np.array([arr.ndim], dtype="<u4").tobytes() + dims.tobytes()
    # One copy of the payload: join reads the C-ordered float32 buffer.
    return b"".join((header, arr.astype("<f4", order="C")))


def decode_tensor(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_tensor`; returns a float64 array."""
    if blob[:4] != TENSOR_MAGIC:
        raise GridError(f"bad magic: {blob[:4]!r}")
    if len(blob) < 8:
        raise GridError("unexpected end of data")
    rank = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    if rank > 8:
        raise GridError(f"implausible tensor rank {rank}")
    dim_end = 8 + 4 * rank
    if len(blob) < dim_end:
        raise GridError("unexpected end of data")
    dims = tuple(int(d) for d in np.frombuffer(blob[8:dim_end], dtype="<u4"))
    expected = math.prod(dims) * 4  # exact: a NumPy product can wrap to 0
    if len(blob) != dim_end + expected:
        raise GridError(
            f"dim/payload mismatch: dims {dims} need {expected} bytes, got {len(blob) - dim_end}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=dim_end).astype(np.float64)
    return values.reshape(dims)


def encode_label_ppm(grid: LabelGrid) -> bytes:
    """Binary PPM (P6) colorization: palette color id % 16, black background."""
    h, w = grid.shape
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    palette = np.array(PALETTE, dtype=np.uint8)
    fg = grid.data > 0
    rgb[fg] = palette[grid.data[fg] % 16]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def encode_int_csv(header: str, rows) -> str:
    """An integer CSV: the header line, then one line per row of integers."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def decode_int_csv(text: str, header: str, source: str) -> Iterator[tuple[int, list[int]]]:
    """Inverse of :func:`encode_int_csv`: yields (file line, fields) of each
    row after `header`. Lines split as str.splitlines splits them, blank ones
    skipped; an error names `source` and the line."""
    lines = [(n, line.strip()) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1].replace(" ", "") != header:
        raise GridError(f"{source}: expected header {header}")
    for n, line in lines[1:]:
        try:
            fields = [int(f) for f in line.split(",")]
        except ValueError:
            fields = []
        if len(fields) != header.count(",") + 1:
            raise GridError(f"{source} line {n}: expected integers {header}, got {line!r}")
        yield n, fields


def encode_points_csv(points: PointAnnotationSet) -> str:
    return encode_int_csv(POINTS_HEADER, points)


def decode_points_csv(text: str, source: str = "points csv") -> PointAnnotationSet:
    """The points of a points.csv; every error names `source`."""
    rows = tuple(Point(*fields) for _, fields in decode_int_csv(text, POINTS_HEADER, source))
    try:
        return PointAnnotationSet(rows)
    except GridError as err:  # the row errors above carry the source already
        raise GridError(f"{source}: {err}") from None
