from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from pointseg.errors import GridError
from pointseg.grids import (
    LabelGrid,
    Point,
    PointAnnotationSet,
    box_sum,
    connected_components,
    decode_int_csv,
    decode_label_pgm,
    decode_points_csv,
    decode_tensor,
    encode_label_pgm,
    encode_int_csv,
    encode_label_ppm,
    encode_points_csv,
    encode_tensor,
)


# The 8 neighbours of a pixel: components are 8-connected.
NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def flood_fill_count(mask):
    """Independent component counter: plain recursive flood fill."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    h, w = mask.shape
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for dy, dx in NEIGHBOURS:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return count


def bfs_components(grid):
    """Breadth-first labeling, one pixel at a time, of each 8-connected
    component of equal nonzero value: the ids connected_components must
    return, numbered in raster order of each component's first pixel."""
    grid = np.asarray(grid)
    h, w = grid.shape
    labels = np.zeros((h, w), dtype=np.int32)
    next_id = 0
    for sy in range(h):
        for sx in range(w):
            if not grid[sy, sx] or labels[sy, sx]:
                continue
            mask = grid == grid[sy, sx]
            next_id += 1
            labels[sy, sx] = next_id
            queue = deque([(sy, sx)])
            while queue:
                y, x = queue.popleft()
                for dy, dx in NEIGHBOURS:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = next_id
                        queue.append((ny, nx))
    return labels


def serpentine(h, w):
    """One path of pixels that runs along every other row and turns at
    alternate ends: a single component whose runs link in a long chain."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for y in range(1, h, 2):
        mask[y, w - 1 if y % 4 == 1 else 0] = True
    return mask


def spiral(n):
    """A one-pixel wall that winds inwards from the border, with a one-pixel
    gap between turns: one component whose first pixel is the top-left."""
    mask = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    mask[0, 0] = True
    while True:
        for _ in range(2):  # try the current heading, then turn once
            ny, nx = y + dy, x + dx
            ay, ax = ny + dy, nx + dx  # two ahead must stay free for the gap
            inside = 0 <= ny < n and 0 <= nx < n
            if inside and not mask[ny, nx] and not (
                0 <= ay < n and 0 <= ax < n and mask[ay, ax]
            ):
                break
            dy, dx = dx, -dy
        else:
            return mask
        y, x = ny, nx
        mask[y, x] = True


class TestLabelGrid:
    def test_rejects_empty(self):
        with pytest.raises(GridError, match="empty raster"):
            LabelGrid(np.zeros((0, 3), dtype=np.int32))

    def test_rejects_negative(self):
        with pytest.raises(GridError):
            LabelGrid(np.array([[-1, 0]], dtype=np.int32))

    def test_rejects_floats(self):
        with pytest.raises(GridError):
            LabelGrid(np.zeros((2, 2)))

    def test_immutable(self):
        g = LabelGrid(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(ValueError):
            g.data[0, 0] = 1

    @pytest.mark.parametrize("value", [2**31, 2**32 + 1, 2**63 - 1])
    def test_rejects_id_past_int32(self, value):
        # int32 would wrap these: 2**32 + 1 to id 1, 2**31 to a negative id
        with pytest.raises(GridError, match="exceeds the int32 maximum"):
            LabelGrid(np.array([[0, value]], dtype=np.int64))

    def test_rejects_uint64_past_int32(self):
        with pytest.raises(GridError, match="exceeds the int32 maximum"):
            LabelGrid(np.array([[2**64 - 1]], dtype=np.uint64))

    def test_keeps_int32_maximum(self):
        g = LabelGrid(np.array([[0, 2**31 - 1]], dtype=np.int64))
        assert g.data.dtype == np.int32 and g.ids() == [2**31 - 1]

    def test_ids_sorted_foreground(self):
        g = LabelGrid(np.array([[0, 3], [1, 3]], dtype=np.int32))
        assert g.ids() == [1, 3]


def unique_ids(data):
    """The ids() oracle: a sort of every pixel."""
    return [int(i) for i in np.unique(data) if i > 0]


class TestIdsMatchUnique:
    """ids() reads only the raster-order run starts; the list is the one a
    full np.unique gives."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 30, size=2)
        # Few values give long runs; many give a run start at nearly every pixel.
        data = rng.integers(0, rng.integers(1, 12) if seed % 2 else 1000, size=(h, w))
        if seed % 4 == 1:  # runs of one value that wrap from one row to the next
            data = np.repeat(data.ravel(), 7)[: h * w].reshape(h, w)
        assert LabelGrid(data).ids() == unique_ids(data)

    @pytest.mark.parametrize("value", [0, 1, 5])
    def test_one_by_one(self, value):
        assert LabelGrid(np.array([[value]])).ids() == unique_ids([[value]])

    @pytest.mark.parametrize("value", [0, 4, 2**31 - 1])
    def test_one_value_grid(self, value):
        data = np.full((9, 13), value)
        assert LabelGrid(data).ids() == unique_ids(data) == ([value] if value else [])

    def test_int32_maximum_among_others(self):
        rng = np.random.default_rng(7)
        data = rng.choice(np.array([0, 1, 2**31 - 2, 2**31 - 1]), size=(17, 11))
        data[-1, -1] = 2**31 - 1  # the last pixel starts a run of its own
        data[-1, -2] = 0
        assert LabelGrid(data).ids() == unique_ids(data)
        assert LabelGrid(data).ids()[-1] == 2**31 - 1


class TestConnectedComponents:
    def test_plus_shape_single_component(self):
        mask = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        out = connected_components(mask)
        assert out.ids() == [1]
        assert (out.data[mask] == 1).all()

    def test_diagonal_pixels_8conn_one_component(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        assert connected_components(mask).ids() == [1]

    def test_empty_grid_errors(self):
        with pytest.raises(GridError, match="empty raster"):
            connected_components(np.zeros((0, 0), dtype=bool))

    def test_ids_assigned_in_raster_order(self):
        mask = np.array(
            [[0, 0, 1], [1, 0, 1], [1, 0, 0]], dtype=bool
        )
        out = connected_components(mask)
        # First pixel in raster order (0,2) gets id 1, then (1,0) gets id 2.
        assert out.data[0, 2] == 1
        assert out.data[1, 0] == 2

    def test_count_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            h, n_w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            mask = rng.random((h, n_w)) < 0.45
            got = connected_components(mask)
            n_got = int(got.data.max())
            assert n_got == flood_fill_count(mask)
            # cross-check against scipy's labeling
            structure = ndimage.generate_binary_structure(2, 2)
            _, n_scipy = ndimage.label(mask, structure=structure)
            assert n_got == n_scipy

    def test_ids_equal_bfs_oracle_on_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            h, w = (int(v) for v in rng.integers(1, 65, size=2))
            mask = rng.random((h, w)) < rng.random()
            got = connected_components(mask).data
            assert got.dtype == np.int32
            assert np.array_equal(got, bfs_components(mask)), (h, w)

    @pytest.mark.parametrize("name", [
        "serpentine", "serpentine_tall", "spiral", "checkerboard", "all_true",
        "all_false", "1x1_true", "1x1_false", "1xN", "Nx1",
    ])
    def test_ids_equal_bfs_oracle_on_shapes(self, name):
        rng = np.random.default_rng(5)
        mask = {
            "serpentine": lambda: serpentine(63, 64),
            "serpentine_tall": lambda: serpentine(64, 3),
            "spiral": lambda: spiral(64),
            "checkerboard": lambda: np.indices((64, 64)).sum(axis=0) % 2 == 0,
            "all_true": lambda: np.ones((64, 64), dtype=bool),
            "all_false": lambda: np.zeros((64, 64), dtype=bool),
            "1x1_true": lambda: np.ones((1, 1), dtype=bool),
            "1x1_false": lambda: np.zeros((1, 1), dtype=bool),
            "1xN": lambda: rng.random((1, 64)) < 0.5,
            "Nx1": lambda: rng.random((64, 1)) < 0.5,
        }[name]()
        assert np.array_equal(connected_components(mask).data, bfs_components(mask))

    def test_ids_equal_bfs_oracle_on_random_integer_grids(self):
        # Equal-valued neighbours join; a value change starts a new run and
        # breaks every link, so touching classes stay apart.
        rng = np.random.default_rng(13)
        for _ in range(150):
            h, w = (int(v) for v in rng.integers(1, 33, size=2))
            n_values = int(rng.integers(2, 6))
            grid = rng.integers(0, n_values, size=(h, w)).astype(np.int32)
            if rng.random() < 0.5:  # blobs rather than noise
                grid = np.repeat(np.repeat(grid, 3, axis=0), 3, axis=1)[:h, :w]
            got = connected_components(grid).data
            assert np.array_equal(got, bfs_components(grid)), (h, w)

    @pytest.mark.parametrize("rows,expected", [
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 1, 0, 0], [0, 0, 1, 1]]),
        ([[1, 0, 1], [0, 1, 0]], [[1, 0, 1], [0, 1, 0]]),
        ([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]]),
        ([[1, 2], [2, 1]], [[1, 2], [2, 1]]),
        ([[2, 2, 2], [2, 1, 2], [2, 2, 2]], [[1, 1, 1], [1, 2, 1], [1, 1, 1]]),
    ], ids=["anti_diagonal", "staircase", "v_shape", "zigzag", "crossed_values", "ring"])
    def test_corner_contact_joins_equal_values_only(self, rows, expected):
        # Each case leans on one link plane or on a merge of two roots: an
        # up-right link alone, an up-left link alone, one lower run that
        # joins two upper runs, a chain of alternating links, and two values
        # whose diagonals cross or enclose each other but never join.
        assert connected_components(np.array(rows)).data.tolist() == expected

    def test_component_counts_match_scipy_per_value(self):
        rng = np.random.default_rng(17)
        structure = ndimage.generate_binary_structure(2, 2)
        for _ in range(60):
            h, w = (int(v) for v in rng.integers(1, 24, size=2))
            grid = rng.integers(0, 4, size=(h, w)).astype(np.int32)
            got = connected_components(grid).data
            for value in range(1, 4):
                _, n_scipy = ndimage.label(grid == value, structure=structure)
                assert len(np.unique(got[grid == value])) == n_scipy, (h, w, value)

    def test_touching_values_are_separate_components(self):
        grid = np.array([[1, 1, 2], [3, 2, 2], [3, 3, 0]])
        assert connected_components(grid).data.tolist() == [[1, 1, 2], [3, 2, 2], [3, 3, 0]]
        assert connected_components(grid > 0).ids() == [1]

    def test_shapes_have_the_intended_components(self):
        assert bfs_components(serpentine(63, 64)).max() == 1
        assert bfs_components(spiral(64)).max() == 1
        # The checkerboard's pixels touch at corners only, and that joins them all.
        checker = np.indices((64, 64)).sum(axis=0) % 2 == 0
        assert bfs_components(checker).max() == 1

    def test_relabeling_is_pure_function_of_mask(self):
        rng = np.random.default_rng(3)
        mask = rng.random((8, 8)) < 0.5
        a = connected_components(mask)
        b = connected_components(mask.copy())
        assert np.array_equal(a.data, b.data)


def brute_box_sum(values, r):
    """Each pixel's (2r+1)-square window, clipped to the grid, summed directly."""
    out = np.zeros_like(values)
    for y in range(values.shape[0]):
        for x in range(values.shape[1]):
            window = values[max(0, y - r) : y + r + 1, max(0, x - r) : x + r + 1]
            out[y, x] = window.sum(axis=(0, 1))
    return out


class TestBoxSum:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 9), (5, 6)])
    @pytest.mark.parametrize("trailing", [(), (3,)])
    @pytest.mark.parametrize("radius", ["0", "1", "2", "past the grid"])
    def test_equals_brute_force_windows(self, shape, trailing, radius):
        # Integer-valued sums are exact in any order, so the two must be equal.
        r = max(shape) + 1 if radius == "past the grid" else int(radius)
        rng = np.random.default_rng([*shape, len(trailing), r])
        values = rng.integers(-50, 50, (*shape, *trailing)).astype(np.float64)
        got = box_sum(values, r)
        assert got.shape == values.shape
        assert (got == brute_box_sum(values, r)).all()


class TestPgmCodec:
    def test_single_pixel_exact_bytes(self):
        blob = encode_label_pgm(LabelGrid(np.array([[7]], dtype=np.int32)))
        assert blob == b"P5\n1 1\n255\n\x07"

    def test_round_trip_8bit(self):
        rng = np.random.default_rng(11)
        g = LabelGrid(rng.integers(0, 256, size=(16, 16)).astype(np.int32))
        assert np.array_equal(decode_label_pgm(encode_label_pgm(g)).data, g.data)

    def test_round_trip_16bit_big_endian(self):
        rng = np.random.default_rng(12)
        g = LabelGrid(rng.integers(0, 65536, size=(16, 16)).astype(np.int32))
        blob = encode_label_pgm(g)
        assert b"65535" in blob.split(b"\n")[2]
        assert np.array_equal(decode_label_pgm(blob).data, g.data)

    def test_id_overflow(self):
        with pytest.raises(GridError, match="id overflow"):
            encode_label_pgm(LabelGrid(np.array([[65536]], dtype=np.int32)))

    def test_truncated_payload(self):
        blob = encode_label_pgm(LabelGrid(np.ones((4, 4), dtype=np.int32)))
        with pytest.raises(GridError, match="unexpected end of data"):
            decode_label_pgm(blob[:-3])

    def test_trailing_garbage(self):
        blob = encode_label_pgm(LabelGrid(np.ones((4, 4), dtype=np.int32)))
        with pytest.raises(GridError, match="trailing data"):
            decode_label_pgm(blob + b"\x00")

    def test_bad_magic_reports_offset(self):
        with pytest.raises(GridError, match="byte 0"):
            decode_label_pgm(b"P4\n1 1\n255\n\x00")

    def test_malformed_dimension_reports_offset(self):
        with pytest.raises(GridError, match="malformed header"):
            decode_label_pgm(b"P5\nxx 1\n255\n\x00")

    def test_header_comments_tolerated(self):
        blob = b"P5\n# comment\n2 1\n255\n\x01\x02"
        out = decode_label_pgm(blob)
        assert np.array_equal(out.data, np.array([[1, 2]]))

    @pytest.mark.parametrize("blob,top,maxval", [
        (b"P5 2 1 10\n\x03\xc8", 200, 10),
        (b"P5 2 1 300\n\x01\x2d\x00\x07", 301, 300),
        (b"P5 1 1 256\n\xff\xff", 65535, 256),
    ], ids=["1-byte", "2-byte", "2-byte-top"])
    def test_sample_above_maxval(self, blob, top, maxval):
        with pytest.raises(GridError, match=f"^sample {top} exceeds maxval {maxval}$"):
            decode_label_pgm(blob)

    @pytest.mark.parametrize("blob,want", [
        (b"P5 2 1 10\n\x03\x0a", [[3, 10]]),
        (b"P5 2 1 300\n\x01\x2c\x00\x07", [[300, 7]]),
    ], ids=["1-byte", "2-byte"])
    def test_sample_at_maxval(self, blob, want):
        assert np.array_equal(decode_label_pgm(blob).data, want)


class _OracleScanner:
    """The PGM header tokenizer decode_label_pgm used before its token
    pattern, kept as an independent oracle: a byte-at-a-time scan."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def _skip_separators(self) -> None:
        while self.pos < len(self.blob):
            c = self.blob[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                nl = self.blob.find(b"\n", self.pos)
                self.pos = len(self.blob) if nl < 0 else nl + 1
            else:
                return

    def token(self) -> bytes:
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.blob) and not self.blob[self.pos : self.pos + 1].isspace():
            self.pos += 1
        if start == self.pos:
            raise GridError(f"malformed header at byte {start}: unexpected end of header")
        return self.blob[start : self.pos]

    def integer(self) -> int:
        start_after_sep = self.pos
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise GridError(
                f"malformed header at byte {start_after_sep}: expected integer, got {tok!r}"
            ) from None


def oracle_decode_label_pgm(blob: bytes) -> LabelGrid:
    scanner = _OracleScanner(blob)
    magic = scanner.token()
    if magic != b"P5":
        raise GridError(f"malformed header at byte 0: expected P5, got {magic!r}")
    width = scanner.integer()
    height = scanner.integer()
    maxval = scanner.integer()
    if width < 1 or height < 1:
        raise GridError(f"malformed header at byte {scanner.pos}: bad dimensions {width}x{height}")
    if not (0 < maxval <= 65535):
        raise GridError(f"malformed header at byte {scanner.pos}: bad maxval {maxval}")
    if scanner.pos >= len(blob) or not blob[scanner.pos : scanner.pos + 1].isspace():
        raise GridError(f"malformed header at byte {scanner.pos}: missing separator")
    start = scanner.pos + 1
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


_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
_COMMENTS = [b"# c\n", b"#\n", b"#x#\r\n", b"#\t#\n"]
# Header numbers, with what int() reads them as; None for no integer.
_NUMBERS = {b"1": 1, b"2": 2, b"3": 3, b"+3": 3, b"1_0": 10, b"02": 2, b"255": 255,
            b"256": 256, b"300": 300, b"65535": 65535, b"65536": 65536, b"0": 0, b"-1": -1,
            b"_1": None, b"1__0": None, b"0x2": None, b"3#": None, b"\xd9\xa3": None}
_STRAY = [b"#", b"# no newline", b"P5", b"P4", b"\x00", b"\xff", b"x", b"_", b"+"]


def _header_blob(rng: np.random.Generator) -> bytes:
    """A PGM-like blob: P5 and three numbers, each after whitespace and
    comments, one whitespace byte, then a payload sized to the header most
    of the time; at times with neither of the last two, stray pieces
    inserted, a byte overwritten or the blob cut short, so the fuzz reaches
    every check."""

    def pick(pieces):
        return pieces[int(rng.integers(len(pieces)))]

    numbers = [pick(list(_NUMBERS)) if rng.random() < 0.3 else pick([b"1", b"2", b"3", b"1_0"])
               for _ in range(2)]
    numbers.append(pick(list(_NUMBERS)) if rng.random() < 0.3 else pick([b"255", b"+3", b"300"]))
    parts = [b"P5" if rng.random() < 0.95 else pick(_STRAY)]
    for number in numbers:
        if rng.random() < 0.95:
            parts.append(pick(_WHITESPACE))
        parts += [pick(_COMMENTS + _WHITESPACE) for _ in range(int(rng.integers(3)))]
        parts.append(number)
    parts.append(pick(_WHITESPACE) if rng.random() < 0.95 else pick(_STRAY))
    w, h, maxval = (_NUMBERS[n] for n in numbers)
    size = w * h * (1 if maxval < 256 else 2) if None not in (w, h, maxval) else 4
    size = max(0, min(size, 64) + (int(rng.integers(-1, 2)) if rng.random() < 0.2 else 0))
    parts.append(bytes(rng.integers(0, min(256, (maxval or 255) + 2), size=size, dtype=np.uint8)))
    if rng.random() < 0.03:
        parts = parts[:-2]  # the header's last number ends the blob
    for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.2 else 0):
        parts.insert(int(rng.integers(len(parts) + 1)), pick(_STRAY + _COMMENTS + _WHITESPACE))
    blob = bytearray(b"".join(parts))
    if rng.random() < 0.1:
        blob[int(rng.integers(min(len(blob), 16)))] = int(rng.integers(256))
    if rng.random() < 0.05:
        blob = blob[: int(rng.integers(len(blob) + 1))]
    return bytes(blob)


def _outcome(decode, blob: bytes):
    try:
        grid = decode(blob)
    except GridError as err:
        return "error", str(err)
    return "grid", grid.shape, grid.data.tobytes()


class TestPgmHeaderOracle:
    """decode_label_pgm reads its header with one token pattern; the
    byte-at-a-time scanner it replaced must agree on every blob: the same
    grid, or a GridError with the same message (and so the same offset)."""

    BLOBS = 20_000
    CHECKS = ("grid", "unexpected end of header", "expected P5", "expected integer",
              "bad dimensions", "bad maxval", "missing separator", "unexpected end of data",
              "trailing data", "exceeds maxval")

    def test_seeded_fuzz_matches_scanner(self):
        rng = np.random.default_rng(2024)
        reached = dict.fromkeys(self.CHECKS, 0)
        for _ in range(self.BLOBS):
            blob = _header_blob(rng)
            want = _outcome(oracle_decode_label_pgm, blob)
            assert _outcome(decode_label_pgm, blob) == want, blob
            for check in self.CHECKS:
                reached[check] += check in want[-1] if want[0] == "error" else check == "grid"
        # Every outcome is reached, each many times.
        assert min(reached.values()) >= 50, reached

    @pytest.mark.parametrize("blob", [
        b"P5 +3 1_0 255\n" + bytes(30),
        b"P5#c\n2 1 255\n\x01\x02",
        b"#c\nP5\x0b1\x0c1\r255\t\x00",
        b"P5 1 1 255# no newline",
        b"P5 1 1",
        b"P5 1 x1 255\n\x00",
        b"P5\n# comment with no end",
        b"",
    ])
    def test_edge_blobs_match_scanner(self, blob):
        assert _outcome(decode_label_pgm, blob) == _outcome(oracle_decode_label_pgm, blob)

    def test_signed_and_underscored_integers_accepted(self):
        assert decode_label_pgm(b"P5 +3 1_0 255\n" + bytes(30)).shape == (10, 3)


class TestTensorCodec:
    def test_header_layout(self):
        blob = encode_tensor(np.array([[[0.5, -1.0]]]))
        assert blob[:4] == b"MDMT"
        assert len(blob) == 4 + 4 + 12 + 8
        assert np.frombuffer(blob[4:8], dtype="<u4")[0] == 3
        assert tuple(np.frombuffer(blob[8:20], dtype="<u4")) == (1, 1, 2)

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((8, 8, 3)).astype(np.float32).astype(np.float64)
        out = decode_tensor(encode_tensor(arr))
        assert out.shape == (8, 8, 3)
        assert np.array_equal(out, arr)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_round_trip_of_an_array_not_c_ordered(self, layout):
        arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        view = np.asfortranarray(arr) if layout == "fortran" else arr[:, ::2, ::-1]
        blob = encode_tensor(view)
        assert blob == encode_tensor(np.ascontiguousarray(view))
        assert np.array_equal(decode_tensor(blob), view)

    def test_bad_magic(self):
        with pytest.raises(GridError, match="bad magic"):
            decode_tensor(b"XXXX" + b"\x00" * 16)

    def test_payload_mismatch(self):
        blob = encode_tensor(np.zeros((2, 2)))
        with pytest.raises(GridError, match="mismatch"):
            decode_tensor(blob[:-4])

    def test_rejects_nan(self):
        with pytest.raises(GridError, match="non-finite"):
            encode_tensor(np.array([np.nan]))

    @pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1,) * 8, (0, 2**32 - 1)])
    def test_dims_counted_exactly(self, dims):
        # (65536,) * 4 holds 2**64 values, which an int64 product wraps to 0.
        blob = b"MDMT" + np.array([len(dims), *dims], dtype="<u4").tobytes()
        if 0 in dims:
            assert decode_tensor(blob).shape == dims
        else:
            with pytest.raises(GridError, match="dim/payload mismatch"):
                decode_tensor(blob)


class TestPpmRender:
    def test_two_colors_for_single_instance(self):
        g = LabelGrid(np.array([[0, 1], [1, 1]], dtype=np.int32))
        blob = encode_label_ppm(g)
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(-1, 3)
        colors = {tuple(px) for px in pixels}
        assert len(colors) == 2
        assert (0, 0, 0) in colors


class TestPointsCsv:
    def test_round_trip(self):
        pts = PointAnnotationSet((Point(1, 2, 3, 1), Point(4, 5, 1, 2)))
        text = encode_points_csv(pts)
        assert text.splitlines()[0] == "y,x,class_id,instance_id"
        assert decode_points_csv(text) == pts

    def test_header_required(self):
        with pytest.raises(GridError, match="header"):
            decode_points_csv("1,2,3,1\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings(self, newline):
        # One line rule for both CSVs: str.splitlines, so CRLF and a lone CR
        # each end a line.
        text = newline.join(["y,x,class_id,instance_id", "", "1,2,3,1", " 4 , 5,1,2 ", ""])
        want = PointAnnotationSet((Point(1, 2, 3, 1), Point(4, 5, 1, 2)))
        assert decode_points_csv(text) == want
        bad = newline.join(["y,x,class_id,instance_id", "", "1,2,3,1", "", "4,5,x,2"])
        with pytest.raises(GridError, match=r"^points csv line 5: expected integers "):
            decode_points_csv(bad)

    @pytest.mark.parametrize("row", ["1,2,3", "1,2,3,1,5", "1,2,,1", "1;2;3;1"])
    def test_bad_row_names_source_and_line(self, row):
        text = f"\n y, x, class_id, instance_id\n\n\n{row}\n"
        with pytest.raises(GridError) as err:
            decode_points_csv(text, "scene/points.csv")
        assert str(err.value) == (
            f"scene/points.csv line 5: expected integers y,x,class_id,instance_id, got {row!r}"
        )


class TestIntCsv:
    HEADER = "instance_id,class_id"

    def test_round_trip_keeps_file_lines(self):
        text = encode_int_csv(self.HEADER, [(1, 2), (3, 4)])
        assert text == "instance_id,class_id\n1,2\n3,4\n"
        assert list(decode_int_csv(text, self.HEADER, "t")) == [(2, [1, 2]), (3, [3, 4])]
        spaced = "\n\n" + text.replace("1,2\n", "1,2\n\n  \n")
        assert list(decode_int_csv(spaced, self.HEADER, "t")) == [(4, [1, 2]), (7, [3, 4])]

    def test_int_literals_as_int_reads_them(self):
        rows = list(decode_int_csv("instance_id,class_id\n+3, 1_0\n-1,007\n", self.HEADER, "t"))
        assert rows == [(2, [3, 10]), (3, [-1, 7])]

    @pytest.mark.parametrize("text", ["", "\n\n", "1,2\n", "instance_id\n1\n",
                                      "class_id,instance_id\n"])
    def test_header_required(self, text):
        with pytest.raises(GridError, match=r"^t: expected header instance_id,class_id$"):
            list(decode_int_csv(text, self.HEADER, "t"))


    def test_instance_ids_must_be_dense(self):
        with pytest.raises(GridError, match="1..K"):
            PointAnnotationSet((Point(0, 0, 1, 2),))


class TestPointTables:
    # Given out of id order: the set sorts by id, so row i is instance i's.
    PTS = PointAnnotationSet((Point(7, 1, 2, 3), Point(0, 4, 1, 1), Point(5, 9, 3, 2)))

    def test_class_table_is_indexed_by_id(self):
        table = self.PTS.class_table()
        assert table.dtype == np.int32
        assert table.tolist() == [0, 1, 3, 2]
        assert {i: int(table[i]) for i in (1, 2, 3)} == self.PTS.class_of()

    def test_anchor_table_is_indexed_by_id(self):
        table = self.PTS.anchor_table()
        assert table.dtype == np.float64
        assert table.tolist() == [[0.0, 0.0], [0.0, 4.0], [5.0, 9.0], [7.0, 1.0]]

    def test_empty_set_has_only_the_background_row(self):
        empty = PointAnnotationSet(())
        assert empty.class_table().tolist() == [0]
        assert empty.anchor_table().shape == (1, 2)

    def test_ids_without_points_are_the_ids_above_k(self):
        grid = LabelGrid(np.array([[0, 1, 5], [3, 2, 9], [5, 0, 4]], dtype=np.int32))
        assert self.PTS.ids_without_points(grid) == [4, 5, 9]
        assert self.PTS.ids_without_points(LabelGrid(np.array([[0, 3, 1]]))) == []
        assert PointAnnotationSet(()).ids_without_points(grid) == [1, 2, 3, 4, 5, 9]
