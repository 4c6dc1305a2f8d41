"""Boxes, binary masks, polygons, conversions between them, IoU, and greedy
one-to-one matching by score.

All values are immutable after construction; every operation here is a pure
function and safe to call concurrently. A mask op costs O(crop area); tracing
an outline costs one Python step per boundary pixel and makes no Python object
per crop pixel. The largest 4-connected component of a mask is found by
run-based connected-component labelling (Rosenfeld & Pfaltz 1966): a union-find
over the crop's row runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Clockwise Moore neighborhood as (dy, dx), starting at West.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, origin top-left, x1<=x2, y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"inverted box: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)


_EMPTY_CROP = np.zeros((0, 0), dtype=bool)  # every empty mask's crop, read-only
_EMPTY_CROP.flags.writeable = False


class BinaryMask:
    """Boolean pixel grid of size width x height, stored as the tight crop of
    its foreground.

    The crop is a read-only local grid whose top-left pixel sits at frame
    position (x0, y0); an empty mask has a 0x0 crop at (0, 0). Every operation
    on masks costs O(crop area), not O(frame area).
    """

    __slots__ = ("_crop", "_x0", "_y0", "_width", "_height", "_count")

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must be a 2-D grid, got shape {arr.shape}")
        self._place(arr, 0, 0, arr.shape[1], arr.shape[0])

    @classmethod
    def from_crop(
        cls, crop: np.ndarray, x0: int, y0: int, width: int, height: int
    ) -> BinaryMask:
        """Mask of a width x height frame whose foreground lies in `crop`, a
        local grid with its top-left pixel at (x0, y0); trimmed to its
        foreground."""
        arr = np.asarray(crop, dtype=bool)
        if width < 1 or height < 1:
            raise ValueError(f"frame must be at least 1x1, got {width}x{height}")
        if arr.ndim != 2:
            raise ValueError(f"crop must be a 2-D grid, got shape {arr.shape}")
        if arr.size and not (
            0 <= x0 and x0 + arr.shape[1] <= width and 0 <= y0 and y0 + arr.shape[0] <= height
        ):
            raise ValueError(
                f"crop {arr.shape[1]}x{arr.shape[0]} at ({x0}, {y0}) leaves the "
                f"{width}x{height} frame"
            )
        m = cls.__new__(cls)
        m._place(arr, x0, y0, width, height)
        return m

    def _place(self, arr: np.ndarray, x0: int, y0: int, width: int, height: int) -> None:
        rows = np.flatnonzero(arr.any(axis=1))
        if rows.size == 0:
            crop = _EMPTY_CROP
            x0 = y0 = 0
        else:
            cols = np.flatnonzero(arr.any(axis=0))
            crop = arr[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()
            x0 += int(cols[0])
            y0 += int(rows[0])
        crop.flags.writeable = False
        self._crop = crop
        self._x0 = int(x0)
        self._y0 = int(y0)
        self._width = int(width)
        self._height = int(height)
        self._count = int(np.count_nonzero(crop))

    @classmethod
    def zeros(cls, width: int, height: int) -> BinaryMask:
        # Built directly: a propagator returns one for every frame an object
        # is not seen, and from_crop's trimming would cost several times more.
        if width < 1 or height < 1:
            raise ValueError(f"frame must be at least 1x1, got {width}x{height}")
        m = cls.__new__(cls)
        m._crop = _EMPTY_CROP
        m._x0 = m._y0 = m._count = 0
        m._width = int(width)
        m._height = int(height)
        return m

    @property
    def data(self) -> np.ndarray:
        """The whole width x height grid. It builds a frame-sized array, so it
        is for tests and debugging only; the program works on `crop`."""
        grid = np.zeros((self._height, self._width), dtype=bool)
        h, w = self._crop.shape
        grid[self._y0 : self._y0 + h, self._x0 : self._x0 + w] = self._crop
        grid.flags.writeable = False
        return grid

    @property
    def crop(self) -> np.ndarray:
        return self._crop

    @property
    def x0(self) -> int:
        return self._x0

    @property
    def y0(self) -> int:
        return self._y0

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    @property
    def count(self) -> int:
        """Number of foreground pixels."""
        return self._count

    @property
    def crop_box(self) -> tuple[int, int, int, int]:
        """The crop's frame box as (x0, y0, x1, y1), end-exclusive."""
        h, w = self._crop.shape
        return self._x0, self._y0, self._x0 + w, self._y0 + h

    def is_empty(self) -> bool:
        return self._count == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return (
            (self._width, self._height, self._x0, self._y0)
            == (other._width, other._height, other._x0, other._y0)
            and bool(np.array_equal(self._crop, other._crop))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BinaryMask({self.width}x{self.height}, count={self.count})"

    def crop_runs(self) -> list[int]:
        """Run-length encode the flattened crop, starting with a run of zeros;
        empty for an empty mask. With the crop's position and shape it stores
        the mask in O(crop area)."""
        if not self._count:
            return []
        flat = np.concatenate(([False], self._crop.ravel(), [False]))
        bounds = np.flatnonzero(flat[1:] != flat[:-1])
        if bounds[-1] != self._crop.size:
            bounds = np.append(bounds, self._crop.size)
        return np.diff(bounds, prepend=0).tolist()

    @classmethod
    def from_crop_runs(
        cls, x0: int, y0: int, crop_width: int, crop_height: int, runs: list[int],
        width: int, height: int,
    ) -> BinaryMask:
        """Mask of a width x height frame from `crop_runs` of its crop, a
        crop_width x crop_height grid with its top-left pixel at (x0, y0)."""
        if not set(map(type, (x0, y0, crop_width, crop_height, *runs))) <= {int}:
            raise TypeError("crop position, shape and run lengths must be integers")
        if not (0 <= x0 <= x0 + crop_width <= width and 0 <= y0 <= y0 + crop_height <= height):
            raise ValueError(
                f"crop {crop_width}x{crop_height} at ({x0}, {y0}) leaves the {width}x{height} frame"
            )
        lengths = np.asarray(runs, dtype=np.int64)
        if (lengths < 0).any() or int(lengths.sum()) != crop_width * crop_height:
            raise ValueError(f"run lengths {runs} do not fill a {crop_width}x{crop_height} crop")
        values = np.arange(lengths.size) % 2 == 1
        crop = np.repeat(values, lengths).reshape(crop_height, crop_width)
        return cls.from_crop(crop, x0, y0, width, height)


@dataclass(frozen=True, eq=False)
class Polygon:
    """Ordered pixel-coordinate vertices; implicitly closed (last joins first).

    `vertices` is a read-only (n, 2) float64 array of (x, y), n >= 3, built
    from any (n, 2) array-like of finite numbers.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vertices, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
            raise ValueError(f"polygon needs an (n >= 3, 2) vertex array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite vertex in {arr.tolist()}")
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> list[Polygon]:
        """One polygon per row of a (k, n, 2) array-like of finite numbers,
        n >= 3, copied and checked once for all rows: each polygon's vertices
        are a read-only view of its row of the copy."""
        arr = np.array(rows, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] < 3 or arr.shape[2] != 2:
            raise ValueError(f"polygon rows need a (k, n >= 3, 2) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite vertex in polygon rows")
        arr.flags.writeable = False
        polygons = []
        for vertices in arr:
            p = cls.__new__(cls)
            object.__setattr__(p, "vertices", vertices)
            polygons.append(p)
        return polygons

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return bool(np.array_equal(self.vertices, other.vertices))

    __hash__ = None  # type: ignore[assignment]


def iou_box(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union has zero area."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_mask(a: BinaryMask, b: BinaryMask) -> float:
    """Set IoU over foreground pixels; 0 if both masks are empty."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    window = box_overlap(a.crop_box, b.crop_box)
    inter = int(np.count_nonzero(_window(a, window) & _window(b, window))) if window else 0
    union = a.count + b.count - inter
    if union == 0:
        return 0.0
    return inter / union


def greedy_match(candidates: Iterable[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """Claim (score, row, column) candidates one-to-one in descending score.

    Ties go to the lower row, then the lower column. A candidate is claimed
    when neither its row nor its column is taken yet; the claimed triples are
    returned in claim order.
    """
    rows: set[int] = set()
    columns: set[int] = set()
    claimed = []
    for c in sorted(candidates, key=lambda t: (-t[0], t[1], t[2])):
        _, row, column = c
        if row not in rows and column not in columns:
            rows.add(row)
            columns.add(column)
            claimed.append(c)
    return claimed


def box_overlap(
    a: tuple[int, int, int, int], b: tuple[int, int, int, int]
) -> tuple[int, int, int, int] | None:
    """The common part of two end-exclusive pixel boxes (x0, y0, x1, y1);
    None when they share no pixel."""
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1, y1 = min(a[2], b[2]), min(a[3], b[3])
    return (x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None


def _window(m: BinaryMask, box: tuple[int, int, int, int]) -> np.ndarray:
    """The part of m's crop inside a frame box that lies within the crop."""
    x0, y0, x1, y1 = box
    return m.crop[y0 - m.y0 : y1 - m.y0, x0 - m.x0 : x1 - m.x0]


def union_masks(masks: Sequence[BinaryMask]) -> BinaryMask:
    """Pixelwise union of same-size masks, built in the joint box of their crops."""
    width, height = masks[0].width, masks[0].height
    if any((m.width, m.height) != (width, height) for m in masks):
        raise ValueError("mask dimensions differ")
    present = [m for m in masks if not m.is_empty()]
    if not present:
        return BinaryMask.zeros(width, height)
    boxes = [m.crop_box for m in present]
    x0, y0 = min(b[0] for b in boxes), min(b[1] for b in boxes)
    x1, y1 = max(b[2] for b in boxes), max(b[3] for b in boxes)
    grid = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    for m, (bx0, by0, bx1, by1) in zip(present, boxes):
        grid[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] |= m.crop
    return BinaryMask.from_crop(grid, x0, y0, width, height)


def polygon_to_bbox(p: Polygon) -> BBox:
    x1, y1 = p.vertices.min(axis=0).tolist()
    x2, y2 = p.vertices.max(axis=0).tolist()
    return BBox(x1, y1, x2, y2)


def component_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Each of the items 0..n-1's component once every pair is joined, named
    by its root: the component's lowest item. Components do not depend on
    the order of the pairs."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def _row_runs(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of a 2-D grid in raster order, as (row, start,
    end) arrays; each run covers columns start..end-1 of its row."""
    h, w = data.shape
    # Column c of a row's edges is set where pixel c differs from pixel c-1,
    # the pixels off either end being background: a row's edges alternate
    # run start, run end.
    edges = np.zeros((h, w + 1), dtype=bool)
    edges[:, :w] = data
    edges[:, 1:] ^= data
    rows, cols = np.nonzero(edges)
    return rows[::2], cols[::2], cols[1::2]


def _largest_component(data: np.ndarray) -> np.ndarray:
    """The largest 4-connected component of a non-empty grid; of equal sizes,
    the one whose first pixel comes first in raster order.

    A grid whose every row is one run sharing a column with the next row's
    is one component and is returned as it is. Otherwise runs of adjacent
    rows that share a column are joined by `component_roots`, so each
    component's root is its first run.
    """
    rows, starts, ends = _row_runs(data)
    h, w = data.shape
    if (
        len(rows) == h
        and (rows == np.arange(h)).all()
        and (starts[1:] < ends[:-1]).all()
        and (starts[:-1] < ends[1:]).all()
    ):
        return data
    # Runs in raster order of (row, column) keys: the runs of the next row
    # that share a column with run i are those from the first whose end lies
    # past its start up to the last whose start lies before its end.
    stride = w + 1
    below = (rows + 1) * stride
    first = np.searchsorted(rows * stride + ends, below + starts, side="right")
    last = np.searchsorted(rows * stride + starts, below + ends, side="left")
    touching = (
        (i, j) for i, (lo, hi) in enumerate(zip(first.tolist(), last.tolist())) for j in range(lo, hi)
    )
    roots = np.array(component_roots(len(rows), touching))
    # argmax keeps the first of equal sizes: the component of the lowest root.
    sizes = np.bincount(roots, weights=ends - starts)
    keep = roots == int(sizes.argmax())
    marks = np.zeros(h * stride, dtype=np.int8)
    marks[rows[keep] * stride + starts[keep]] = 1
    marks[rows[keep] * stride + ends[keep]] = -1
    return np.cumsum(marks).reshape(h, stride)[:, :w] > 0


# After a step in direction d, the backtrack cell (the last background cell
# checked, the Moore neighbor before d) seen from the new pixel: a 4-neighbor.
_BACK_DIR = (6, 6, 0, 0, 2, 2, 4, 4)


@functools.lru_cache(maxsize=None)
def _moore_scans(stride: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per backtrack, the clockwise Moore scan from just past it through a flat
    grid `stride` >= 3 cells wide, as (flat offset, which names the direction,
    next backtrack). Cached per padded crop width: one entry per frame column
    at most."""
    step = [dy * stride + dx for dy, dx in _MOORE]
    return tuple(
        tuple((step[d % 8], _BACK_DIR[d % 8]) for d in range(b + 1, b + 9)) for b in range(8)
    )


def mask_to_polygon(m: BinaryMask) -> Polygon | None:
    """Outer contour of the largest 4-connected component, or None.

    Returns None when the mask is empty or the component is too small to
    form a polygon, as every component of fewer than 3 pixels is. Holes and
    smaller components are ignored. Vertices are (x, y) pixel centers where
    the boundary turns; a one-pixel-wide straight line keeps every pixel.

    A clockwise Moore trace from the uppermost-leftmost pixel, with its West
    neighbor as the backtrack cell, until a (pixel, backtrack) state repeats.
    It reads the crop as bytes and costs one Python step per boundary pixel.
    """
    if m.is_empty():
        return None
    # Labels and the trace run on the crop; raster order, and so every
    # tie-break, is the same as on the whole frame. A background border makes
    # every neighbor of a foreground pixel a valid index into the flat grid.
    h, w = m.crop.shape
    stride = w + 2
    grid = np.zeros((h + 2, stride), dtype=bool)
    grid[1:-1, 1:-1] = _largest_component(m.crop)
    cells = grid.tobytes()
    scans = _moore_scans(stride)
    start = cells.index(1)
    first = next((step for step in scans[0] if cells[start + step[0]]), None)
    if first is None:
        return None  # isolated pixel
    # The trace stops when a (pixel, backtrack) state repeats. Every backtrack
    # is a background 4-neighbor and every pixel after the start was entered
    # from a foreground one; no two such states step to the same state, save
    # that the start pixel entered from E or SE steps where the first state
    # does. So the first state to repeat is the first, which steps to the
    # second, or the second: either way the walk ends at the start pixel about
    # to enter the second state again. The start is always a vertex: the walk
    # leaves it heading E, SE, S or SW and enters it heading N, NE, W or NW.
    prev, back = first
    cur = second = start + prev
    turns = [start]  # boundary pixels where the step direction changes
    while True:
        for offset, next_back in scans[back]:
            if cells[cur + offset]:
                break
        if cur + offset == second and next_back == first[1]:
            break
        if offset != prev:
            turns.append(cur)
        cur += offset
        back, prev = next_back, offset
    if len(turns) < 3:
        # A closed path of unit steps with fewer than three turns is a
        # one-pixel-wide straight line walked to its far end and back; its
        # outline keeps every pixel.
        line = np.arange(start, turns[1] + 1, 1 if turns[1] - start < stride else stride)
        turns = np.concatenate((line, line[-2:0:-1]))
    if len(turns) < 3:
        return None
    ys, xs = np.divmod(np.asarray(turns), stride)
    return Polygon(np.column_stack((xs + (m.x0 - 1), ys + (m.y0 - 1))))


def _fill_scanline(vertices: np.ndarray, grid: np.ndarray, x0: int, y0: int) -> None:
    """Even-odd fill of the pixel centers inside the polygon, into a grid whose
    top-left pixel sits at frame position (x0, y0)."""
    height, width = grid.shape
    y_lo = max(y0, int(math.ceil(vertices[:, 1].min())))
    y_hi = min(y0 + height - 1, int(math.floor(vertices[:, 1].max())))
    if y_lo > y_hi:
        return
    xa, ya = vertices[:, 0], vertices[:, 1]
    xb, yb = np.roll(xa, -1), np.roll(ya, -1)
    y = np.arange(y_lo, y_hi + 1)[:, None]
    # Half-open rule [min(y), max(y)) so shared vertices count once;
    # horizontal edges contribute via endpoints.
    hit = (ya != yb) & (np.minimum(ya, yb) <= y) & (y < np.maximum(ya, yb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xs = np.where(hit, xa + (y - ya) * (xb - xa) / (yb - ya), np.inf)
    xs.sort(axis=1)
    # Crossings 2j and 2j+1 bound the j-th span of a row.
    pairs = len(vertices) // 2
    spans = np.arange(pairs) * 2 + 2 <= hit.sum(axis=1)[:, None]
    left = np.ceil(np.where(spans, xs[:, 0 : 2 * pairs : 2], 0.0)).astype(np.int64)
    right = np.floor(np.where(spans, xs[:, 1 : 2 * pairs : 2], -1.0)).astype(np.int64)
    left = np.maximum(left, x0) - x0
    right = np.minimum(right, x0 + width - 1) - x0 + 1
    spans &= left < right
    line = np.broadcast_to((y - y0) * (width + 1), spans.shape)[spans]
    size = height * (width + 1)
    edges = np.bincount(line + left[spans], minlength=size)
    edges -= np.bincount(line + right[spans], minlength=size)
    grid |= np.cumsum(edges.reshape(height, width + 1), axis=1)[:, :width] > 0


def _draw_edges(vertices: np.ndarray, grid: np.ndarray, x0: int, y0: int) -> None:
    """Boundary pixels of every edge, into a grid placed at (x0, y0)."""
    height, width = grid.shape
    xa, ya = vertices[:, 0], vertices[:, 1]
    dx, dy = np.roll(xa, -1) - xa, np.roll(ya, -1) - ya
    steps = np.maximum(np.rint(np.maximum(np.abs(dx), np.abs(dy))).astype(np.int64), 1)
    # Every edge's np.linspace(0, 1, steps + 1), bit for bit: k * (1 / steps),
    # with the last point set to exactly 1.
    counts = steps + 1
    edge = np.repeat(np.arange(len(vertices)), counts)
    last = np.cumsum(counts) - 1
    k = np.arange(int(counts.sum())) - np.repeat(last + 1 - counts, counts)
    ts = k * (1.0 / steps)[edge]
    ts[last] = 1.0
    px = np.rint(xa[edge] + ts * dx[edge]).astype(np.int64) - x0
    py = np.rint(ya[edge] + ts * dy[edge]).astype(np.int64) - y0
    ok = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    grid[py[ok], px[ok]] = True


def raster_box(p: Polygon, width: int, height: int) -> tuple[int, int, int, int] | None:
    """The frame box (x0, y0, x1, y1), end-exclusive, that `rasterize_polygon`
    fills: the polygon's box, widened by a pixel of rounding slack and clipped
    to the width x height frame; None when nothing of it is left. The
    raster's crop always lies inside it."""
    verts = p.vertices
    x0 = max(0, int(math.floor(verts[:, 0].min())) - 1)
    y0 = max(0, int(math.floor(verts[:, 1].min())) - 1)
    x1 = min(width, int(math.ceil(verts[:, 0].max())) + 2)
    y1 = min(height, int(math.ceil(verts[:, 1].max())) + 2)
    return (x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None


def rasterize_polygon(p: Polygon, width: int, height: int) -> BinaryMask:
    """Pixel-center rasterization: even-odd interior fill plus boundary pixels.

    Only the polygon's `raster_box` is rasterized.
    """
    box = raster_box(p, width, height)
    if box is None:
        return BinaryMask.zeros(width, height)
    x0, y0, x1, y1 = box
    grid = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    _fill_scanline(p.vertices, grid, x0, y0)
    _draw_edges(p.vertices, grid, x0, y0)
    return BinaryMask.from_crop(grid, x0, y0, width, height)


def resample_outlines(polygons: Sequence[Polygon], n: int) -> np.ndarray:
    """Place exactly n vertices at equal arc-length intervals along each
    polygon's perimeter: a (len(polygons), n, 2) array whose row i is polygon
    i resampled, computed for all rows at once.

    Each row's first vertex coincides with its polygon's first vertex. Raises
    on a zero-perimeter (degenerate) polygon.
    """
    if n < 3:
        raise ValueError(f"resample target must be >= 3, got {n}")
    if not polygons:
        return np.empty((0, n, 2))
    lengths = np.array([len(p.vertices) for p in polygons])
    flat = np.concatenate([p.vertices for p in polygons])
    width = int(lengths.max())
    # Row i holds polygon i closed by its first vertex, then padded with more
    # copies of that vertex: zero-length segments past the polygon's end.
    inside = np.arange(width + 1) < lengths[:, None]
    closed = np.repeat(flat[np.cumsum(lengths) - lengths, None, :], width + 1, axis=1)
    closed[inside] = flat
    step = np.diff(closed, axis=1)
    seg = np.hypot(step[..., 0], step[..., 1])
    # A pairwise sum's rounding depends on its length, so each perimeter is
    # summed over its own segments; cumsum is exact on each row's prefix.
    totals = np.array([row[:m].sum() for row, m in zip(seg, lengths.tolist())])
    if (totals <= 0.0).any():
        raise ValueError("cannot resample a zero-perimeter polygon")
    cumulative = np.zeros((len(polygons), width + 1))
    np.cumsum(seg, axis=1, out=cumulative[:, 1:])
    targets = np.arange(n) * (totals / n)[:, None]
    # Each target lies on the last segment that starts at or before it: j
    # counts the starts after the first, of the row's own segments, that do.
    starts = np.where(inside[:, 1:width], cumulative[:, 1:width], np.inf)
    j = np.count_nonzero(starts[:, None, :] <= targets[:, :, None], axis=2)
    rows = np.arange(len(polygons))[:, None]
    span = seg[rows, j]
    zero = span == 0.0
    frac = np.where(zero, 0.0, (targets - cumulative[rows, j]) / np.where(zero, 1.0, span))
    a, b = closed[rows, j], closed[rows, j + 1]
    return a + frac[..., None] * (b - a)


def shift_mask(m: BinaryMask, dx: int, dy: int) -> BinaryMask:
    """Translate a mask by whole pixels, clipping at the borders."""
    if dx == 0 and dy == 0:
        return m
    h, w = m.crop.shape
    x0, y0 = m.x0 + dx, m.y0 + dy
    cx0, cy0 = max(0, -x0), max(0, -y0)
    cx1, cy1 = min(w, m.width - x0), min(h, m.height - y0)
    if cx0 >= cx1 or cy0 >= cy1:
        return BinaryMask.zeros(m.width, m.height)
    return BinaryMask.from_crop(
        m.crop[cy0:cy1, cx0:cx1], x0 + cx0, y0 + cy0, m.width, m.height
    )
