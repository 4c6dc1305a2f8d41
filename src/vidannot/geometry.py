"""Boxes, binary masks, polygons, conversions between them, and IoU.

All values are immutable after construction; every operation here is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

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


class BinaryMask:
    """Row-major boolean pixel grid of size width x height."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must be a 2-D grid, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def zeros(cls, width: int, height: int) -> BinaryMask:
        return cls(np.zeros((height, width), dtype=bool))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def width(self) -> int:
        return self._data.shape[1]

    @property
    def height(self) -> int:
        return self._data.shape[0]

    @property
    def count(self) -> int:
        """Number of foreground pixels."""
        return int(self._data.sum())

    def is_empty(self) -> bool:
        return not self._data.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.array_equal(self._data, other._data)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BinaryMask({self.width}x{self.height}, count={self.count})"

    def to_runs(self) -> list[int]:
        """Run-length encode the flattened grid, starting with a run of zeros."""
        flat = self._data.ravel()
        if flat.size == 0:
            return []
        change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        bounds = np.concatenate(([0], change, [flat.size]))
        runs = np.diff(bounds).tolist()
        if flat[0]:
            runs.insert(0, 0)
        return [int(r) for r in runs]

    @classmethod
    def from_runs(cls, width: int, height: int, runs: list[int]) -> BinaryMask:
        total = sum(runs)
        if total != width * height:
            raise ValueError(f"run lengths sum to {total}, expected {width * height}")
        flat = np.zeros(width * height, dtype=bool)
        pos = 0
        value = False
        for run in runs:
            if value:
                flat[pos : pos + run] = True
            pos += run
            value = not value
        return cls(flat.reshape(height, width))


@dataclass(frozen=True)
class Polygon:
    """Ordered pixel-coordinate vertices; implicitly closed (last joins first)."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(self.vertices)}")
        for x, y in self.vertices:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite vertex: ({x!r}, {y!r})")

    def perimeter(self) -> float:
        total = 0.0
        pts = self.vertices
        for i, (x, y) in enumerate(pts):
            nx, ny = pts[(i + 1) % len(pts)]
            total += math.hypot(nx - x, ny - y)
        return total


def iou_box(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union has zero area."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_mask(a: BinaryMask, b: BinaryMask) -> float:
    """Set IoU over foreground pixels; 0 if both masks are empty."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = int(np.logical_and(a.data, b.data).sum())
    union = int(np.logical_or(a.data, b.data).sum())
    if union == 0:
        return 0.0
    return inter / union


def polygon_to_bbox(p: Polygon) -> BBox:
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def _largest_component(data: np.ndarray) -> np.ndarray | None:
    labels, n = ndimage.label(data, structure=_FOUR_CONNECTED)
    if n == 0:
        return None
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == int(sizes.argmax())


_MOORE_INDEX = {off: i for i, off in enumerate(_MOORE)}


def _trace_moore_boundary(component: np.ndarray) -> list[tuple[int, int]]:
    """Clockwise Moore boundary pixels of a single connected component.

    Starts at the uppermost-leftmost foreground pixel with its West neighbor
    as the backtrack cell, scans the Moore neighborhood clockwise from just
    past the backtrack, and stops when a (pixel, backtrack) state repeats.
    The state-repeat rule is total for any finite component, including single
    pixels and one-pixel-wide lines.
    """
    ys, xs = np.nonzero(component)
    start = (int(ys[0]), int(xs[0]))
    h, w = component.shape

    def fg(cell: tuple[int, int]) -> bool:
        y, x = cell
        return 0 <= y < h and 0 <= x < w and bool(component[y, x])

    boundary: list[tuple[int, int]] = [start]
    cur = start
    back = (start[0], start[1] - 1)  # West neighbor, background by scan order
    seen = {(cur, back)}
    while True:
        start_dir = _MOORE_INDEX[(back[0] - cur[0], back[1] - cur[1])]
        nxt = None
        prev_checked = back
        for step in range(1, 9):
            dy, dx = _MOORE[(start_dir + step) % 8]
            cell = (cur[0] + dy, cur[1] + dx)
            if fg(cell):
                nxt = cell
                break
            prev_checked = cell
        if nxt is None:
            break  # isolated pixel
        cur, back = nxt, prev_checked
        state = (cur, back)
        if state in seen:
            break
        seen.add(state)
        boundary.append(cur)
    return boundary


def _collapse_collinear(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    deduped: list[tuple[int, int]] = []
    for p in points:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    if len(deduped) < 3:
        return deduped
    out: list[tuple[int, int]] = []
    n = len(deduped)
    for i in range(n):
        prev = deduped[(i - 1) % n]
        cur = deduped[i]
        nxt = deduped[(i + 1) % n]
        ax, ay = cur[0] - prev[0], cur[1] - prev[1]
        bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        # Drop only straight continuations; keep reversal points (spike tips).
        if cross != 0 or dot <= 0:
            out.append(cur)
    return out if len(out) >= 3 else deduped


def mask_to_polygon(m: BinaryMask, min_pixels: int = 3) -> Polygon | None:
    """Outer contour of the largest 4-connected component, or None.

    Returns None when the foreground has fewer than `min_pixels` pixels or the
    component is too small to form a polygon. Holes and smaller components are
    ignored. Vertices are (x, y) pixel centers; collinear runs are collapsed.
    """
    if m.count < min_pixels:
        return None
    component = _largest_component(m.data)
    if component is None:
        return None
    boundary = _trace_moore_boundary(component)
    pts = _collapse_collinear([(y, x) for y, x in boundary])
    if len(pts) < 3:
        return None
    return Polygon(tuple((float(x), float(y)) for y, x in pts))


def _fill_scanline(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    grid = np.zeros((height, width), dtype=bool)
    n = len(vertices)
    y_lo = max(0, int(math.ceil(vertices[:, 1].min())))
    y_hi = min(height - 1, int(math.floor(vertices[:, 1].max())))
    for y in range(y_lo, y_hi + 1):
        xs: list[float] = []
        for i in range(n):
            x0, y0 = vertices[i]
            x1, y1 = vertices[(i + 1) % n]
            if y0 == y1:
                continue  # horizontal edges contribute via endpoints
            # Half-open rule [min(y), max(y)) so shared vertices count once.
            if min(y0, y1) <= y < max(y0, y1):
                xs.append(x0 + (y - y0) * (x1 - x0) / (y1 - y0))
        xs.sort()
        for j in range(0, len(xs) - 1, 2):
            left = int(math.ceil(xs[j]))
            right = int(math.floor(xs[j + 1]))
            if right >= 0 and left < width:
                grid[y, max(0, left) : min(width - 1, right) + 1] = True
    return grid


def _draw_edges(vertices: np.ndarray, grid: np.ndarray) -> None:
    height, width = grid.shape
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        steps = max(int(round(max(abs(x1 - x0), abs(y1 - y0)))), 1)
        ts = np.linspace(0.0, 1.0, steps + 1)
        px = np.rint(x0 + ts * (x1 - x0)).astype(int)
        py = np.rint(y0 + ts * (y1 - y0)).astype(int)
        ok = (px >= 0) & (px < width) & (py >= 0) & (py < height)
        grid[py[ok], px[ok]] = True


def rasterize_polygon(p: Polygon, width: int, height: int) -> BinaryMask:
    """Pixel-center rasterization: even-odd interior fill plus boundary pixels."""
    verts = np.asarray(p.vertices, dtype=float)
    grid = _fill_scanline(verts, width, height)
    _draw_edges(verts, grid)
    return BinaryMask(grid)


def resample_polygon(p: Polygon, n: int) -> Polygon:
    """Place exactly n vertices at equal arc-length intervals along the perimeter.

    The first output vertex coincides with p's first vertex. Raises on a
    zero-perimeter (degenerate) polygon.
    """
    if n < 3:
        raise ValueError(f"resample target must be >= 3, got {n}")
    pts = np.asarray(p.vertices, dtype=float)
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))
    total = float(seg.sum())
    if total <= 0.0:
        raise ValueError("cannot resample a zero-perimeter polygon")
    cumulative = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.arange(n) * (total / n)
    out: list[tuple[float, float]] = []
    j = 0
    for t in targets:
        while j < len(seg) - 1 and cumulative[j + 1] <= t:
            j += 1
        span = seg[j]
        frac = 0.0 if span == 0.0 else (t - cumulative[j]) / span
        x = closed[j, 0] + frac * (closed[j + 1, 0] - closed[j, 0])
        y = closed[j, 1] + frac * (closed[j + 1, 1] - closed[j, 1])
        out.append((float(x), float(y)))
    return Polygon(tuple(out))


def shift_mask(m: BinaryMask, dx: int, dy: int) -> BinaryMask:
    """Translate a mask by whole pixels, clipping at the borders."""
    if dx == 0 and dy == 0:
        return m
    out = np.zeros_like(m.data)
    h, w = m.data.shape
    src_x = slice(max(0, -dx), min(w, w - dx))
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    if src_x.start < src_x.stop and src_y.start < src_y.stop:
        out[dst_y, dst_x] = m.data[src_y, src_x]
    return BinaryMask(out)
