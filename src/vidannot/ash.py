"""Annotation and segmentation handling: propagation of new objects through
the remaining frames, then trailing-empty pruning, temporal polygon
smoothing, and per-frame redundancy merging.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assoc import NewObject
from .backends import PropagatorBackend
from .geometry import (
    BBox,
    BinaryMask,
    Polygon,
    box_overlap,
    component_roots,
    iou_mask,
    mask_to_polygon,
    polygon_to_bbox,
    raster_box,
    rasterize_polygon,
    resample_outlines,
    union_masks,
)


class PropagationError(RuntimeError):
    """Propagator failure; the message names the object that failed."""


@dataclass(frozen=True)
class AshConfig:
    alpha: float = 0.2  # temporal smoothing factor; 1 disables smoothing
    tau_merge: float = 0.3  # per-frame IoU above which segments merge
    epsilon_mask: int = 3  # min foreground pixels for a valid mask
    resample_n: int = 64  # vertex count used when averaging polygons

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if not 0.0 < self.tau_merge < 1.0:
            raise ValueError(f"tau_merge out of (0,1): {self.tau_merge}")
        if self.epsilon_mask < 1:
            raise ValueError(f"epsilon_mask must be >= 1: {self.epsilon_mask}")
        if self.resample_n < 3:
            raise ValueError(f"resample_n must be >= 3: {self.resample_n}")


_UNSET = object()  # an entry's outline, box or raster box not derived yet


class MaskletEntry:
    """One frame of a masklet: its mask, outline polygon and confidence; its
    box is the outline's box.

    An entry holds a mask, an outline or both, and derives whichever is
    missing the first time it is read, then keeps it. One built from a mask
    alone (`from_mask`) traces its outline, so entries that merging or
    pruning discard never pay for a contour. One built from an
    outline alone (`from_outline`) rasterizes it at the entry's frame size,
    so smoothed entries whose mask nothing reads never pay for a raster. One
    built with both keeps them, a None outline included. The outline's box
    and raster box are likewise derived once, when first read.
    """

    __slots__ = ("confidence", "_mask", "_polygon", "_size", "_bbox", "_raster_box")

    def __init__(self, mask: BinaryMask, polygon: Polygon | None, confidence: float) -> None:
        self._mask: BinaryMask | None = mask
        self._polygon = polygon
        self.confidence = confidence
        self._size = (mask.width, mask.height)
        self._bbox = self._raster_box = _UNSET

    @classmethod
    def from_mask(cls, mask: BinaryMask, confidence: float) -> MaskletEntry:
        return cls(mask, _UNSET, confidence)

    @classmethod
    def from_outline(
        cls, polygon: Polygon, frame_size: tuple[int, int], confidence: float
    ) -> MaskletEntry:
        """An entry of a width x height frame whose mask is the raster of
        `polygon`."""
        entry = cls.__new__(cls)
        entry._mask = None
        entry._polygon = polygon
        entry.confidence = confidence
        entry._size = frame_size
        entry._bbox = entry._raster_box = _UNSET
        return entry

    def _trace(self) -> None:
        if self._polygon is _UNSET:
            self._polygon = mask_to_polygon(self._mask)

    @property
    def mask(self) -> BinaryMask:
        if self._mask is None:
            self._mask = rasterize_polygon(self._polygon, *self._size)
        return self._mask

    @property
    def frame_size(self) -> tuple[int, int]:
        """(width, height) of the entry's frame."""
        return self._size

    @property
    def polygon(self) -> Polygon | None:
        self._trace()
        return self._polygon

    @property
    def bbox(self) -> BBox | None:
        if self._bbox is _UNSET:
            polygon = self.polygon
            self._bbox = polygon_to_bbox(polygon) if polygon is not None else None
        return self._bbox

    def pixel_box(self) -> tuple[int, int, int, int] | None:
        """A frame box (x0, y0, x1, y1), end-exclusive, that holds every pixel
        of the mask, found without rasterizing: the mask's crop box once the
        mask exists, the outline's raster box before. None when the mask is
        empty or the box is."""
        if self._mask is None:
            if self._raster_box is _UNSET:
                self._raster_box = raster_box(self._polygon, *self._size)
            return self._raster_box
        return None if self._mask.is_empty() else self._mask.crop_box


@dataclass
class Masklet:
    """One object's per-frame masks under a single identity."""

    object_id: int
    class_label: str
    entries: dict[int, MaskletEntry] = field(default_factory=dict)

    def frames(self) -> list[int]:
        return sorted(self.entries)


def propagate_batch(
    new_objects: list[NewObject],
    frames: Sequence[int],
    propagator: PropagatorBackend,
    frame_size: tuple[int, int],
) -> list[Masklet]:
    """Propagate each object from its own frame over `frames`: the new
    objects of one frame over the rest of their chunk, or a chunk's seeds,
    each from its last live frame in the seed window, over the frames the
    chunk tracks.

    Each object becomes one masklet covering the given frames, which must
    strictly increase; each entry's polygon and box are traced from its mask
    when first read. A propagator that fails, or breaks its contract of one
    `BinaryMask` of the `frame_size` (width, height) per frame, raises a
    PropagationError naming the propagator, the object and the frame, so
    that chunk-mode fallback can react.
    """
    if any(a >= b for a, b in zip(frames, frames[1:])):
        raise ValueError(f"frames must strictly increase: {list(frames)}")
    masklets = []
    call = f"{type(propagator).__name__}.propagate"
    for obj in new_objects:
        try:
            masks = list(propagator.propagate(obj.detection.box, obj.frame_index, frames))
        except PropagationError:
            raise
        except Exception as exc:
            raise PropagationError(
                f"{call} failed for object {obj.object_id}: {exc} "
                f"(from frame {obj.frame_index})"
            ) from exc
        where = f"{call} of object {obj.object_id}"
        if len(masks) != len(frames):
            raise PropagationError(
                f"{where} gave {len(masks)} masks for the {len(frames)} "
                f"frames {frames[0]}..{frames[-1]}"
            )
        entries = {}
        for f, mask in zip(frames, masks):
            if not isinstance(mask, BinaryMask):
                raise PropagationError(
                    f"{where} gave a {type(mask).__name__} at frame {f}, not a BinaryMask"
                )
            if (mask.width, mask.height) != frame_size:
                raise PropagationError(
                    f"{where} gave a {mask.width}x{mask.height} mask at frame "
                    f"{f} of a {frame_size[0]}x{frame_size[1]} sequence"
                )
            entries[f] = MaskletEntry.from_mask(mask, obj.detection.confidence)
        masklets.append(Masklet(obj.object_id, obj.detection.class_label, entries))
    return masklets


def remove_trailing_empty(m: Masklet, epsilon_mask: int) -> Masklet | None:
    """Drop entries after the last frame holding more than epsilon_mask pixels.

    A masklet whose every frame is at or below the floor is dropped entirely.
    """
    terminus = None
    for f in m.frames():
        if m.entries[f].mask.count > epsilon_mask:
            terminus = f
    if terminus is None:
        return None
    kept = {f: e for f, e in m.entries.items() if f <= terminus}
    return Masklet(m.object_id, m.class_label, kept)


@functools.lru_cache(maxsize=None)
def _rotation_table(n: int) -> np.ndarray:
    """Row r holds the vertex order of np.roll(cur, -r, axis=0) for n vertices."""
    k = np.arange(n)
    table = (k[:, None] + k) % n
    table.flags.writeable = False
    return table


def _align_rotation(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Rotate cur's vertex order to minimize total squared distance to prev."""
    n = len(cur)
    # Each row's cost sums the same 2n squares in the same order as that
    # rotation's own sum, and argmin keeps the first of equal costs.
    diff = cur.take(_rotation_table(n), axis=0)
    diff -= prev
    diff *= diff
    r = int(diff.reshape(n, -1).sum(axis=1).argmin())
    return np.concatenate((cur[r:], cur[:r]))


def smooth_polygons(m: Masklet, alpha: float, resample_n: int) -> Masklet:
    """Recursive weighted averaging of consecutive frames' boundaries.

    Polygons are resampled to a common vertex count and rotation-aligned, then
    blended with the previous frame's smoothed result. Gaps (missing frames or
    empty masks) reset the recursion. alpha = 1 is the identity. Each
    smoothed entry holds its outline alone; its mask is rasterized when read.

    Every outline of the masklet is traced first, then all are resampled in
    one array pass; only alignment and blending, which need the previous
    frame's result, run frame by frame.
    """
    if alpha >= 1.0:
        return m
    frames = m.frames()
    polygons = [m.entries[f].polygon for f in frames]
    traced = [f for f, p in zip(frames, polygons) if p is not None]
    # Rows are blended in place, each from the row before once that is final.
    rows = resample_outlines([p for p in polygons if p is not None], resample_n)
    for i in range(1, len(traced)):
        if traced[i - 1] == traced[i] - 1:
            prev = rows[i - 1]
            rows[i] = alpha * _align_rotation(rows[i], prev) + (1.0 - alpha) * prev
    smoothed = dict(zip(traced, Polygon.from_rows(rows)))
    out = Masklet(m.object_id, m.class_label)
    for f in frames:
        entry = m.entries[f]
        outline = smoothed.get(f)
        out.entries[f] = (
            entry if outline is None
            else MaskletEntry.from_outline(outline, entry.frame_size, entry.confidence)
        )
    return out


def _merge_pass(
    present: list[Masklet], boxes: list[tuple], frame: int, tau_merge: float
) -> bool:
    n = len(present)
    overlapping = []
    for i in range(n):
        for j in range(i + 1, n):
            # Masks in disjoint boxes share no pixel: their IoU is 0, never
            # above tau_merge > 0, and neither needs to be rasterized.
            if box_overlap(boxes[i], boxes[j]) is None:
                continue
            v = iou_mask(present[i].entries[frame].mask, present[j].entries[frame].mask)
            if v > tau_merge:
                overlapping.append((i, j))

    merged_any = False
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(component_roots(n, overlapping)):
        groups.setdefault(root, []).append(i)
    for root, members in groups.items():
        if len(members) < 2:
            continue
        merged_any = True
        keeper = present[root]
        union = union_masks([present[i].entries[frame].mask for i in members])
        for i in members:
            if i != root:
                del present[i].entries[frame]
        keeper.entries[frame] = MaskletEntry.from_mask(union, keeper.entries[frame].confidence)
    return merged_any


def merge_redundant_frame(
    masklets: list[Masklet], frame: int, tau_merge: float
) -> list[Masklet]:
    """Collapse duplicate segments at one frame into the lowest-id masklet.

    Pairs whose masks overlap above tau_merge are grouped transitively and
    replaced by their union under the lowest id. A union can create fresh
    overlap with a previously clear segment, so passes repeat until no
    surviving pair exceeds the threshold. Masklets left without entries are
    dropped.
    """
    while True:
        # A pixel box is None for every empty mask. An outline's raster may
        # still turn out empty; such an entry shares no pixel with any other,
        # so it joins no group and changes no keeper or union.
        present, boxes = [], []
        for m in sorted(masklets, key=lambda m: m.object_id):
            box = m.entries[frame].pixel_box() if frame in m.entries else None
            if box is not None:
                present.append(m)
                boxes.append(box)
        if len(present) < 2 or not _merge_pass(present, boxes, frame, tau_merge):
            break
    return [m for m in masklets if m.entries]


def postprocess_masklets(
    masklets: list[Masklet], frames: Sequence[int], cfg: AshConfig
) -> list[Masklet]:
    """Refine propagated masklets: trailing-empty pruning, temporal smoothing,
    then per-frame redundancy merging. Every returned entry has its outline
    traced; a smoothed entry's mask is rasterized only when something reads
    it."""
    pruned = []
    for m in masklets:
        kept = remove_trailing_empty(m, cfg.epsilon_mask)
        if kept is not None:
            pruned.append(kept)
    smoothed = [smooth_polygons(m, cfg.alpha, cfg.resample_n) for m in pruned]
    for f in frames:
        smoothed = merge_redundant_frame(smoothed, f, cfg.tau_merge)
    # Trace the outlines of every entry kept, and of no other, before the
    # masklets leave the handler.
    for m in smoothed:
        for entry in m.entries.values():
            entry._trace()
    return smoothed
