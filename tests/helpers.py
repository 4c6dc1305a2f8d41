from __future__ import annotations

import dataclasses
import json
import math
import os
import stat

import numpy as np
from scipy import ndimage

import vidannot.chunker
from vidannot import geometry
from vidannot.ash import MaskletEntry
from vidannot.assoc import AssociationResult, NewObject, Track
from vidannot.backends import SyntheticWorldConfig, generate_synthetic_sequence
from vidannot.chunker import next_chunk
from vidannot.geometry import BBox, BinaryMask, Polygon


def ellipse_mask(cx: float, cy: float, ax: float, ay: float, w: int, h: int) -> BinaryMask:
    yy, xx = np.mgrid[0:h, 0:w]
    return BinaryMask(((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 <= 1.0)


def rect_mask(x1: int, y1: int, x2: int, y2: int, w: int, h: int) -> BinaryMask:
    g = np.zeros((h, w), dtype=bool)
    g[y1 : y2 + 1, x1 : x2 + 1] = True
    return BinaryMask(g)


def box_grid_world(
    num_frames: int,
    velocities: tuple[tuple[float, float], ...],
    seed: int = 0,
    occlusion: bool = False,
    frame: tuple[int, int] = (320, 240),
) -> list:
    cfg = SyntheticWorldConfig(
        frame_width=frame[0],
        frame_height=frame[1],
        num_objects=len(velocities),
        num_frames=num_frames,
        velocities=velocities,
        rng_seed=seed,
        occlusion_enabled=occlusion,
    )
    return generate_synthetic_sequence(cfg)


def boxes_equal(a: BBox, b: BBox, tol: float = 1e-9) -> bool:
    return (
        abs(a.x1 - b.x1) <= tol
        and abs(a.y1 - b.y1) <= tol
        and abs(a.x2 - b.x2) <= tol
        and abs(a.y2 - b.y2) <= tol
    )


def perimeter(p: Polygon) -> float:
    pts = p.vertices
    return sum(
        math.hypot(pts[(i + 1) % len(pts)][0] - x, pts[(i + 1) % len(pts)][1] - y)
        for i, (x, y) in enumerate(pts)
    )


# Dense oracles: straightforward full-frame versions of the crop-based mask
# kernels in vidannot.geometry and vidannot.ash. The equivalence tests hold
# the kernels to these results exactly.


def dense_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 0.0
    return inter / union


def dense_runs(grid: np.ndarray) -> list[int]:
    flat = grid.ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return [int(r) for r in runs]


_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
_MOORE_INDEX = {off: i for i, off in enumerate(_MOORE)}


def _dense_trace(component: np.ndarray) -> list[tuple[int, int]]:
    ys, xs = np.nonzero(component)
    start = (int(ys[0]), int(xs[0]))
    h, w = component.shape

    def fg(cell):
        y, x = cell
        return 0 <= y < h and 0 <= x < w and bool(component[y, x])

    boundary = [start]
    cur, back = start, (start[0], start[1] - 1)
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
            break
        cur, back = nxt, prev_checked
        if (cur, back) in seen:
            break
        seen.add((cur, back))
        boundary.append(cur)
    return boundary


def _dense_collapse(points):
    deduped = []
    for p in points:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    if len(deduped) < 3:
        return deduped
    out = []
    n = len(deduped)
    for i in range(n):
        prev, cur, nxt = deduped[(i - 1) % n], deduped[i], deduped[(i + 1) % n]
        ax, ay = cur[0] - prev[0], cur[1] - prev[1]
        bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
        if ax * by - ay * bx != 0 or ax * bx + ay * by <= 0:
            out.append(cur)
    return out if len(out) >= 3 else deduped


def dense_largest_component(grid: np.ndarray) -> np.ndarray:
    """The largest 4-connected component of a non-empty grid by
    scipy.ndimage.label, which numbers components in the raster order of
    their first pixels; the first of equal sizes wins."""
    labels, _ = ndimage.label(grid, structure=_FOUR)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == int(sizes.argmax())


def _dense_outline(grid: np.ndarray, min_pixels: int) -> tuple[tuple[float, float], ...] | None:
    """The outline's (x, y) vertices as float tuples, traced on the whole frame."""
    if int(grid.sum()) < min_pixels:
        return None
    if not grid.any():
        return None
    pts = _dense_collapse(_dense_trace(dense_largest_component(grid)))
    if len(pts) < 3:
        return None
    return tuple((float(x), float(y)) for y, x in pts)


def dense_polygon(grid: np.ndarray, min_pixels: int = 3) -> Polygon | None:
    vertices = _dense_outline(grid, min_pixels)
    return None if vertices is None else Polygon(vertices)


def dense_rasterize(p: Polygon, width: int, height: int) -> np.ndarray:
    vertices = np.asarray(p.vertices, dtype=float)
    grid = np.zeros((height, width), dtype=bool)
    n = len(vertices)
    y_lo = max(0, int(math.ceil(vertices[:, 1].min())))
    y_hi = min(height - 1, int(math.floor(vertices[:, 1].max())))
    for y in range(y_lo, y_hi + 1):
        xs = []
        for i in range(n):
            x0, y0 = vertices[i]
            x1, y1 = vertices[(i + 1) % n]
            if y0 == y1:
                continue
            if min(y0, y1) <= y < max(y0, y1):
                xs.append(x0 + (y - y0) * (x1 - x0) / (y1 - y0))
        xs.sort()
        for j in range(0, len(xs) - 1, 2):
            left = int(math.ceil(xs[j]))
            right = int(math.floor(xs[j + 1]))
            if right >= 0 and left < width:
                grid[y, max(0, left) : min(width - 1, right) + 1] = True
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        steps = max(int(round(max(abs(x1 - x0), abs(y1 - y0)))), 1)
        ts = np.linspace(0.0, 1.0, steps + 1)
        px = np.rint(x0 + ts * (x1 - x0)).astype(int)
        py = np.rint(y0 + ts * (y1 - y0)).astype(int)
        ok = (px >= 0) & (px < width) & (py >= 0) & (py < height)
        grid[py[ok], px[ok]] = True
    return grid


def loop_align_rotation(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    n = len(cur)
    best_r = 0
    best_cost = math.inf
    for r in range(n):
        rolled = np.roll(cur, -r, axis=0)
        cost = float(((rolled - prev) ** 2).sum())
        if cost < best_cost:
            best_cost = cost
            best_r = r
    return np.roll(cur, -best_r, axis=0)


def loop_resample_polygon(p: Polygon, n: int) -> Polygon:
    """resample_outlines' row for one polygon, as a walk over the targets, one
    segment step at a time."""
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


def eager_merge_redundant_frame(masklets: list, frame: int, tau_merge: float) -> list:
    """vidannot.ash.merge_redundant_frame as it was while every smoothed entry
    held its raster: each entry's mask is read to find the present ones, and
    every pair of them goes through iou_mask."""
    while True:
        present = [
            m for m in masklets if frame in m.entries and not m.entries[frame].mask.is_empty()
        ]
        present.sort(key=lambda m: m.object_id)
        if len(present) < 2:
            break
        n = len(present)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                v = geometry.iou_mask(present[i].entries[frame].mask, present[j].entries[frame].mask)
                if v > tau_merge:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        merged_any = False
        for root, members in groups.items():
            if len(members) < 2:
                continue
            merged_any = True
            keeper = present[root]
            union = geometry.union_masks([present[i].entries[frame].mask for i in members])
            for i in members:
                if i != root:
                    del present[i].entries[frame]
            keeper.entries[frame] = MaskletEntry.from_mask(union, keeper.entries[frame].confidence)
        if not merged_any:
            break
    return [m for m in masklets if m.entries]


# Tuple oracles: outlines built and written as they were when a Polygon held
# a tuple of (x, y) float tuples. The array paths must give the same floats
# and the same bytes.

Vertices = tuple[tuple[float, float], ...]


def tuple_outline(m: BinaryMask, min_pixels: int = 3) -> Vertices | None:
    """mask_to_polygon's vertices, built as float tuples by the full-frame,
    loop-based trace of the dense oracle."""
    return _dense_outline(m.data, min_pixels)


def tuple_resample(vertices: Vertices, n: int) -> Vertices:
    """resample_outlines' row for one outline, built as float tuples."""
    pts = np.asarray(vertices, dtype=float)
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))
    total = float(seg.sum())
    if total <= 0.0:
        raise ValueError("cannot resample a zero-perimeter polygon")
    cumulative = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.arange(n) * (total / n)
    j = np.searchsorted(cumulative[1 : len(seg)], targets, side="right")
    span = seg[j]
    zero = span == 0.0
    frac = np.where(zero, 0.0, (targets - cumulative[j]) / np.where(zero, 1.0, span))
    x = closed[j, 0] + frac * (closed[j + 1, 0] - closed[j, 0])
    y = closed[j, 1] + frac * (closed[j + 1, 1] - closed[j, 1])
    return tuple(zip(x.tolist(), y.tolist()))


def tuple_smooth(outlines: dict[int, Vertices | None], alpha: float, n: int) -> dict:
    """smooth_polygons' blended outlines by frame, built as float tuples;
    None where the frame has no outline."""
    out: dict[int, Vertices | None] = {}
    prev = None
    prev_frame = None
    for f in sorted(outlines):
        if outlines[f] is None:
            out[f] = prev = prev_frame = None
            continue
        cur = np.asarray(tuple_resample(outlines[f], n))
        if prev is None or prev_frame != f - 1:
            smoothed = cur
        else:
            smoothed = alpha * loop_align_rotation(cur, prev) + (1.0 - alpha) * prev
        out[f] = tuple((float(x), float(y)) for x, y in smoothed)
        prev = smoothed
        prev_frame = f
    return out


def tuple_write_annotations(doc, path) -> None:
    """vidannot.io.write_annotations, rounding each coordinate of the tuple
    vertices in turn with Python's correctly rounded round."""

    def round6(v: float) -> float:
        return round(v, 6)

    header = {
        "schema_version": doc.schema_version,
        "sequence_id": doc.sequence_id,
        "frame_width": doc.frame_width,
        "frame_height": doc.frame_height,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for f in sorted(doc.frames):
            objects = []
            for e in doc.frames[f]:
                vertices = tuple(map(tuple, e.polygon.vertices.tolist()))
                objects.append({
                    "track_id": e.track_id,
                    "class_label": e.class_label,
                    "confidence": round6(e.confidence),
                    "polygon": [[round6(x), round6(y)] for x, y in vertices],
                    "bbox": [round6(e.bbox.x1), round6(e.bbox.y1), round6(e.bbox.x2), round6(e.bbox.y2)],
                })
            fh.write(
                json.dumps({"frame": f, "objects": objects}, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def plan_chunks(counts, cfg) -> tuple[tuple[int, int], ...]:
    """Every chunk of a sequence with these per-frame object counts, as
    chunk mode picks them: each from the previous chunk's end."""
    chunks = [next_chunk(counts, -1, cfg)]
    while chunks[-1][1] < len(counts) - 1:
        chunks.append(next_chunk(counts, chunks[-1][1], cfg))
    return tuple(chunks)


def every_pair_qa_score(masklets, reference, sampled_frames) -> float:
    """vidannot.pipeline.qa_score as it was before box-disjoint pairs were
    skipped: every non-empty mask of a sampled frame goes through iou_mask."""
    total = 0.0
    count = 0
    for f in sampled_frames:
        for obj in reference[f].visible_objects():
            count += 1
            best = 0.0
            for m in masklets:
                entry = m.entries.get(f)
                if entry is None or entry.mask.is_empty():
                    continue
                v = geometry.iou_mask(entry.mask, obj.mask)
                if v > best:
                    best = v
            total += best
    return total / count if count else 1.0


def inject_append_fault(monkeypatch, phase: str) -> None:
    """Make checkpoint appends fail at `phase`: "write" writes half the line
    and raises, "fsync" fails the log's fsync and "directory fsync" the
    directory's."""
    real_open, real_fsync = open, os.fsync

    class CutShort:
        def __init__(self, fh) -> None:
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            self.fh.close()

        def write(self, text: str) -> None:
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("injected short write")

    def opened(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        return CutShort(fh) if phase == "write" else fh

    def fsync(fd: int) -> None:
        if phase == ("directory fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync"):
            raise OSError(f"injected {phase} failure")
        real_fsync(fd)

    monkeypatch.setattr(vidannot.chunker, "open", opened, raising=False)
    monkeypatch.setattr(os, "fsync", fsync)


# The claim loops that association and evaluation each carried before they
# shared geometry.greedy_match, kept as reference oracles.


def loop_associate_frame(tracks, dets, live, frame_index, cfg, next_id=0):
    """associate_frame with its own sort and claim loop, and its own scan for
    the live object that covers a detection."""
    pairs = []
    for ti, track in enumerate(tracks):
        for di, det in enumerate(dets):
            v = geometry.iou_box(track.last_box, det.box)
            if v > cfg.tau_track_det:
                pairs.append((v, track.id, di, ti))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

    track_to_det: dict[int, int] = {}
    matched_det: set[int] = set()
    for _, _, di, ti in pairs:
        if ti in track_to_det or di in matched_det:
            continue
        track_to_det[ti] = di
        matched_det.add(di)

    new_objects = []
    for di, det in enumerate(dets):
        if di in matched_det:
            continue
        cover, best = None, cfg.tau_track_det
        for obj_id, box in live:
            v = geometry.iou_box(det.box, box)
            if v > best or (cover is not None and v == best and obj_id < cover):
                cover, best = obj_id, v
        if cover is None:
            new_objects.append(NewObject(next_id, det, frame_index))
            next_id += 1
            continue
        for ti, track in enumerate(tracks):
            if track.id == cover and ti not in track_to_det:
                track_to_det[ti] = di

    updated = []
    for ti, track in enumerate(tracks):
        if ti in track_to_det:
            updated.append(dataclasses.replace(track, last_box=dets[track_to_det[ti]].box, age=0))
        else:
            aged = dataclasses.replace(track, age=track.age + 1)
            if aged.age <= cfg.track_buffer:
                updated.append(aged)
    updated += [Track(id=n.object_id, last_box=n.detection.box) for n in new_objects]
    return AssociationResult(new_objects, updated, next_id)


def loop_match_frame(predictions, ground_truth, iou_threshold=0.5):
    """match_frame with its own sort and claim loop."""
    pairs = []
    for pi, pb in enumerate(predictions):
        for gi, gb in enumerate(ground_truth):
            v = geometry.iou_box(pb, gb)
            if v >= iou_threshold:
                pairs.append((v, pi, gi))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    matches = []
    used_p: set[int] = set()
    used_g: set[int] = set()
    for v, pi, gi in pairs:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches.append((pi, gi, v))
    fps = [i for i in range(len(predictions)) if i not in used_p]
    fns = [i for i in range(len(ground_truth)) if i not in used_g]
    return matches, fps, fns
