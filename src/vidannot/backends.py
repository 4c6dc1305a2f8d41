"""Backend contracts for the two neural roles, plus a synthetic oracle world.

The open-vocabulary detector and the memory-based mask propagator are
abstract protocols so real models can be attached later. The synthetic
world implements the detector and propagator roles as deterministic oracles
over a scene of moving filled ellipses, with configurable noise. Every output
is a pure function of (inputs, seeds): repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .geometry import BBox, BinaryMask, iou_box, shift_mask


@dataclass(frozen=True)
class Detection:
    """One candidate object in one frame."""

    box: BBox
    class_label: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


class DetectorBackend(Protocol):
    """Open-vocabulary detector over whole frames and sub-frame regions."""

    @property
    def frame_size(self) -> tuple[int, int]: ...

    def detect(self, frame_index: int) -> list[Detection]: ...

    def detect_region(self, frame_index: int, region: BBox) -> list[Detection]: ...


class PropagatorBackend(Protocol):
    """Memory-based segmenter that extends one object's mask through frames."""

    def propagate(
        self, object_box: BBox, start_frame: int, frames: Sequence[int]
    ) -> list[BinaryMask]: ...


@dataclass(frozen=True)
class SyntheticWorldConfig:
    frame_width: int = 320
    frame_height: int = 240
    num_objects: int = 4
    num_frames: int = 50
    # One (vx, vy) per object in px/frame; drawn from the rng when omitted.
    velocities: tuple[tuple[float, float], ...] | None = None
    ellipse_axes: tuple[float, float] = (12.0, 8.0)
    rng_seed: int = 0
    occlusion_enabled: bool = True
    class_label: str = "object"

    def __post_init__(self) -> None:
        if min(self.frame_width, self.frame_height, self.num_objects, self.num_frames) < 1:
            raise ValueError("all counts must be >= 1")
        ax, ay = self.ellipse_axes
        if 2 * ax + 2 >= self.frame_width or 2 * ay + 2 >= self.frame_height:
            raise ValueError("ellipse does not fit inside the frame")
        if self.velocities is not None and len(self.velocities) != self.num_objects:
            raise ValueError("need one velocity per object")


@dataclass(frozen=True)
class DetectionNoise:
    """Detector corruption model; the default instance is noise-free."""

    miss_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per frame
    jitter_sigma: float = 0.0  # px, Gaussian on each box coordinate
    tp_confidence_range: tuple[float, float] = (0.8, 0.8)
    fp_confidence_range: tuple[float, float] = (0.1, 0.1)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError(f"miss_rate out of [0,1]: {self.miss_rate}")
        if self.fp_rate < 0.0:
            raise ValueError(f"fp_rate must be >= 0: {self.fp_rate}")
        for lo, hi in (self.tp_confidence_range, self.fp_confidence_range):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"bad confidence range: ({lo}, {hi})")


@dataclass(frozen=True)
class PropagationDegradation:
    """Propagator corruption: per-frame cumulative drift plus mask dropout."""

    drift_px_per_frame: tuple[float, float] = (0.0, 0.0)
    dropout_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError(f"dropout_rate out of [0,1]: {self.dropout_rate}")


@dataclass(frozen=True)
class GroundTruthObject:
    identity: int
    mask: BinaryMask  # visible portion only
    box: BBox  # tight box of the visible mask when visibility > 0
    class_label: str
    visibility: float  # visible pixels / full unoccluded-unclipped pixels


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_index: int
    width: int
    height: int
    objects: tuple[GroundTruthObject, ...] = field(default_factory=tuple)

    def visible_objects(self) -> list[GroundTruthObject]:
        return [o for o in self.objects if o.visibility > 0.0]


def _ellipse_crop(cx: float, cy: float, ax: float, ay: float) -> tuple[np.ndarray, int, int]:
    """The ellipse's pixels on an unbounded grid, inside its box plus one pixel
    of slack, and that box's top-left (x, y)."""
    x0 = int(math.floor(cx - ax)) - 1
    x1 = int(math.ceil(cx + ax)) + 1
    y0 = int(math.floor(cy - ay)) - 1
    y1 = int(math.ceil(cy + ay)) + 1
    yy, xx = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    return ((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 <= 1.0, x0, y0


def generate_synthetic_sequence(cfg: SyntheticWorldConfig) -> list[GroundTruthFrame]:
    """Deterministic scene of moving ellipses with optional mutual occlusion.

    Objects move by their per-object velocity; masks are clipped at the frame
    borders so an object can partially or fully leave the scene. When
    occlusion is enabled, later-identity objects occlude earlier ones and
    visibility is the remaining fraction of the full ellipse. Each ellipse is
    rendered only inside its own box.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    ax, ay = cfg.ellipse_axes
    w, h = cfg.frame_width, cfg.frame_height

    centers = np.empty((cfg.num_objects, 2), dtype=float)
    for i in range(cfg.num_objects):
        centers[i, 0] = rng.uniform(ax + 1.0, w - ax - 2.0)
        centers[i, 1] = rng.uniform(ay + 1.0, h - ay - 2.0)
    if cfg.velocities is not None:
        vel = np.asarray(cfg.velocities, dtype=float)
    else:
        vel = rng.uniform(-1.5, 1.5, size=(cfg.num_objects, 2))

    frames: list[GroundTruthFrame] = []
    for t in range(cfg.num_frames):
        pos = centers + vel * t
        # Each ellipse clipped to the frame, as (crop, x0, y0, x1, y1), plus
        # its unclipped pixel count.
        full = []
        totals = []
        for i in range(cfg.num_objects):
            crop, ex0, ey0 = _ellipse_crop(pos[i, 0], pos[i, 1], ax, ay)
            totals.append(int(crop.sum()))
            x0, y0 = max(0, ex0), max(0, ey0)
            x1, y1 = min(w, ex0 + crop.shape[1]), min(h, ey0 + crop.shape[0])
            if x0 < x1 and y0 < y1:
                full.append((crop[y0 - ey0 : y1 - ey0, x0 - ex0 : x1 - ex0], x0, y0, x1, y1))
            else:
                full.append((crop[:0, :0], 0, 0, 0, 0))
        objects: list[GroundTruthObject] = []
        for i in range(cfg.num_objects):
            crop, x0, y0, x1, y1 = full[i]
            visible = crop.copy()
            if cfg.occlusion_enabled:
                for other, ox0, oy0, ox1, oy1 in full[i + 1 :]:
                    ix0, iy0, ix1, iy1 = max(x0, ox0), max(y0, oy0), min(x1, ox1), min(y1, oy1)
                    if ix0 < ix1 and iy0 < iy1:
                        visible[iy0 - y0 : iy1 - y0, ix0 - x0 : ix1 - x0] &= ~other[
                            iy0 - oy0 : iy1 - oy0, ix0 - ox0 : ix1 - ox0
                        ]
            total = totals[i]
            mask = BinaryMask.from_crop(visible, x0, y0, w, h)
            visibility = mask.count / total if total else 0.0
            if mask.is_empty():
                box = BBox(0.0, 0.0, 0.0, 0.0)
            else:
                ch, cw = mask.crop.shape
                bx, by = float(mask.x0), float(mask.y0)
                box = BBox(bx, by, bx + cw - 1, by + ch - 1)
            objects.append(
                GroundTruthObject(
                    identity=i,
                    mask=mask,
                    box=box,
                    class_label=cfg.class_label,
                    visibility=visibility,
                )
            )
        frames.append(GroundTruthFrame(t, w, h, tuple(objects)))
    return frames


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(lo + rng.uniform() * (hi - lo))


def _jitter_box(box: BBox, sigma: float, rng: np.random.Generator) -> BBox:
    if sigma <= 0.0:
        return box
    d = rng.normal(0.0, sigma, size=4)
    x1, x2 = sorted((box.x1 + d[0], box.x2 + d[1]))
    y1, y2 = sorted((box.y1 + d[2], box.y2 + d[3]))
    return BBox(x1, y1, x2, y2)


def _detect_in_region(
    gt: GroundTruthFrame,
    noise: DetectionNoise,
    region: BBox | None,
    stream_tag: int,
) -> list[Detection]:
    rng = np.random.default_rng(
        [noise.rng_seed, gt.frame_index, stream_tag & 0x7FFFFFFF]
    )
    frame_area = gt.width * gt.height
    region_area = region.area if region is not None else frame_area
    out: list[Detection] = []
    for obj in gt.visible_objects():
        if region is not None:
            ix = max(0.0, min(obj.box.x2, region.x2) - max(obj.box.x1, region.x1))
            iy = max(0.0, min(obj.box.y2, region.y2) - max(obj.box.y1, region.y1))
            cover = (ix * iy) / obj.box.area if obj.box.area > 0 else 0.0
            if cover < 0.5:
                continue
        if rng.uniform() < noise.miss_rate:
            continue
        box = _jitter_box(obj.box, noise.jitter_sigma, rng)
        if region is not None:
            x1 = max(box.x1, region.x1)
            y1 = max(box.y1, region.y1)
            box = BBox(x1, y1, max(x1, min(box.x2, region.x2)), max(y1, min(box.y2, region.y2)))
        conf = _uniform(rng, *noise.tp_confidence_range)
        out.append(Detection(box, obj.class_label, conf))
    lam = noise.fp_rate * (region_area / frame_area if frame_area else 0.0)
    n_fp = int(rng.poisson(lam)) if lam > 0 else 0
    rx1 = region.x1 if region is not None else 0.0
    ry1 = region.y1 if region is not None else 0.0
    rw = region.width if region is not None else float(gt.width)
    rh = region.height if region is not None else float(gt.height)
    for _ in range(n_fp):
        side_cap = max(8.0, min(gt.width, gt.height) / 3.0)
        bw = _uniform(rng, 8.0, side_cap)
        bh = _uniform(rng, 8.0, side_cap)
        x1 = rx1 + rng.uniform() * max(1.0, rw - bw)
        y1 = ry1 + rng.uniform() * max(1.0, rh - bh)
        conf = _uniform(rng, *noise.fp_confidence_range)
        out.append(Detection(BBox(x1, y1, x1 + bw, y1 + bh), "object", conf))
    return out


def oracle_detect(gt: GroundTruthFrame, noise: DetectionNoise) -> list[Detection]:
    """Noisy detections for one ground-truth frame, deterministic given seeds.

    Each visible object is emitted with probability 1 - miss_rate, its box
    jittered and its confidence drawn uniformly from the TP range; spurious
    detections follow Poisson(fp_rate) with boxes anywhere in the frame.
    """
    return _detect_in_region(gt, noise, None, stream_tag=0)


_REGION_STREAM_SALT = 7919


def oracle_detect_region(
    gt: GroundTruthFrame, noise: DetectionNoise, region: BBox
) -> list[Detection]:
    """Independent second-look detection restricted to a sub-frame region.

    Draws come from a different seed stream than oracle_detect so a re-check
    of the same frame is decorrelated from the first pass, while staying
    deterministic per (seed, frame, region).
    """
    tag = _REGION_STREAM_SALT + int(region.x1) * 31 + int(region.y1) * 17
    return _detect_in_region(gt, noise, region, stream_tag=tag)


def oracle_propagate(
    object_box: BBox,
    start_frame: int,
    frames: Sequence[int],
    gt: Sequence[GroundTruthFrame],
    degradation: PropagationDegradation = PropagationDegradation(),
) -> list[BinaryMask]:
    """Per-frame masks for the ground-truth object best matching object_box.

    The matched object is the argmax box-IoU ground-truth object at
    start_frame; below an IoU of 0.3 the propagator intentionally returns an
    all-empty track, mirroring a segmenter initialized on a false positive.
    Masks are translated by cumulative drift and dropped with the dropout
    probability per frame.
    """
    if not frames:
        raise ValueError("frames must be nonempty")
    anchor = gt[start_frame]
    best_id = None
    best_iou = 0.0
    for obj in anchor.visible_objects():
        v = iou_box(object_box, obj.box)
        if v > best_iou:
            best_iou = v
            best_id = obj.identity
    width, height = anchor.width, anchor.height
    if best_id is None or best_iou <= 0.3:
        return [BinaryMask.zeros(width, height) for _ in frames]

    rng = np.random.default_rng(
        [degradation.rng_seed, start_frame, best_id]
    )
    dx, dy = degradation.drift_px_per_frame
    out: list[BinaryMask] = []
    for f in frames:
        if degradation.dropout_rate > 0 and rng.uniform() < degradation.dropout_rate:
            out.append(BinaryMask.zeros(width, height))
            continue
        obj = next((o for o in gt[f].objects if o.identity == best_id), None)
        if obj is None or obj.mask.is_empty():
            out.append(BinaryMask.zeros(width, height))
            continue
        steps = f - start_frame
        sx, sy = int(round(dx * steps)), int(round(dy * steps))
        out.append(shift_mask(obj.mask, sx, sy) if (sx or sy) else obj.mask)
    return out


class SyntheticDetector:
    """DetectorBackend over a pre-generated ground-truth sequence."""

    def __init__(self, gt: Sequence[GroundTruthFrame], noise: DetectionNoise) -> None:
        if not gt:
            raise ValueError("empty ground-truth sequence")
        self._gt = list(gt)
        self._noise = noise

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self._gt[0].width, self._gt[0].height)

    def detect(self, frame_index: int) -> list[Detection]:
        return oracle_detect(self._gt[frame_index], self._noise)

    def detect_region(self, frame_index: int, region: BBox) -> list[Detection]:
        return oracle_detect_region(self._gt[frame_index], self._noise, region)


class SyntheticPropagator:
    """PropagatorBackend over a pre-generated ground-truth sequence."""

    def __init__(
        self,
        gt: Sequence[GroundTruthFrame],
        degradation: PropagationDegradation = PropagationDegradation(),
    ) -> None:
        self._gt = list(gt)
        self._degradation = degradation

    def propagate(
        self, object_box: BBox, start_frame: int, frames: Sequence[int]
    ) -> list[BinaryMask]:
        return oracle_propagate(
            object_box, start_frame, frames, self._gt, self._degradation
        )
