"""Online object association: box validation, confidence rescaling, and
greedy IoU matching of detections to live tracks.

`associate_frame` keeps no state: its caller, the chunk pass, holds a
sequence's tracks and next object id from one frame to the next, and
checkpoints the tracks with its masklets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import Detection
from .geometry import BBox, greedy_match, iou_box


@dataclass(frozen=True)
class AssocConfig:
    tau_track_det: float = 0.5  # IoU needed to match a detection to a track
    lambda_min: float = 10.0  # px, smallest allowed box side
    lambda_max: float = 1000.0  # px, largest allowed box side
    margin: float = 0.5  # px, required distance from frame edges
    aspect_range: tuple[float, float] = (0.2, 5.0)
    track_buffer: int = 20  # frames a track survives unmatched

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_track_det <= 1.0:
            raise ValueError(f"tau_track_det out of (0,1]: {self.tau_track_det}")
        if self.lambda_min >= self.lambda_max:
            raise ValueError(
                f"need lambda_min < lambda_max, got {self.lambda_min}, {self.lambda_max}"
            )
        lo, hi = self.aspect_range
        if not 0 < lo <= hi:
            raise ValueError(f"need 0 < lo <= hi in aspect_range, got {self.aspect_range}")
        if self.track_buffer < 0:
            raise ValueError(f"track_buffer must be >= 0: {self.track_buffer}")


@dataclass(frozen=True)
class Track:
    id: int
    last_box: BBox
    age: int = 0  # frames since last match


@dataclass(frozen=True)
class NewObject:
    """A detection that opened a fresh track and needs segmentation."""

    object_id: int
    detection: Detection
    frame_index: int


@dataclass(frozen=True)
class AssociationResult:
    new_objects: list[NewObject]
    tracks: list[Track]  # live tracks after the update
    next_id: int


def validate_box(
    b: BBox, frame_w: float, frame_h: float, cfg: AssocConfig
) -> tuple[bool, str | None]:
    """Accept a box only if its sides, position, and aspect ratio are sane.

    Returns (accepted, reason); the reason names the failed criterion.
    """
    w, h = b.width, b.height
    if not (cfg.lambda_min <= w <= cfg.lambda_max and cfg.lambda_min <= h <= cfg.lambda_max):
        return False, f"size ({w:.1f}x{h:.1f}) outside [{cfg.lambda_min}, {cfg.lambda_max}]"
    m = cfg.margin
    if b.x1 < m or b.y1 < m or b.x2 > frame_w - m or b.y2 > frame_h - m:
        return False, f"box not inside margins [{m}, {frame_w - m}]x[{m}, {frame_h - m}]"
    if h <= 0:
        return False, "zero height"
    aspect = w / h
    lo, hi = cfg.aspect_range
    if not lo <= aspect <= hi:
        return False, f"aspect {aspect:.2f} outside [{lo}, {hi}]"
    return True, None


def rescale_confidence(scores: list[float]) -> list[float]:
    """Affine map of [min(scores), max(scores)] onto [0.7, 0.95].

    Order-preserving; a constant input maps to the midpoint of the target
    range.
    """
    if not scores:
        raise ValueError("scores must be nonempty")
    lo, hi = 0.7, 0.95
    smin, smax = min(scores), max(scores)
    if smax == smin:
        mid = (lo + hi) / 2.0
        return [mid for _ in scores]
    span = smax - smin
    # Divide before scaling: the ratio stays in [0, 1] even when the score
    # span is subnormal, where a precomputed 1/span would overflow.
    return [lo + ((s - smin) / span) * (hi - lo) for s in scores]


def associate_frame(
    tracks: list[Track],
    dets: list[Detection],
    live: list[tuple[int, BBox]],
    frame_index: int,
    cfg: AssocConfig,
    next_id: int = 0,
) -> AssociationResult:
    """Match detections to live tracks by greedy descending IoU.

    Pairs above tau_track_det are claimed by `greedy_match` with the track id
    as the row, so ties go to the lower track id, then the lower detection
    index. An unmatched detection whose IoU with one of the `live` (object
    id, box) pairs, the boxes of the masks that live masklets hold at this
    frame, exceeds tau_track_det is covered: it is that object seen again,
    so it opens no track. The covering object is the one of highest IoU,
    ties to the lower id; when its track is given and unmatched, the first
    such detection matches it, and otherwise the detection is dropped. Every
    other unmatched detection opens a new track with an id from a strictly
    monotone counter. Tracks unmatched for more than track_buffer frames are
    retired.
    """
    candidates = []
    for track in tracks:
        for di, det in enumerate(dets):
            v = iou_box(track.last_box, det.box)
            if v > cfg.tau_track_det:
                candidates.append((v, track.id, di))
    track_to_det = {track_id: di for _, track_id, di in greedy_match(candidates)}

    matched_det = set(track_to_det.values())
    track_ids = {track.id for track in tracks}
    new_objects: list[NewObject] = []
    for di, det in enumerate(dets):
        if di in matched_det:
            continue
        # The highest IoU, ties to the lower id.
        v, neg_id = max(((iou_box(det.box, box), -i) for i, box in live), default=(0.0, 0))
        if v <= cfg.tau_track_det:
            new_objects.append(NewObject(next_id, det, frame_index))
            next_id += 1
        elif -neg_id in track_ids and -neg_id not in track_to_det:
            track_to_det[-neg_id] = di

    # The constructor, not dataclasses.replace: this runs for every live
    # track on every frame, and replace costs over twice as much.
    updated: list[Track] = []
    for track in tracks:
        di = track_to_det.get(track.id)
        if di is not None:
            updated.append(Track(track.id, dets[di].box, 0))
        elif track.age < cfg.track_buffer:
            updated.append(Track(track.id, track.last_box, track.age + 1))
    updated.extend(Track(n.object_id, n.detection.box) for n in new_objects)
    return AssociationResult(new_objects, updated, next_id)
