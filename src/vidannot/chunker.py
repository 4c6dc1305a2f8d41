"""Long-sequence processing: chunk selection, chunks that continue the
objects live before them, checkpoints as one append-only log per sequence,
and automatic full-vs-chunk fallback.

The mode is a chunk length: full mode tracks the sequence as one chunk,
chunk mode in chunks of `chi` frames, and one pass runs both. The pass keeps
one masklet list for the whole sequence, which only grows: at their tails,
or by new masklets. Trailing empty entries are pruned once, after the last
chunk, by `postprocess_masklets`. Chunks are processed strictly in order;
checkpoint writes are single-writer, and a log's lines, joined, are the
run's state. `run_sequence` alone reads a sequence's checkpoint, once, and
picks the chunk length and the frame a resume continues from, mid-chunk
included; the pass only loops.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ash import (
    AshConfig,
    Masklet,
    MaskletEntry,
    PropagationError,
    postprocess_masklets,
    propagate_batch,
)
from . import assoc
from .assoc import AssocConfig, NewObject, Track, rescale_confidence, validate_box
from .backends import Detection, PropagatorBackend
from .geometry import BBox, BinaryMask, Polygon
# Unused here; the benchmark's tracer rebinds chunker.iou_mask and
# chunker.remove_trailing_empty and fails without them.
from .ash import remove_trailing_empty  # noqa: F401
from .geometry import iou_mask  # noqa: F401

logger = logging.getLogger(__name__)

CHECKPOINT_SCHEMA_VERSION = 7


class ProcessingBudgetExceeded(RuntimeError):
    """Full-sequence processing exceeded the configured frame-object budget."""


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChunkerConfig:
    chi: int = 50  # chunk size, frames
    omega: int = 10  # frames searched around a chunk boundary; bounds the seed window
    checkpoint_interval: int = 25  # frames between saves inside a chunk
    full_budget: int | None = None  # max propagated (frame x object) entries

    def __post_init__(self) -> None:
        if self.chi < 1:
            raise ValueError(f"chi must be >= 1: {self.chi}")
        if not 0 <= self.omega < self.chi:
            raise ValueError(f"omega must be in [0, chi): omega={self.omega}, chi={self.chi}")
        if self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1: {self.checkpoint_interval}")
        if self.full_budget is not None and self.full_budget < 1:
            raise ValueError(f"full_budget must be None or >= 1: {self.full_budget}")


def find_optimal_frame(
    object_counts: Sequence[int], center: int, window: int
) -> int:
    """Frame with the highest object count inside [center-window, center+window].

    The window is clipped to the valid frame range; ties resolve to the lowest
    index.
    """
    lo = max(0, center - window)
    hi = min(len(object_counts) - 1, center + window)
    if lo > hi:
        raise ValueError(
            f"window [{center - window}, {center + window}] misses frames 0..{len(object_counts) - 1}"
        )
    best = lo
    for f in range(lo, hi + 1):
        if object_counts[f] > object_counts[best]:
            best = f
    return best


def merge_chunk_overlap(masklets: list[Masklet], chunk_masklets: list[Masklet]) -> list[Masklet]:
    """Extend `masklets` in place by `chunk_masklets`: each extends the
    masklet of its id, or joins the list when its id is new. At a chunk's
    start, the seeds' propagation extends the masklets it continues.

    Every entry of a chunk masklet lies after the frames of `masklets`, so
    an extended masklet keeps its entries in frame order.
    """
    by_id = {m.object_id: m for m in masklets}
    for m in chunk_masklets:
        have = by_id.get(m.object_id)
        if have is None:
            masklets.append(m)
        else:
            have.entries.update(m.entries)
    return masklets


@dataclass
class Checkpoint:
    """A sequence's tracking state after `last_completed_frame`, a frame of
    the chunk [start, end] that `chunk` names.

    On disk a checkpoint is a log, one schema-v7 line per save. A line holds
    its chunk, its tracks, a header with the sequence's frame size and frame
    count, and only the entries that no earlier line holds; the lines joined
    are the state, and nothing derivable is stored. An entry holds its mask
    as the crop box and the crop's packed bits, and its outline as packed
    integer vertices, each as a base64 string. `save_checkpoint` appends one
    line; `load_checkpoint` reads a whole log.
    """

    sequence_id: str
    last_completed_frame: int
    masklets: list[Masklet]
    tracks: list[Track]
    chunk: tuple[int, int]  # (start, end), inclusive
    frame_size: tuple[int, int]  # (width, height)
    num_frames: int

    def to_payload(self) -> dict:
        """This checkpoint as one schema-v7 line."""
        width, height = self.frame_size
        vertex_dtype = _vertex_dtype(width, height)
        # A vertex outside the type's range casts to another value, which
        # `_whole_pixels` rejects; the cast's warning would only repeat that.
        with np.errstate(invalid="ignore"):
            masklets = [_masklet_to_payload(m, vertex_dtype) for m in self.masklets]
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "sequence_id": self.sequence_id,
            "last_completed_frame": self.last_completed_frame,
            "chunk": list(self.chunk),
            "header": {"width": width, "height": height, "num_frames": self.num_frames},
            "tracks": [
                {"id": t.id, "box": [t.last_box.x1, t.last_box.y1, t.last_box.x2, t.last_box.y2],
                 "age": t.age}
                for t in self.tracks
            ],
            "masklets": masklets,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> Checkpoint:
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not {CHECKPOINT_SCHEMA_VERSION}"
            )
        last = payload["last_completed_frame"]
        header, (start, end) = payload["header"], payload["chunk"]
        width, height, num_frames = header["width"], header["height"], header["num_frames"]
        ints = (width, height, num_frames, start, last, end)
        if any(type(v) is not int for v in ints) or not (
            min(width, height) >= 1 and 0 <= start <= last <= end < num_frames
        ):
            raise ValueError(
                f"header {header} and chunk {payload['chunk']} do not fit "
                f"last completed frame {last!r}"
            )
        # An entry after the chunk's end would sit among the frames that the
        # next chunk appends.
        frames = range(end + 1)
        masklets = [_masklet_from_payload(p, width, height, frames) for p in payload["masklets"]]
        # A resume continues the tracks as they are, so a malformed one is
        # corruption too; BBox rejects a non-finite or inverted box.
        raw = payload["tracks"]
        tracks = [Track(t["id"], BBox(*t["box"]), t["age"]) for t in raw]
        if type(raw) is not list or any(type(v) is not int for t in tracks for v in (t.id, t.age)):
            raise ValueError(f"tracks {raw!r} are malformed")
        return cls(payload["sequence_id"], last, masklets, tracks, (start, end), (width, height),
                   num_frames)


def _vertex_dtype(width: int, height: int) -> np.dtype:
    """The type of a checkpointed outline's coordinates on a width x height
    frame: each is a pixel centre inside the frame, so two bytes hold it on
    frames up to 65536 pixels a side, and four bytes on larger ones."""
    return np.dtype("<u2" if max(width, height) <= 1 << 16 else "<u4")


def _masklet_to_payload(m: Masklet, vertex_dtype: np.dtype) -> dict:
    frames = m.frames()
    # Outlines are traced before the payload is built, which runs faster than
    # tracing each between mask encodings.
    polygons = [m.entries[f].polygon for f in frames]
    entries = {}
    for f, polygon in zip(frames, polygons):
        e = m.entries[f]
        h, w = e.mask.crop.shape
        entries[str(f)] = {
            "box": [e.mask.x0, e.mask.y0, w, h],
            "bits": _base64(e.mask.crop_bits()),
            "polygon": None if polygon is None else _base64(_whole_pixels(polygon, vertex_dtype)),
            "confidence": e.confidence,
        }
    return {"object_id": m.object_id, "class_label": m.class_label, "entries": entries}


def _base64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _whole_pixels(polygon: Polygon, dtype: np.dtype) -> bytes:
    """The vertices as integers of `dtype`, x and y in turn. Checkpointed
    outlines are traced from masks, before any smoothing, so every vertex is
    a pixel centre; any other vertex, or one that `dtype` cannot hold, raises
    rather than being rounded or wrapped."""
    ints = polygon.vertices.astype(dtype)
    # Equal bytes are equal values, and run faster than an elementwise
    # compare; a traced vertex is never -0.0.
    if ints.astype(np.float64).tobytes() != polygon.vertices.tobytes():
        raise ValueError(
            f"outline {polygon.vertices.tolist()} has a vertex off the pixel centres or "
            f"outside 0..{np.iinfo(dtype).max}"
        )
    return ints.tobytes()


def _masklet_from_payload(payload: dict, width: int, height: int, frames: range) -> Masklet:
    """The masklet a line holds; every entry must be of one of `frames`, and
    keyed by its frame number as `str` writes it."""
    object_id, label = payload["object_id"], payload["class_label"]
    if type(object_id) is not int or object_id < 0 or type(label) is not str:
        raise ValueError(f"object id {object_id!r} or class label {label!r} is malformed")
    vertex_dtype = _vertex_dtype(width, height)
    entries = {}
    for key in sorted(payload["entries"], key=int):
        e, frame = payload["entries"][key], int(key)
        # Keys such as "00" or "+1" would name a frame that another key names too.
        if key != str(frame):
            raise ValueError(f"object {object_id} has an entry keyed {key!r}, not a frame number")
        if frame not in frames:
            raise ValueError(
                f"object {object_id} has an entry at frame {frame}, "
                f"outside frames {frames.start}..{frames.stop - 1}"
            )
        confidence = e["confidence"]
        if type(confidence) not in (int, float) or not 0.0 <= confidence <= 1.0:
            raise ValueError(f"object {object_id} frame {frame}: confidence {confidence!r}")
        bits = base64.b64decode(e["bits"], validate=True)
        entries[frame] = MaskletEntry(
            BinaryMask.from_crop_bits(*e["box"], bits, width, height),
            _polygon_from_bytes(e["polygon"], vertex_dtype),
            confidence,
        )
    return Masklet(object_id, label, entries)


def _polygon_from_bytes(text: str | None, dtype: np.dtype) -> Polygon | None:
    """The outline that `_whole_pixels` wrote, base64-encoded, or None."""
    if text is None:
        return None
    raw = base64.b64decode(text, validate=True)
    vertex = 2 * dtype.itemsize
    if len(raw) % vertex or len(raw) < 3 * vertex:
        raise ValueError(f"outline of {len(raw)} bytes is not 3 or more vertices of {vertex} bytes")
    return Polygon(np.frombuffer(raw, dtype=dtype).reshape(-1, 2))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Append `ckpt` to the log at `path` as one line, flushed and fsynced.

    A crash mid-append leaves at most a torn last line, which loading passes
    over. The directory is synced only when the append creates the log.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    created = not path.exists()
    # One json.dumps call encodes in C; json.dump writes the same bytes from
    # the pure-Python encoder.
    line = json.dumps(ckpt.to_payload(), separators=(",", ":"), sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_checkpoint(path: str | Path) -> tuple[Checkpoint | None, int]:
    """The state the log at `path` holds, and the length in bytes of the
    lines that hold it; (None, 0) when there is no log or no whole line.

    The state is that of the longest prefix of newline-terminated lines that
    each parse, validate (header, chunk, tracks, mask bits, boxes, outlines,
    object ids, class labels, confidences and entry frames) and follow the
    lines before them: the same sequence, frame size and frame count, a later
    last completed frame, the same chunk unless the line before ended its
    chunk, masklets that continue their objects' earlier frames, and tracks
    of distinct ids, each the id of an object of the lines joined. A whole
    first line that does not load raises a CheckpointError naming the file.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None, 0
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} unreadable ({exc})") from exc
    state, valid = None, 0
    *lines, torn = data.split(b"\n")
    for n, line in enumerate(lines, 1):
        try:
            state = _follow(state, Checkpoint.from_payload(json.loads(line)))
        except (ValueError, TypeError, LookupError, AttributeError, CheckpointError) as exc:
            if state is None:
                raise CheckpointError(f"checkpoint {path} line 1 unreadable ({exc})") from exc
            logger.warning("checkpoint %s line %d unreadable (%s)", path, n, exc)
            return state, valid
        valid += len(line) + 1
    if torn:
        logger.warning("checkpoint %s line %d is cut short", path, len(lines) + 1)
    return state, valid


def _follow(state: Checkpoint | None, line: Checkpoint) -> Checkpoint:
    """`state`, the lines before `line`, extended by `line`; `state` itself
    is left as it was."""
    if state is not None and (
        (line.sequence_id, line.frame_size, line.num_frames)
        != (state.sequence_id, state.frame_size, state.num_frames)
        or line.last_completed_frame <= state.last_completed_frame
        or (line.chunk != state.chunk and state.last_completed_frame != state.chunk[1])
    ):
        raise CheckpointError(
            f"frame {line.last_completed_frame} of chunk {line.chunk} of {line.sequence_id} does "
            f"not follow frame {state.last_completed_frame} of chunk {state.chunk} of "
            f"{state.sequence_id}"
        )
    by_id = {m.object_id: m for m in (state.masklets if state is not None else [])}
    for m in line.masklets:
        have = by_id.setdefault(m.object_id, m)
        if have is m:
            continue
        if m.class_label != have.class_label or (
            m.entries and have.entries and min(m.entries) <= max(have.entries)
        ):
            raise CheckpointError(f"object {m.object_id} does not continue its earlier frames")
        by_id[m.object_id] = Masklet(m.object_id, m.class_label, {**have.entries, **m.entries})
    track_ids = [t.id for t in line.tracks]
    if len(set(track_ids)) < len(track_ids):
        raise CheckpointError(f"track ids {track_ids} repeat")
    # A resume numbers new objects from one above the highest object id, so
    # a track of no object could give its id out twice.
    if not by_id.keys() >= set(track_ids):
        raise CheckpointError(f"track ids {sorted(set(track_ids) - by_id.keys())} name no object")
    return replace(line, masklets=list(by_id.values()))


class CheckpointStore:
    """One sequence's checkpoint: the log `<sequence_id>_ckpt.jsonl`.

    Each save appends a line to the log the store is on: the one
    `load_latest` read or, after `restart` or `clear`, a new one that
    replaces it.
    """

    def __init__(self, directory: str | Path, sequence_id: str) -> None:
        self.directory = Path(directory)
        self.sequence_id = sequence_id
        self.path = self.directory / f"{sequence_id}_ckpt.jsonl"
        self.restart()

    def _old_files(self) -> list[Path]:
        """The sequence's files of the file-per-save format of older versions,
        their .bak and .tmp copies included; no other sequence's files."""
        pattern = re.escape(self.sequence_id) + r"_ckpt_(final|frame_\d+)\.json(\.bak|\.tmp)?"
        return sorted(p for p in self.directory.glob("*") if re.fullmatch(pattern, p.name))

    def save(self, ckpt: Checkpoint) -> Path:
        """Append `ckpt`, a run's whole state, to the log as one line that
        holds only the entries no earlier line holds: for each object, the
        frames after the last one saved. A masklet grows only at its tail,
        so the log's lines, joined, then hold exactly `ckpt`."""
        saved = self._saved
        if saved is None:
            self.path.unlink(missing_ok=True)
            saved = {}
        masklets = []
        for m in ckpt.masklets:
            last = saved.get(m.object_id)
            tail = {f: e for f, e in m.entries.items() if last is None or f > last}
            if tail or last is None:
                masklets.append(Masklet(m.object_id, m.class_label, tail))
        save_checkpoint(replace(ckpt, masklets=masklets), self.path)
        self._saved = {m.object_id: max(m.entries, default=-1) for m in ckpt.masklets}
        return self.path

    def restart(self) -> None:
        """Start a new log at the next save, in place of the current one."""
        self._saved: dict[int, int] | None = None  # object id -> last frame the log holds

    def clear(self) -> None:
        """Delete the log and the sequence's older-format files, .bak and .tmp too."""
        for p in [self.path, *self._old_files()]:
            p.unlink(missing_ok=True)
        self.restart()

    def load_latest(self) -> Checkpoint | None:
        """The state the log holds, which the next save extends; None when
        the sequence has no checkpoint.

        A torn or bad tail is cut off the log. A bad first line, a log of
        another sequence, or no log beside a file of the older format raises
        a CheckpointError naming the file.
        """
        self.restart()
        if not self.path.exists():
            old = [p for p in self._old_files() if p.suffix == ".json"]
            if old:
                raise CheckpointError(f"checkpoint {old[0]} is of a format that no longer loads")
            return None
        state, valid = load_checkpoint(self.path)
        if state is not None and state.sequence_id != self.sequence_id:
            raise CheckpointError(f"checkpoint {self.path} line 1: sequence {state.sequence_id}")
        if self.path.stat().st_size > valid:
            os.truncate(self.path, valid)
        if state is not None:
            self._saved = {m.object_id: max(m.entries, default=-1) for m in state.masklets}
        return state


def _prepare_detections(
    dets: list[Detection], frame_size: tuple[int, int], assoc_cfg: AssocConfig
) -> list[Detection]:
    w, h = frame_size
    valid = [d for d in dets if validate_box(d.box, w, h, assoc_cfg)[0]]
    if valid:
        new_scores = rescale_confidence([d.confidence for d in valid])
        valid = [Detection(d.box, d.class_label, c) for d, c in zip(valid, new_scores)]
    return valid


@dataclass(frozen=True)
class _Run:
    """What one run_sequence call fixes for every pass over the sequence."""

    detections: Sequence[list[Detection]]
    propagator: PropagatorBackend
    frame_size: tuple[int, int]
    assoc_cfg: AssocConfig
    ash_cfg: AshConfig
    store: CheckpointStore | None
    on_frame: Callable[[int], None] | None


def _live_box(e: MaskletEntry | None, epsilon_mask: int) -> BBox | None:
    """The box of the mask of `e` when it has more than `epsilon_mask`
    pixels, else None; the box is inclusive, as detector boxes are."""
    if e is None or e.mask.count <= epsilon_mask:
        return None
    x0, y0, x1, y1 = e.pixel_box()
    return BBox(x0, y0, x1 - 1, y1 - 1)


def run_sequence(
    detections_per_frame: Sequence[list[Detection]],
    propagator: PropagatorBackend,
    frame_size: tuple[int, int],
    assoc_cfg: AssocConfig,
    ash_cfg: AshConfig,
    chunk_cfg: ChunkerConfig,
    mode: str = "auto",
    checkpoint_dir: str | Path | None = None,
    sequence_id: str = "seq",
    resume: bool = False,
    on_frame: Callable[[int], None] | None = None,
) -> list[Masklet]:
    """Process a whole sequence into finalized masklets.

    The mode is a chunk length. "full" tracks the whole sequence as one
    chunk, within `full_budget`; "chunk" tracks chunks of `chi` frames, each
    continuing the objects live just before it under their own ids; "auto"
    tries one chunk and falls back to chunks of `chi` on a propagation
    failure or a blown processing budget. The fallback starts from frame 0
    on a new checkpoint log.

    A run that does not resume first deletes the sequence's old checkpoints.
    A resume reads the log once and continues the chunk its last line names,
    after that line's frame, mid-chunk included. Only a fallback or chunk
    mode writes a log of chunks shorter than the sequence, so an "auto"
    resume over one continues in chunks. A "full" or "chunk" run over a log
    of the other chunk plan warns and starts over.
    """
    if mode not in ("full", "chunk", "auto"):
        raise ValueError(f"mode must be full|chunk|auto, got {mode!r}")
    num_frames = len(detections_per_frame)
    store = CheckpointStore(checkpoint_dir, sequence_id) if checkpoint_dir is not None else None
    ckpt = None
    if store is not None and resume:
        ckpt = store.load_latest()
    elif store is not None:
        # A fresh run's checkpoints must not compete with an older run's.
        store.clear()
    if ckpt is not None:
        if (ckpt.num_frames, ckpt.frame_size) != (num_frames, frame_size):
            raise CheckpointError(
                f"checkpoint of {ckpt.sequence_id} has {ckpt.num_frames} frames of "
                f"{ckpt.frame_size[0]}x{ckpt.frame_size[1]}, the sequence "
                f"{num_frames} of {frame_size[0]}x{frame_size[1]}"
            )
        logged = "full" if ckpt.chunk == (0, num_frames - 1) else "chunk"
        planned = "chunk" if mode == "chunk" and chunk_cfg.chi < num_frames else "full"
        if mode == "auto" and logged == "chunk":
            mode = "chunk"
        elif logged != planned:
            logger.warning(
                "checkpoint %s is of %s mode; %s mode starts over", store.path, logged, mode
            )
            store.restart()
            ckpt = None
    if ckpt is not None:
        logger.info("resuming %s (chunk %s) after frame %d", ckpt.sequence_id, ckpt.chunk,
                    ckpt.last_completed_frame)
    run = _Run(detections_per_frame, propagator, frame_size, assoc_cfg, ash_cfg, store, on_frame)
    if mode != "chunk":
        try:
            # One chunk of the whole sequence; omega, unused, must stay below chi.
            one_chunk = replace(chunk_cfg, chi=max(num_frames, chunk_cfg.omega + 1))
            return _track_chunks(run, ckpt, one_chunk)
        except (PropagationError, ProcessingBudgetExceeded) as exc:
            if mode == "full":
                raise
            logger.warning("full-sequence processing failed (%s); falling back to chunk mode", exc)
        if store is not None:
            store.restart()
        ckpt = None
    try:
        return _track_chunks(run, ckpt, replace(chunk_cfg, full_budget=None))
    except (PropagationError, ProcessingBudgetExceeded) as exc:
        written = store is not None and store.path.exists()
        ref = f"; last checkpoint: {store.path}" if written else "; no checkpoint written"
        ran = "both processing modes" if mode == "auto" else "chunk mode"
        raise RuntimeError(f"{ran} failed: {exc}{ref}") from exc


def next_chunk(
    object_counts: Sequence[int], prev_end: int, cfg: ChunkerConfig
) -> tuple[int, int]:
    """The inclusive [start, end] interval of the chunk after the one ending
    at frame `prev_end` (-1 for the first chunk).

    The start is pulled toward object-dense frames near `prev_end + 1`, but
    stays at or before `prev_end`, so the frames [start, prev_end] are a
    nonempty window to seed the chunk's objects from. Only the counts within
    `omega` frames of `prev_end + 1` are read.
    """
    num_frames = len(object_counts)
    if num_frames > cfg.chi and cfg.chi - cfg.omega < 2:
        raise ValueError(f"chunking cannot advance with chi={cfg.chi}, omega={cfg.omega}")
    if prev_end < 0:
        return 0, min(num_frames - 1, cfg.chi - 1)
    optimal = find_optimal_frame(object_counts, prev_end + 1, cfg.omega)
    start = min(max(0, optimal - cfg.omega), prev_end)  # the seed window holds prev_end
    end = min(num_frames - 1, start + cfg.chi - 1)
    if end <= prev_end:
        # Degenerate adjustment; force forward progress.
        start = prev_end - cfg.omega
        end = min(num_frames - 1, start + cfg.chi - 1)
    return start, end


class _DetectionCounts(Sequence):
    """Each frame's detection count, read from the frame's detections only
    when asked for."""

    def __init__(self, detections: Sequence[list[Detection]]) -> None:
        self._detections = detections

    def __len__(self) -> int:
        return len(self._detections)

    def __getitem__(self, t: int) -> int:
        return len(self._detections[t])


def _seeds(masklets: list[Masklet], window: range, epsilon_mask: int) -> list[NewObject]:
    """Each masklet whose mask is live at some frame of `window`, as an
    object to propagate from its last such frame with that mask's box."""
    seeds = []
    for m in masklets:
        for t in reversed(window):
            box = _live_box(m.entries.get(t), epsilon_mask)
            if box is not None:
                detection = Detection(box, m.class_label, m.entries[t].confidence)
                seeds.append(NewObject(m.object_id, detection, t))
                break
    return seeds


def _track_chunks(run: _Run, ckpt: Checkpoint | None, cfg: ChunkerConfig) -> list[Masklet]:
    """Track the sequence in chunks of `cfg.chi` frames, from `ckpt` on when
    there is one.

    The pass keeps one list of masklets for the whole sequence. Each chunk
    continues the masklets live in its seed window, [start, previous end],
    under their ids, extending them in place, and tracks only the frames
    after the previous end: it associates each frame's verified detections
    and propagates every new object, appended to the list, through the rest
    of the chunk. A detection that a masklet's mask covers at its frame is
    that object, and starts no propagation. `cfg.full_budget`, when set,
    caps the propagated (frame x object) entries. The state is saved every
    `checkpoint_interval` frames and at each chunk's end, and follows from
    the masklets, the tracks and the chunk alone: so a resume
    continues its checkpoint's chunk after the last completed frame, and
    verifies only the frames it reads. Trailing empty entries are pruned
    once, after the last chunk.
    """
    counts = _DetectionCounts(run.detections)
    num_frames, epsilon_mask = len(run.detections), run.ash_cfg.epsilon_mask
    masklets: list[Masklet] = []
    # The masklets that hold frames of the chunk, each up to the chunk's end.
    # Only these can be live in the chunk, or in the next chunk's seed window,
    # which starts after this chunk's start; so the scans read these alone,
    # and their cost follows the chunk, not the sequence so far.
    current: list[Masklet] = []
    tracks: list[Track] = []
    done, (start, end) = -1, (0, -1)
    if ckpt is not None:
        done, (start, end), masklets = ckpt.last_completed_frame, ckpt.chunk, ckpt.masklets
        current = [m for m in masklets if end in m.entries]
        tracks = ckpt.tracks
    # Every object opened gets a masklet, so ids continue past the highest.
    next_id = 1 + max((m.object_id for m in masklets), default=-1)
    while done < num_frames - 1:
        if done == end:
            start, end = next_chunk(counts, done, cfg)
            seeds = _seeds(current, range(start, done + 1), epsilon_mask)
            continued = propagate_batch(
                seeds, list(range(done + 1, end + 1)), run.propagator, run.frame_size
            )
            merge_chunk_overlap(current, continued)
            seeded = {s.object_id for s in seeds}
            current = [m for m in current if m.object_id in seeded]
            tracks = [Track(s.object_id, s.detection.box) for s in seeds]
        frames = list(range(done + 1, end + 1))
        used = sum(len(m.entries) for m in current)
        for i, t in enumerate(frames):
            dets = _prepare_detections(run.detections[t], run.frame_size, run.assoc_cfg)
            live = [
                (m.object_id, box)
                for m in current
                if (box := _live_box(m.entries.get(t), epsilon_mask)) is not None
            ]
            # Through the module, positionally: the benchmark's tracer rebinds
            # assoc.associate_frame, and its hooks take positional arguments only.
            result = assoc.associate_frame(tracks, dets, live, t, run.assoc_cfg, next_id)
            tracks, next_id, new_objects = result.tracks, result.next_id, result.new_objects
            if new_objects:
                projected = used + len(new_objects) * (len(frames) - i)
                if cfg.full_budget is not None and projected > cfg.full_budget:
                    raise ProcessingBudgetExceeded(
                        f"frame {t}: projected {projected} propagated entries > budget "
                        f"{cfg.full_budget}"
                    )
                produced = propagate_batch(new_objects, frames[i:], run.propagator, run.frame_size)
                masklets.extend(produced)
                current.extend(produced)
                used += sum(len(m.entries) for m in produced)
            if run.on_frame is not None:
                run.on_frame(t)
            if run.store is not None and (t == end or (t + 1) % cfg.checkpoint_interval == 0):
                run.store.save(Checkpoint(run.store.sequence_id, t, masklets, tracks, (start, end),
                                          run.frame_size, num_frames))
        done = end
    return postprocess_masklets(masklets, range(num_frames), run.ash_cfg)
