"""Long-sequence processing: chunk selection, chunks that continue the
objects live before them, checkpoints as one append-only log per sequence,
and automatic full-vs-chunk fallback.

The mode is a chunk length: full mode tracks the sequence as one chunk,
chunk mode in chunks of `chi` frames, and one pass runs both. Chunks are
processed strictly in order; checkpoint writes are single-writer.
`run_sequence` alone reads a sequence's checkpoint, once, and picks the
chunk length and the frame a resume continues from, mid-chunk included; the
pass only loops.
"""

from __future__ import annotations

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
    remove_trailing_empty,
)
from .assoc import AssocConfig, Associator, NewObject, Track, rescale_confidence, validate_box
from .backends import Detection, PropagatorBackend
from .geometry import BBox, BinaryMask, Polygon
# Unused here; the benchmark's tracer rebinds chunker.iou_mask and fails without it.
from .geometry import iou_mask  # noqa: F401

logger = logging.getLogger(__name__)

CHECKPOINT_SCHEMA_VERSION = 4


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


def merge_chunk_overlap(stitched: list[Masklet], chunk_masklets: list[Masklet]) -> list[Masklet]:
    """Append a chunk's masklets to the stitched ones, in place: each extends
    the stitched masklet of its id, or joins the list when its id is new.

    Every entry of a chunk masklet lies after the stitched frames, so an
    extended masklet keeps its entries in frame order.
    """
    by_id = {m.object_id: m for m in stitched}
    for m in chunk_masklets:
        have = by_id.get(m.object_id)
        if have is None:
            stitched.append(m)
        else:
            have.entries.update(m.entries)
    return stitched


@dataclass
class Checkpoint:
    """A sequence's tracking state after `last_completed_frame`, a frame of
    the chunk [start, end] that `chunk` names.

    On disk a checkpoint is a log, one schema-v4 line per save. A line holds
    its chunk, the associator state, a header with the sequence's frame size
    and frame count and the mask floor of its trim, and only the entries
    that no earlier line holds. `save_checkpoint` appends one line;
    `load_checkpoint` reads a whole log.
    """

    sequence_id: str
    last_completed_frame: int
    masklets: list[Masklet]
    assoc_state: dict
    chunk: tuple[int, int]  # (start, end), inclusive
    frame_size: tuple[int, int]  # (width, height)
    num_frames: int
    epsilon_mask: int  # the floor below which a chunk's end trims an entry

    def to_payload(self) -> dict:
        """This checkpoint as one schema-v4 line."""
        width, height = self.frame_size
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "sequence_id": self.sequence_id,
            "last_completed_frame": self.last_completed_frame,
            "chunk": list(self.chunk),
            "header": {"width": width, "height": height, "num_frames": self.num_frames,
                       "epsilon_mask": self.epsilon_mask},
            "assoc_state": self.assoc_state,
            "masklets": [_masklet_to_payload(m) for m in self.masklets],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> Checkpoint:
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not {CHECKPOINT_SCHEMA_VERSION}"
            )
        # A resume restores the associator state as it is, so a malformed one
        # is corruption too.
        state, last = payload["assoc_state"], payload["last_completed_frame"]
        Associator().set_state(state)
        # A mid-chunk resume associates the frame after the last completed
        # one, which must come after every frame the state has seen.
        if state["last_frame"] is not None and state["last_frame"] > last:
            raise ValueError(
                f"associator state has seen frame {state['last_frame']}, "
                f"after last completed frame {last!r}"
            )
        header, (start, end) = payload["header"], payload["chunk"]
        width, height, num_frames = header["width"], header["height"], header["num_frames"]
        epsilon_mask = header["epsilon_mask"]
        ints = (width, height, num_frames, epsilon_mask, start, last, end)
        if any(type(v) is not int for v in ints) or not (
            min(width, height, epsilon_mask) >= 1 and 0 <= start <= last <= end < num_frames
        ):
            raise ValueError(
                f"header {header} and chunk {payload['chunk']} do not fit "
                f"last completed frame {last!r}"
            )
        # An entry after the chunk's end would sit among the frames that the
        # next chunk appends.
        frames = range(end + 1)
        masklets = [_masklet_from_payload(p, width, height, frames) for p in payload["masklets"]]
        return cls(payload["sequence_id"], last, masklets, state, (start, end), (width, height),
                   num_frames, epsilon_mask)


def _masklet_to_payload(m: Masklet) -> dict:
    frames = m.frames()
    # Outlines are traced before the payload is built, which runs faster than
    # tracing each between run-length encodings.
    polygons = [m.entries[f].polygon for f in frames]
    entries = {}
    for f, polygon in zip(frames, polygons):
        e = m.entries[f]
        h, w = e.mask.crop.shape
        entries[str(f)] = {
            "box": [e.mask.x0, e.mask.y0, w, h],
            "runs": e.mask.crop_runs(),
            "polygon": _whole_pixels(polygon) if polygon is not None else None,
            "confidence": e.confidence,
        }
    return {"object_id": m.object_id, "class_label": m.class_label, "entries": entries}


def _whole_pixels(polygon: Polygon) -> list[int]:
    """The vertices as a flat list of integers. Checkpointed outlines are
    traced from masks, before any smoothing, so every vertex is a pixel
    centre; any other vertex raises rather than being rounded."""
    ints = polygon.vertices.astype(np.int64)
    if not np.array_equal(ints, polygon.vertices):
        raise ValueError(f"outline {polygon.vertices.tolist()} has a vertex off the pixel centres")
    return ints.ravel().tolist()


def _masklet_from_payload(payload: dict, width: int, height: int, frames: range) -> Masklet:
    """The masklet a line holds; every entry must be of one of `frames`."""
    object_id, label = payload["object_id"], payload["class_label"]
    if type(object_id) is not int or object_id < 0 or type(label) is not str:
        raise ValueError(f"object id {object_id!r} or class label {label!r} is malformed")
    entries = {}
    for key in sorted(payload["entries"], key=int):
        e, frame = payload["entries"][key], int(key)
        if frame not in frames:
            raise ValueError(
                f"object {object_id} has an entry at frame {frame}, "
                f"outside frames {frames.start}..{frames.stop - 1}"
            )
        confidence = e["confidence"]
        if type(confidence) not in (int, float) or not 0.0 <= confidence <= 1.0:
            raise ValueError(f"object {object_id} frame {frame}: confidence {confidence!r}")
        entries[frame] = MaskletEntry(
            BinaryMask.from_crop_runs(*e["box"], e["runs"], width, height),
            _polygon_from_ints(e["polygon"]),
            confidence,
        )
    return Masklet(object_id, label, entries)


def _polygon_from_ints(flat: list | None) -> Polygon | None:
    if flat is None:
        return None
    if len(flat) % 2 or not set(map(type, flat)) <= {int}:
        raise ValueError(f"outline {flat} is not a flat list of integer vertices")
    return Polygon(np.array(flat, dtype=np.float64).reshape(-1, 2))


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
    each parse, validate (header, chunk, associator state, mask runs, boxes,
    polygons, object ids, class labels, confidences and entry frames) and
    follow the lines before them: the same sequence, frame size, frame count
    and mask floor, a later last completed frame, the same chunk unless the
    line before ended its chunk, masklets that continue their objects'
    earlier frames, and a next_id above every object and track id, with no
    track id repeated. A whole first line that does not load raises a
    CheckpointError naming the file.
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
    is left as it was. A line at its chunk's end trims the masklets as the
    run did before it saved the line, so earlier lines' entries that the
    trim dropped are dropped again."""
    if state is not None and (
        (line.sequence_id, line.frame_size, line.num_frames, line.epsilon_mask)
        != (state.sequence_id, state.frame_size, state.num_frames, state.epsilon_mask)
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
    # A resume numbers the objects it finds from next_id on, so an id at or
    # above it would be given out twice.
    next_id = line.assoc_state["next_id"]
    track_ids = [t["id"] for t in line.assoc_state["tracks"]]
    if len(set(track_ids)) < len(track_ids):
        raise CheckpointError(f"track ids {track_ids} repeat")
    if max([*by_id, *track_ids], default=-1) >= next_id:
        raise CheckpointError(f"next_id {next_id} does not exceed every object and track id")
    masklets = list(by_id.values())
    if line.last_completed_frame == line.chunk[1]:
        masklets = _trim(masklets, line.epsilon_mask)
    return replace(line, masklets=masklets)


def _trim(masklets: list[Masklet], epsilon_mask: int) -> list[Masklet]:
    """The masklets without their trailing empty entries; those with no
    entry above `epsilon_mask` pixels are left out."""
    return [k for m in masklets if (k := remove_trailing_empty(m, epsilon_mask)) is not None]


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
        but for the trim of its trailing empty entries at a chunk's end,
        which loading applies again; so the log then holds all of `ckpt`."""
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

    Each chunk continues the stitched masklets live in its seed window,
    [start, previous end], under their ids, and tracks only the frames after
    the previous end: it associates each frame's verified detections and
    propagates every new object through the rest of the chunk. A detection
    that a masklet's mask covers at its frame is that object, and starts no
    propagation. `cfg.full_budget`, when set, caps the propagated (frame x
    object) entries. A chunk's end drops its masklets' trailing empty entries
    and appends them to the stitched ones. The state is saved every
    `checkpoint_interval` frames and at each chunk's end, and follows from
    the masklets, the associator state and the chunk alone: so a resume
    continues its checkpoint's chunk after the last completed frame, and
    verifies only the frames it reads.
    """
    counts = _DetectionCounts(run.detections)
    num_frames, epsilon_mask = len(run.detections), run.ash_cfg.epsilon_mask
    stitched: list[Masklet] = []
    tracked: list[Masklet] = []  # the chunk's masklets
    associator = Associator(run.assoc_cfg)
    done, (start, end) = -1, (0, -1)
    if ckpt is not None:
        done, (start, end) = ckpt.last_completed_frame, ckpt.chunk
        # Mid-chunk, the whole state stands for the chunk's masklets: the
        # others hold no frame after `done`, and their trim changes nothing.
        stitched, tracked = (ckpt.masklets, []) if done == end else ([], ckpt.masklets)
        associator.set_state(ckpt.assoc_state)
    while done < num_frames - 1:
        if done == end:
            start, end = next_chunk(counts, done, cfg)
            seeds = _seeds(stitched, range(start, done + 1), epsilon_mask)
            tracked = propagate_batch(
                seeds, list(range(done + 1, end + 1)), run.propagator, run.frame_size
            )
            tracks = [Track(s.object_id, s.detection.box) for s in seeds]
            associator = Associator(run.assoc_cfg, tracks=tracks, next_id=associator.next_id)
        frames = list(range(done + 1, end + 1))
        used = sum(len(m.entries) for m in tracked)
        for i, t in enumerate(frames):
            dets = _prepare_detections(run.detections[t], run.frame_size, run.assoc_cfg)
            live = [
                (m.object_id, box)
                for m in tracked
                if (box := _live_box(m.entries.get(t), epsilon_mask)) is not None
            ]
            new_objects = associator.associate(dets, live, t).new_objects
            if new_objects:
                projected = used + len(new_objects) * (len(frames) - i)
                if cfg.full_budget is not None and projected > cfg.full_budget:
                    raise ProcessingBudgetExceeded(
                        f"frame {t}: projected {projected} propagated entries > budget "
                        f"{cfg.full_budget}"
                    )
                produced = propagate_batch(new_objects, frames[i:], run.propagator, run.frame_size)
                tracked.extend(produced)
                used += sum(len(m.entries) for m in produced)
            if run.on_frame is not None:
                run.on_frame(t)
            if run.store is not None and t < end and (t + 1) % cfg.checkpoint_interval == 0:
                # The stitched masklets are copied, as the chunk's end has yet to extend them.
                copies = [Masklet(m.object_id, m.class_label, dict(m.entries)) for m in stitched]
                _save(run, t, (start, end), merge_chunk_overlap(copies, tracked), associator)
        stitched = merge_chunk_overlap(stitched, _trim(tracked, epsilon_mask))
        _save(run, end, (start, end), stitched, associator)
        done = end
    return postprocess_masklets(stitched, range(num_frames), run.ash_cfg)


def _save(
    run: _Run, t: int, chunk: tuple[int, int], masklets: list[Masklet], associator: Associator
) -> None:
    """Append the state after frame `t` of `chunk` to the run's log, when it has one."""
    if run.store is not None:
        run.store.save(Checkpoint(run.store.sequence_id, t, masklets, associator.get_state(),
                                  chunk, run.frame_size, len(run.detections),
                                  run.ash_cfg.epsilon_mask))
