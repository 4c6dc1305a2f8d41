"""Long-sequence processing: chunk selection, chunks that continue the
objects live before them, checkpoints as one append-only log per sequence,
and automatic full-vs-chunk fallback.

Chunks are processed strictly in order; checkpoint writes are single-writer.
`run_sequence` alone reads a sequence's checkpoint, once, and picks the pass
and the frame a resume continues from; each pass only loops.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

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

CHECKPOINT_SCHEMA_VERSION = 3


class ProcessingBudgetExceeded(RuntimeError):
    """Full-sequence processing exceeded the configured frame-object budget."""


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChunkerConfig:
    chi: int = 50  # chunk size, frames
    omega: int = 10  # frames searched around a chunk boundary; bounds the seed window
    checkpoint_interval: int = 25  # frames between saves in full mode
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
    """A sequence's tracking state after `last_completed_frame`.

    On disk a checkpoint is a log, one schema-v3 line per save. A line holds
    the associator state, a header with the sequence's frame size and frame
    count, and only the entries that no earlier line holds.
    `save_checkpoint` appends one line; `load_checkpoint` reads a whole log.
    """

    sequence_id: str
    last_completed_frame: int
    masklets: list[Masklet]
    assoc_state: dict
    mode: str  # "full" | "chunk"
    frame_size: tuple[int, int]  # (width, height)
    num_frames: int

    def to_payload(self) -> dict:
        """This checkpoint as one schema-v3 line."""
        width, height = self.frame_size
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "sequence_id": self.sequence_id,
            "last_completed_frame": self.last_completed_frame,
            "mode": self.mode,
            "header": {"width": width, "height": height, "num_frames": self.num_frames},
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
        if payload["mode"] == "full":
            Associator().set_state(state)
            # The resume associates the frame after the last completed one,
            # which must come after every frame the state has seen.
            if state["last_frame"] is not None and state["last_frame"] > last:
                raise ValueError(
                    f"associator state has seen frame {state['last_frame']}, "
                    f"after last completed frame {last!r}"
                )
        elif payload["mode"] != "chunk":
            raise ValueError(f"mode {payload['mode']!r} is neither full nor chunk")
        elif not (isinstance(state, dict) and type(state.get("next_id")) is int):
            raise ValueError(f"chunk-mode associator state {state!r} has no integer next_id")
        header = payload["header"]
        width, height, num_frames = header["width"], header["height"], header["num_frames"]
        if any(type(v) is not int for v in (width, height, num_frames, last)) or not (
            width >= 1 and height >= 1 and 0 <= last < num_frames
        ):
            raise ValueError(f"header {header} does not fit last completed frame {last!r}")
        # A chunk-mode entry after the last completed frame would sit among
        # the frames that the next chunk appends.
        frames = range(num_frames if payload["mode"] == "full" else last + 1)
        return cls(
            payload["sequence_id"],
            last,
            [_masklet_from_payload(p, width, height, frames) for p in payload["masklets"]],
            payload["assoc_state"],
            payload["mode"],
            (width, height),
            num_frames,
        )


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
    each parse, validate (header, associator state, mask runs, boxes,
    polygons, object ids, class labels, confidences and entry frames) and
    follow the lines before them: the same sequence, mode, frame size and
    frame count, a later last completed frame, masklets that continue their
    objects' earlier frames, and a next_id above every object id and, in
    full mode, every track id, with no track id repeated. A whole first line
    that does not load raises a CheckpointError naming the file.
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
        (line.sequence_id, line.mode, line.frame_size, line.num_frames)
        != (state.sequence_id, state.mode, state.frame_size, state.num_frames)
        or line.last_completed_frame <= state.last_completed_frame
    ):
        raise CheckpointError(
            f"{line.mode} mode, frame {line.last_completed_frame} of {line.sequence_id} does not "
            f"follow {state.mode} mode, frame {state.last_completed_frame} of {state.sequence_id}"
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
    track_ids = [t["id"] for t in line.assoc_state["tracks"]] if line.mode == "full" else []
    if len(set(track_ids)) < len(track_ids):
        raise CheckpointError(f"track ids {track_ids} repeat")
    if max([*by_id, *track_ids], default=-1) >= next_id:
        raise CheckpointError(f"next_id {next_id} does not exceed every object and track id")
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
        frames after the last one saved. Both modes grow a masklet only at
        its tail, so the log then holds all of `ckpt`."""
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
    chunk_cfg: ChunkerConfig
    store: CheckpointStore | None
    on_frame: Callable[[int], None] | None


def _live_box(e: MaskletEntry | None, epsilon_mask: int) -> BBox | None:
    """The box of the mask of `e` when it has more than `epsilon_mask`
    pixels, else None; the box is inclusive, as detector boxes are."""
    if e is None or e.mask.count <= epsilon_mask:
        return None
    x0, y0, x1, y1 = e.pixel_box()
    return BBox(x0, y0, x1 - 1, y1 - 1)


def _track(
    run: _Run,
    frames: list[int],
    associator: Associator,
    masklets: list[Masklet],
    budget: int | None = None,
) -> Iterator[int]:
    """Associate each frame's verified detections, then propagate every new
    object through the rest of `frames`; the masklets are appended in place.
    Yields each frame once its new objects are propagated.

    A detection that the mask of one of `masklets` covers at its frame is
    that object, and starts no propagation. In chunk mode `masklets` holds
    the objects the chunk continues; in full mode it holds those a resume
    restored too, so a resume decides as the uninterrupted run did. A budget
    caps the propagated (frame x object) entries, those already in
    `masklets` included.
    """
    used = sum(len(m.entries) for m in masklets)
    for i, t in enumerate(frames):
        dets = _prepare_detections(run.detections[t], run.frame_size, run.assoc_cfg)
        live = [
            (m.object_id, box)
            for m in masklets
            if (box := _live_box(m.entries.get(t), run.ash_cfg.epsilon_mask)) is not None
        ]
        result = associator.associate(dets, live, t)
        if result.new_objects and budget is not None:
            projected = used + len(result.new_objects) * (len(frames) - i)
            if projected > budget:
                raise ProcessingBudgetExceeded(
                    f"frame {t}: projected {projected} propagated entries > budget {budget}"
                )
        if result.new_objects:
            produced = propagate_batch(
                result.new_objects, frames[i:], run.propagator, run.frame_size
            )
            masklets.extend(produced)
            used += sum(len(m.entries) for m in produced)
        yield t


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

    "full" runs association and propagation over the entire span in one pass;
    "chunk" runs chunk after chunk, each continuing the objects live just
    before it under their own ids; "auto"
    attempts full processing and falls back to chunk mode on a propagation
    failure or a blown processing budget. The fallback starts chunk mode
    from frame 0 on a new checkpoint log.

    A run that does not resume first deletes the sequence's old checkpoints.
    A resume reads the log once and continues its state in the log's mode:
    in auto mode a chunk-mode log, which only a fallback writes, resumes
    chunk mode. A "full" or "chunk" run over a log of the other mode warns
    and starts over.
    """
    if mode not in ("full", "chunk", "auto"):
        raise ValueError(f"mode must be full|chunk|auto, got {mode!r}")
    store = CheckpointStore(checkpoint_dir, sequence_id) if checkpoint_dir is not None else None
    ckpt = None
    if store is not None and resume:
        ckpt = store.load_latest()
    elif store is not None:
        # A fresh run's checkpoints must not compete with an older run's.
        store.clear()
    if ckpt is not None and mode == "auto" and ckpt.mode == "chunk":
        mode = "chunk"
    elif ckpt is not None and mode != "auto" and ckpt.mode != mode:
        logger.warning(
            "checkpoint %s is of %s mode; %s mode starts over", store.path, ckpt.mode, mode
        )
        store.restart()
        ckpt = None
    if ckpt is not None:
        if (ckpt.num_frames, ckpt.frame_size) != (len(detections_per_frame), frame_size):
            raise CheckpointError(
                f"checkpoint of {ckpt.sequence_id} has {ckpt.num_frames} frames of "
                f"{ckpt.frame_size[0]}x{ckpt.frame_size[1]}, the sequence "
                f"{len(detections_per_frame)} of {frame_size[0]}x{frame_size[1]}"
            )
        logger.info(
            "resuming %s (%s mode) after frame %d",
            ckpt.sequence_id, ckpt.mode, ckpt.last_completed_frame,
        )
    run = _Run(
        detections_per_frame,
        propagator,
        frame_size,
        assoc_cfg,
        ash_cfg,
        chunk_cfg,
        store,
        on_frame,
    )
    if mode in ("full", "auto"):
        try:
            return _run_full(run, ckpt)
        except (PropagationError, ProcessingBudgetExceeded) as exc:
            if mode == "full":
                raise
            logger.warning("full-sequence processing failed (%s); falling back to chunk mode", exc)
        if store is not None:
            store.restart()
        ckpt = None
    try:
        return _run_chunked(run, ckpt)
    except (PropagationError, ProcessingBudgetExceeded) as exc:
        written = store is not None and store.path.exists()
        ref = f"; last checkpoint: {store.path}" if written else "; no checkpoint written"
        ran = "both processing modes" if mode == "auto" else "chunk mode"
        raise RuntimeError(f"{ran} failed: {exc}{ref}") from exc


def _save(run: _Run, t: int, masklets: list[Masklet], assoc_state: dict, mode: str) -> None:
    """Append the state after frame `t` to the run's checkpoint log."""
    sequence_id, num_frames = run.store.sequence_id, len(run.detections)
    run.store.save(
        Checkpoint(sequence_id, t, masklets, assoc_state, mode, run.frame_size, num_frames)
    )


def _run_full(run: _Run, ckpt: Checkpoint | None) -> list[Masklet]:
    num_frames = len(run.detections)
    associator = Associator(run.assoc_cfg)
    masklets: list[Masklet] = []
    start = 0
    if ckpt is not None:
        associator.set_state(ckpt.assoc_state)
        masklets = ckpt.masklets
        start = ckpt.last_completed_frame + 1
    frames = list(range(start, num_frames))
    for t in _track(run, frames, associator, masklets, run.chunk_cfg.full_budget):
        if run.on_frame is not None:
            run.on_frame(t)
        last = t == num_frames - 1
        if run.store is not None and ((t + 1) % run.chunk_cfg.checkpoint_interval == 0 or last):
            _save(run, t, masklets, associator.get_state(), "full")
    return postprocess_masklets(masklets, range(num_frames), run.ash_cfg)


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


def _run_chunked(run: _Run, ckpt: Checkpoint | None) -> list[Masklet]:
    # Each chunk continues the stitched masklets live in [start, prev_end]
    # and tracks only the frames after prev_end. It follows from those
    # masklets and prev_end alone, so a resume continues after its
    # checkpoint's last completed frame and verifies only the frames it reads.
    counts = _DetectionCounts(run.detections)
    num_frames = len(run.detections)
    stitched: list[Masklet] = []
    next_id = 0
    prev_end = -1
    if ckpt is not None:
        stitched = ckpt.masklets
        next_id = ckpt.assoc_state["next_id"]
        prev_end = ckpt.last_completed_frame

    while prev_end < num_frames - 1:
        start, end = next_chunk(counts, prev_end, run.chunk_cfg)
        seeds = _seeds(stitched, range(start, prev_end + 1), run.ash_cfg.epsilon_mask)
        frames = list(range(prev_end + 1, end + 1))
        tracked = propagate_batch(seeds, frames, run.propagator, run.frame_size)
        tracks = [Track(s.object_id, s.detection.box) for s in seeds]
        associator = Associator(run.assoc_cfg, tracks=tracks, next_id=next_id)
        for t in _track(run, frames, associator, tracked):
            if run.on_frame is not None:
                run.on_frame(t)
        chunk_masklets = []
        for m in tracked:
            kept = remove_trailing_empty(m, run.ash_cfg.epsilon_mask)
            if kept is not None:
                chunk_masklets.append(kept)
        next_id = associator.next_id
        stitched = merge_chunk_overlap(stitched, chunk_masklets)
        if run.store is not None:
            _save(run, end, stitched, {"next_id": next_id}, "chunk")
        prev_end = end
    return postprocess_masklets(stitched, range(num_frames), run.ash_cfg)
