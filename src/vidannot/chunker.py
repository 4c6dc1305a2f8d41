"""Long-sequence processing: chunk selection, overlap-based identity handoff,
checkpoints as one append-only log per sequence, and automatic
full-vs-chunk fallback.

Chunks are processed strictly in order; checkpoint writes are single-writer.
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
from .assoc import AssocConfig, Associator, rescale_confidence, validate_box
from .backends import Detection, PropagatorBackend
from .geometry import BinaryMask, Polygon, greedy_match, iou_mask

logger = logging.getLogger(__name__)

CHECKPOINT_SCHEMA_VERSION = 3


class ProcessingBudgetExceeded(RuntimeError):
    """Full-sequence processing exceeded the configured frame-object budget."""


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChunkerConfig:
    chi: int = 50  # chunk size, frames
    omega: int = 10  # overlap between consecutive chunks, frames
    tau_overlap: float = 0.7  # average mask IoU needed to inherit an id
    window: int | None = None  # optimal-frame search radius; omega when None
    checkpoint_interval: int = 25  # frames between saves in full mode
    full_budget: int | None = None  # max propagated (frame x object) entries

    def __post_init__(self) -> None:
        if self.chi < 1:
            raise ValueError(f"chi must be >= 1: {self.chi}")
        if not 0 <= self.omega < self.chi:
            raise ValueError(f"omega must be in [0, chi): omega={self.omega}, chi={self.chi}")
        if not 0.0 < self.tau_overlap < 1.0:
            raise ValueError(f"tau_overlap out of (0,1): {self.tau_overlap}")
        if self.window is not None and self.window < 0:
            raise ValueError(f"window must be None or >= 0: {self.window}")
        if self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1: {self.checkpoint_interval}")
        if self.full_budget is not None and self.full_budget < 1:
            raise ValueError(f"full_budget must be None or >= 1: {self.full_budget}")

    @property
    def search_window(self) -> int:
        return self.omega if self.window is None else self.window


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


def merge_chunk_overlap(
    prev_masklets: list[Masklet],
    next_masklets: list[Masklet],
    overlap_frames: Sequence[int],
    tau_overlap: float = 0.7,
) -> dict[int, int]:
    """Map next-chunk object ids onto previous-chunk ids via overlap mask IoU.

    For every (previous, next) pair, the per-frame mask IoU is averaged over
    the overlap frames where at least one of the two masks is nonempty; pairs
    where both are absent contribute nothing. Pairs above tau_overlap are
    claimed by `greedy_match` with the previous id as the row and the next id
    as the column; everything else keeps its own (already unique) id.
    """
    if not overlap_frames:
        raise ValueError("overlap_frames must be nonempty")
    candidates = []
    for a in prev_masklets:
        for b in next_masklets:
            total = 0.0
            frames_counted = 0
            for f in overlap_frames:
                ea = a.entries.get(f)
                eb = b.entries.get(f)
                ma = ea.mask if ea is not None else None
                mb = eb.mask if eb is not None else None
                a_empty = ma is None or ma.is_empty()
                b_empty = mb is None or mb.is_empty()
                if a_empty and b_empty:
                    continue
                frames_counted += 1
                if not a_empty and not b_empty:
                    total += iou_mask(ma, mb)
            if frames_counted and (avg := total / frames_counted) > tau_overlap:
                candidates.append((avg, a.object_id, b.object_id))
    mapping = {b_id: a_id for _, a_id, b_id in greedy_match(candidates)}
    for b in next_masklets:
        mapping.setdefault(b.object_id, b.object_id)
    return mapping


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
        elif not (isinstance(state, dict) and type(state.get("next_id")) is int):
            raise ValueError(f"chunk-mode associator state {state!r} has no integer next_id")
        header = payload["header"]
        width, height, num_frames = header["width"], header["height"], header["num_frames"]
        if any(type(v) is not int for v in (width, height, num_frames, last)) or not (
            width >= 1 and height >= 1 and 0 <= last < num_frames
        ):
            raise ValueError(f"header {header} does not fit last completed frame {last!r}")
        return cls(
            payload["sequence_id"],
            last,
            [_masklet_from_payload(p, width, height) for p in payload["masklets"]],
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


def _masklet_from_payload(payload: dict, width: int, height: int) -> Masklet:
    entries = {}
    for key in sorted(payload["entries"], key=int):
        e = payload["entries"][key]
        entries[int(key)] = MaskletEntry(
            BinaryMask.from_crop_runs(*e["box"], e["runs"], width, height),
            _polygon_from_ints(e["polygon"]),
            e["confidence"],
        )
    return Masklet(payload["object_id"], payload["class_label"], entries)


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
    polygons) and follow the lines before them: the same sequence, mode,
    frame size and frame count, a later last completed frame, and masklets
    that continue their objects' earlier frames. A whole first line that
    does not load raises a CheckpointError naming the file.
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
        valid = [replace(d, confidence=c) for d, c in zip(valid, new_scores)]
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


def _track(
    run: _Run,
    frames: list[int],
    associator: Associator,
    masklets: list[Masklet],
    budget: int | None = None,
    after_frame: Callable[[int], None] | None = None,
    reported: int = -1,
) -> list[Masklet]:
    """Associate each frame's verified detections, then propagate every new
    object through the rest of `frames`; the masklets are appended in place.

    A budget caps the propagated (frame x object) entries, those already in
    `masklets` included. Frames up to `reported` were already passed to the
    run's `on_frame` hook and are not passed again.
    """
    used = sum(len(m.entries) for m in masklets)
    for i, t in enumerate(frames):
        dets = _prepare_detections(run.detections[t], run.frame_size, run.assoc_cfg)
        result = associator.associate(dets, t)
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
        if run.on_frame is not None and t > reported:
            run.on_frame(t)
        if after_frame is not None:
            after_frame(t)
    return masklets


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
    "chunk" uses overlapping chunks with identity reconciliation; "auto"
    attempts full processing and falls back to chunk mode on a propagation
    failure or a blown processing budget. Full-mode checkpoints do not carry
    over into chunk mode, so the fallback restarts from frame 0. A run that
    does not resume first deletes the sequence's old checkpoints.
    """
    if mode not in ("full", "chunk", "auto"):
        raise ValueError(f"mode must be full|chunk|auto, got {mode!r}")
    store = CheckpointStore(checkpoint_dir, sequence_id) if checkpoint_dir is not None else None
    if store is not None and not resume:
        # A fresh run's checkpoints must not compete with an older run's.
        store.clear()
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
            return _run_full(run, resume)
        except (PropagationError, ProcessingBudgetExceeded) as exc:
            if mode == "full":
                raise
            logger.warning("full-sequence processing failed (%s); falling back to chunk mode", exc)
    try:
        return _run_chunked(run, resume)
    except (PropagationError, ProcessingBudgetExceeded) as exc:
        written = store is not None and store.path.exists()
        ref = f"; last checkpoint: {store.path}" if written else "; no checkpoint written"
        raise RuntimeError(f"both processing modes failed: {exc}{ref}") from exc


def _resume(run: _Run, resume: bool, mode: str) -> Checkpoint | None:
    """The checkpointed state a run in `mode` continues from, if any.

    The store's next save extends that state's log; without one, it starts
    a new log. A state saved for frames of another size or count raises.
    """
    if run.store is None:
        return None
    ckpt = run.store.load_latest() if resume else None
    if ckpt is None or ckpt.mode != mode:
        run.store.restart()
        return None
    if (ckpt.num_frames, ckpt.frame_size) != (len(run.detections), run.frame_size):
        raise CheckpointError(
            f"checkpoint of {ckpt.sequence_id} has {ckpt.num_frames} frames of "
            f"{ckpt.frame_size[0]}x{ckpt.frame_size[1]}, the sequence {len(run.detections)} "
            f"of {run.frame_size[0]}x{run.frame_size[1]}"
        )
    logger.info(
        "resuming %s (%s mode) after frame %d", ckpt.sequence_id, mode, ckpt.last_completed_frame
    )
    return ckpt


def _save(run: _Run, t: int, masklets: list[Masklet], assoc_state: dict, mode: str) -> None:
    """Append the state after frame `t` to the run's checkpoint log."""
    sequence_id, num_frames = run.store.sequence_id, len(run.detections)
    run.store.save(
        Checkpoint(sequence_id, t, masklets, assoc_state, mode, run.frame_size, num_frames)
    )


def _run_full(run: _Run, resume: bool) -> list[Masklet]:
    num_frames = len(run.detections)
    associator = Associator(run.assoc_cfg)
    masklets: list[Masklet] = []
    start = 0
    ckpt = _resume(run, resume, "full")
    if ckpt is not None:
        associator.set_state(ckpt.assoc_state)
        masklets = ckpt.masklets
        start = ckpt.last_completed_frame + 1

    def save(t: int) -> None:
        if (t + 1) % run.chunk_cfg.checkpoint_interval == 0 or t == num_frames - 1:
            _save(run, t, masklets, associator.get_state(), "full")

    _track(
        run,
        list(range(start, num_frames)),
        associator,
        masklets,
        budget=run.chunk_cfg.full_budget,
        after_frame=save if run.store is not None else None,
    )
    return postprocess_masklets(masklets, range(num_frames), run.ash_cfg)


def next_chunk(
    object_counts: Sequence[int], prev_end: int, cfg: ChunkerConfig
) -> tuple[int, int]:
    """The inclusive [start, end] interval of the chunk after the one ending
    at frame `prev_end` (-1 for the first chunk).

    The start is pulled toward object-dense frames near `prev_end + 1`, but
    stays at or before `prev_end`, so consecutive chunks share at least one
    frame to stitch identities over. Only the counts of the search window
    around `prev_end + 1` are read.
    """
    num_frames = len(object_counts)
    if num_frames > cfg.chi and cfg.chi - cfg.omega < 2:
        raise ValueError(f"chunking cannot advance with chi={cfg.chi}, omega={cfg.omega}")
    if prev_end < 0:
        return 0, min(num_frames - 1, cfg.chi - 1)
    optimal = find_optimal_frame(object_counts, prev_end + 1, cfg.search_window)
    start = min(max(0, optimal - cfg.omega), prev_end)  # share a frame with the previous chunk
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


def _stitch(
    stitched: list[Masklet],
    chunk_masklets: list[Masklet],
    overlap_frames: list[int],
    tau_overlap: float,
) -> list[Masklet]:
    mapping = merge_chunk_overlap(stitched, chunk_masklets, overlap_frames, tau_overlap)
    by_id = {m.object_id: m for m in stitched}
    overlap_set = set(overlap_frames)
    for b in chunk_masklets:
        global_id = mapping[b.object_id]
        if global_id in by_id:
            target = by_id[global_id]
            for f in sorted(b.entries):
                if f in overlap_set:
                    continue  # previous chunk's entries win inside the overlap
                if f not in target.entries:
                    target.entries[f] = b.entries[f]
        else:
            kept = Masklet(global_id, b.class_label, dict(b.entries))
            by_id[global_id] = kept
            stitched.append(kept)
    return stitched


def _run_chunked(run: _Run, resume: bool) -> list[Masklet]:
    # Each chunk follows from the previous chunk's end alone, so a resume
    # continues after its checkpoint's last completed frame and verifies
    # only the frames it reads.
    counts = _DetectionCounts(run.detections)
    num_frames = len(run.detections)
    stitched: list[Masklet] = []
    next_id = 0
    prev_end = -1
    ckpt = _resume(run, resume, "chunk")
    if ckpt is not None:
        stitched = ckpt.masklets
        next_id = ckpt.assoc_state.get("next_id", 0)
        prev_end = ckpt.last_completed_frame

    while prev_end < num_frames - 1:
        start, end = next_chunk(counts, prev_end, run.chunk_cfg)
        associator = Associator(run.assoc_cfg, next_id=next_id)
        chunk_masklets = []
        # No name holds the unpruned list: its trailing empty masks are freed
        # before the next chunk is tracked.
        for m in _track(run, list(range(start, end + 1)), associator, [], reported=prev_end):
            kept = remove_trailing_empty(m, run.ash_cfg.epsilon_mask)
            if kept is not None:
                chunk_masklets.append(kept)
        next_id = associator.next_id
        if prev_end < 0:
            stitched = chunk_masklets
        else:
            overlap = list(range(start, prev_end + 1))
            stitched = _stitch(stitched, chunk_masklets, overlap, run.chunk_cfg.tau_overlap)
        if run.store is not None:
            _save(run, end, stitched, {"next_id": next_id}, "chunk")
        prev_end = end
    return postprocess_masklets(stitched, range(num_frames), run.ash_cfg)
