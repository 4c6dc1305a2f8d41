"""Long-sequence processing: chunk selection, overlap-based identity handoff,
three-phase checkpointing with filename-tagged restore, and automatic
full-vs-chunk fallback.

Chunks are processed strictly in order; checkpoint writes are single-writer.
"""

from __future__ import annotations

import glob
import json
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ash import (
    AshConfig,
    Masklet,
    MaskletEntry,
    PropagationError,
    partition_batches,
    postprocess_masklets,
    propagate_batch,
    remove_trailing_empty,
)
from .assoc import AssocConfig, Associator, rescale_confidence, validate_box
from .backends import Detection, PropagatorBackend
from .geometry import BinaryMask, Polygon, iou_mask

logger = logging.getLogger(__name__)

CHECKPOINT_SCHEMA_VERSION = 2


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
            raise ValueError(f"need 0 <= omega < chi, got omega={self.omega}, chi={self.chi}")
        if not 0.0 < self.tau_overlap < 1.0:
            raise ValueError(f"tau_overlap out of (0,1): {self.tau_overlap}")
        if self.window is not None and self.window < 0:
            raise ValueError(f"window must be None or >= 0: {self.window}")
        if self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1: {self.checkpoint_interval}")

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
    where both are absent contribute nothing. Ids are inherited greedily in
    descending average IoU while above tau_overlap, each previous id claimed
    at most once; everything else keeps its own (already unique) id.
    """
    if not overlap_frames:
        raise ValueError("overlap_frames must be nonempty")
    scores = []
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
            if frames_counted:
                scores.append((total / frames_counted, a.object_id, b.object_id))
    scores.sort(key=lambda s: (-s[0], s[1], s[2]))
    mapping: dict[int, int] = {}
    claimed: set[int] = set()
    for avg, a_id, b_id in scores:
        if avg <= tau_overlap:
            break
        if b_id in mapping or a_id in claimed:
            continue
        mapping[b_id] = a_id
        claimed.add(a_id)
    for b in next_masklets:
        mapping.setdefault(b.object_id, b.object_id)
    return mapping


@dataclass
class Checkpoint:
    """A sequence's tracking state after `last_completed_frame`.

    On disk a checkpoint is a chain of schema-v2 segments, one file each. A
    segment holds the associator state, a header with the sequence's frame
    size and frame count, the file name of the segment before it (`base`,
    None for the chain's root) and only the entries that no earlier segment
    of its chain holds. `load_checkpoint` reads one segment; `CheckpointStore`
    writes and assembles whole chains.
    """

    sequence_id: str
    last_completed_frame: int
    masklets: list[Masklet]
    assoc_state: dict
    mode: str  # "full" | "chunk"
    frame_size: tuple[int, int]  # (width, height)
    num_frames: int
    base: str | None = None

    def to_payload(self) -> dict:
        """This checkpoint as one schema-v2 segment."""
        width, height = self.frame_size
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "sequence_id": self.sequence_id,
            "last_completed_frame": self.last_completed_frame,
            "mode": self.mode,
            "header": {"width": width, "height": height, "num_frames": self.num_frames},
            "base": self.base,
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
            payload["base"],
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
    """Three-phase atomic save of one segment: write temp, back up the
    existing file, promote.

    A crash at any point leaves at least one valid checkpoint: either the
    untouched original, or the backup (plus a complete temp awaiting
    promotion).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    backup = path.with_name(path.name + ".bak")
    # One json.dumps call encodes in C; json.dump writes the same bytes from
    # the pure-Python encoder.
    text = json.dumps(ckpt.to_payload(), separators=(",", ":"), sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    if path.exists():
        os.replace(path, backup)
    os.replace(tmp, path)
    # The renames are durable only once the directory entry is on disk.
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> Checkpoint | None:
    """Load one segment, falling back to its backup; None means there is
    neither.

    A corrupt or version-mismatched file raises a CheckpointError, which names
    the recovery file when one exists. Corrupt covers unreadable files,
    invalid JSON and valid JSON whose payload fails validation (header, mask
    runs, boxes, polygons).
    """
    path = Path(path)
    backup = path.with_name(path.name + ".bak")

    def read(p: Path) -> Checkpoint:
        try:
            with open(p, encoding="utf-8") as fh:
                return Checkpoint.from_payload(json.load(fh))
        except (OSError, ValueError, TypeError, KeyError, CheckpointError) as exc:
            raise CheckpointError(f"checkpoint {p} unreadable ({exc})") from exc

    if path.exists():
        try:
            return read(path)
        except CheckpointError as exc:
            if backup.exists():
                raise CheckpointError(f"{exc}; recovery file: {backup}") from exc
            raise
    if backup.exists():
        logger.warning("checkpoint %s missing, recovering from %s", path, backup)
        return read(backup)
    return None


class CheckpointStore:
    """One sequence's checkpoint chain, as tagged files in one directory.

    Each save appends a segment to the chain the store is on: the one
    `load_latest` read, or a new one after `restart` or `clear`. After each
    save, every file of the sequence that the new head does not reach is
    deleted.
    """

    def __init__(self, directory: str | Path, sequence_id: str) -> None:
        self.directory = Path(directory)
        self.sequence_id = sequence_id
        self._chain: list[str] = []  # file names of the chain's links, root first
        self._saved: dict[int, int] = {}  # object id -> last frame the chain holds

    def _path_for(self, tag: str) -> Path:
        return self.directory / f"{self.sequence_id}_ckpt_{tag}.json"

    def _files(self, pattern: str) -> list[Path]:
        # The sequence id is matched literally, glob metacharacters included.
        return list(self.directory.glob(glob.escape(f"{self.sequence_id}_ckpt_") + pattern))

    def save(self, ckpt: Checkpoint, final: bool = False) -> Path:
        """Append `ckpt`, a run's whole state, to the chain as one segment
        that holds only the entries no earlier link holds: for each object,
        the frames after the last one saved. Both modes grow a masklet only
        at its tail, so the chain then holds all of `ckpt`."""
        path = self._path_for("final" if final else f"frame_{ckpt.last_completed_frame:04d}")
        if path.name in self._chain:
            raise ValueError(f"{path.name} is already a link of the chain")
        segment = replace(
            ckpt,
            masklets=self._unsaved(ckpt.masklets),
            base=self._chain[-1] if self._chain else None,
        )
        save_checkpoint(segment, path)
        self._chain.append(path.name)
        self._note_saved(segment.masklets)
        self._prune()
        return path

    def _note_saved(self, masklets: list[Masklet]) -> None:
        for m in masklets:
            self._saved[m.object_id] = max(m.entries, default=self._saved.get(m.object_id, -1))

    def _unsaved(self, masklets: list[Masklet]) -> list[Masklet]:
        out = []
        for m in masklets:
            last = self._saved.get(m.object_id)
            if last is None:
                out.append(m)
                continue
            tail = {f: e for f, e in m.entries.items() if f > last}
            if tail:
                out.append(Masklet(m.object_id, m.class_label, tail))
        return out

    def restart(self) -> None:
        """Start a new chain at the next save; that save prunes the old files."""
        self._chain = []
        self._saved = {}

    def clear(self) -> None:
        """Delete every checkpoint of this sequence, backups and temps included."""
        for p in self._files("*"):
            p.unlink(missing_ok=True)
        self.restart()

    def _prune(self) -> None:
        keep = set(self._chain)
        for p in self._files("*"):
            if p.name not in keep and p.name.removesuffix(".bak") not in keep:
                p.unlink(missing_ok=True)

    def candidates(self) -> list[Path]:
        """Chain heads, newest first: the final checkpoint, then by frame."""
        found = self._files("*.json")
        final = self._path_for("final")
        frames = sorted((p for p in found if "_ckpt_frame_" in p.name), reverse=True)
        return ([final] if final in found else []) + frames

    def load_latest(self) -> Checkpoint | None:
        """The state of the newest chain that loads whole, which the next save
        extends; None when the sequence has no checkpoint.

        A chain with a missing, unreadable or mismatched link is passed over
        for the next older head; when no chain loads, the last error raises.
        """
        last_error: CheckpointError | None = None
        for head in self.candidates():
            try:
                state, names = self._load_chain(head.name)
            except CheckpointError as exc:
                last_error = exc
                continue
            self.restart()
            self._chain = names
            self._note_saved(state.masklets)
            return state
        if last_error is not None:
            raise last_error
        return None

    def _load_chain(self, head: str) -> tuple[Checkpoint, list[str]]:
        """The state the chain ending in file `head` holds, and its links'
        file names, root first."""
        links: list[Checkpoint] = []
        names: list[str] = []
        name: str | None = head
        while name is not None:
            if name in names:
                raise CheckpointError(f"the chain of {head} loops back to {name}")
            if not (
                isinstance(name, str)
                and name.startswith(f"{self.sequence_id}_ckpt_")
                and name.endswith(".json")
                and Path(name).name == name
            ):
                raise CheckpointError(
                    f"the chain of {head} names {name!r}, not a checkpoint of {self.sequence_id}"
                )
            link = load_checkpoint(self.directory / name)
            if link is None:
                raise CheckpointError(f"{name}, a link of the chain of {head}, is missing")
            links.insert(0, link)
            names.insert(0, name)
            name = link.base
        last = links[-1]
        by_id: dict[int, Masklet] = {}
        masklets: list[Masklet] = []
        for i, link in enumerate(links):
            if (
                (link.sequence_id, link.mode) != (self.sequence_id, last.mode)
                or link.frame_size != last.frame_size
                or link.num_frames != last.num_frames
                or (i and link.last_completed_frame <= links[i - 1].last_completed_frame)
            ):
                raise CheckpointError(
                    f"{names[i]} ({link.mode} mode, sequence {link.sequence_id}, frame "
                    f"{link.last_completed_frame}) does not fit the chain of {head}"
                )
            for m in link.masklets:
                have = by_id.setdefault(m.object_id, m)
                if have is m:
                    masklets.append(m)
                elif m.class_label != have.class_label or (
                    m.entries and have.entries and min(m.entries) <= max(have.entries)
                ):
                    raise CheckpointError(
                        f"object {m.object_id} of {names[i]} does not continue its base"
                    )
                else:
                    have.entries.update(m.entries)
        return replace(last, masklets=masklets, base=None), names


def _prepare_detections(
    dets: list[Detection],
    frame_size: tuple[int, int],
    assoc_cfg: AssocConfig,
    rescale: bool,
) -> list[Detection]:
    w, h = frame_size
    valid = [d for d in dets if validate_box(d.box, w, h, assoc_cfg)[0]]
    if rescale and valid:
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
    sequence_id: str
    rescale: bool
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
        dets = _prepare_detections(run.detections[t], run.frame_size, run.assoc_cfg, run.rescale)
        result = associator.associate(dets, t)
        if result.new_objects and budget is not None:
            projected = used + len(result.new_objects) * (len(frames) - i)
            if projected > budget:
                raise ProcessingBudgetExceeded(
                    f"frame {t}: projected {projected} propagated entries > budget {budget}"
                )
        for batch in partition_batches(result.new_objects, run.ash_cfg.beta):
            produced = propagate_batch(batch, frames[i:], run.propagator)
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
    rescale: bool = True,
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
    store = (
        CheckpointStore(checkpoint_dir, sequence_id)
        if checkpoint_dir is not None
        else None
    )
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
        sequence_id,
        rescale,
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
        last = store.candidates() if store else []
        ref = f"; last checkpoint: {last[0]}" if last else "; no checkpoint written"
        raise RuntimeError(f"both processing modes failed: {exc}{ref}") from exc


def _resume(run: _Run, resume: bool, mode: str) -> Checkpoint | None:
    """The checkpointed state a run in `mode` continues from, if any.

    The store's next save extends that state's chain; without one, it starts
    a new chain. A state saved for frames of another size or count raises.
    """
    if run.store is None:
        return None
    ckpt = run.store.load_latest() if resume else None
    if ckpt is None or ckpt.mode != mode:
        run.store.restart()
        return None
    num_frames = len(run.detections)
    if ckpt.frame_size != run.frame_size:
        raise CheckpointError(
            f"checkpoint of {run.sequence_id} has {ckpt.frame_size[0]}x{ckpt.frame_size[1]} "
            f"frames, the sequence {run.frame_size[0]}x{run.frame_size[1]}"
        )
    if ckpt.num_frames != num_frames:
        raise CheckpointError(
            f"checkpoint of {run.sequence_id} has {ckpt.num_frames} frames, "
            f"the sequence {num_frames}"
        )
    logger.info(
        "resuming %s (%s mode) after frame %d", run.sequence_id, mode, ckpt.last_completed_frame
    )
    return ckpt


def _save(run: _Run, t: int, masklets: list[Masklet], assoc_state: dict, mode: str) -> None:
    """Append the state after frame `t` to the run's checkpoint chain."""
    num_frames = len(run.detections)
    run.store.save(
        Checkpoint(run.sequence_id, t, masklets, assoc_state, mode, run.frame_size, num_frames),
        final=(t == num_frames - 1),
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
