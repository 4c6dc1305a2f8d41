"""Dataset deployment: representative-sequence selection, detection parameter
optimization, cross-validation, the dataset-wide run, and QA sampling.

Sequences share nothing. With more than one worker, each runs in its own
forked child process, at most `workers` at once; the child inherits the
sources, backends and verified detections, and sends back only its
SequenceOutcome, which must therefore stay picklable. A child that dies
before sending becomes that sequence's error. Where `fork` does not exist,
sequences run one after another. Within a sequence the chunker's
strictly-ordered contract applies.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .backends import (
    Detection,
    DetectorBackend,
    GroundTruthFrame,
    PropagatorBackend,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from .ash import Masklet
from .chunker import run_sequence
from .config import PipelineConfig
from .geometry import box_overlap, iou_mask
from .io import masklets_to_document, masklets_to_mot, write_annotations, write_mot
from .metrics import SequenceScores, match_frame
from .smart_od import SmartOdConfig, run_smart_od

logger = logging.getLogger(__name__)


@dataclass
class SequenceSource:
    """Everything the pipeline needs to process one sequence."""

    sequence_id: str
    ground_truth: list[GroundTruthFrame]
    detector: DetectorBackend
    propagator: PropagatorBackend

    @property
    def num_frames(self) -> int:
        return len(self.ground_truth)

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self.ground_truth[0].width, self.ground_truth[0].height)

    def object_counts(self) -> list[int]:
        return [len(f.visible_objects()) for f in self.ground_truth]


def synthetic_source(
    sequence_id: str, cfg: PipelineConfig, world: SyntheticWorldConfig
) -> SequenceSource:
    gt = generate_synthetic_sequence(world)
    return SequenceSource(
        sequence_id,
        gt,
        SyntheticDetector(gt, cfg.noise),
        SyntheticPropagator(gt, cfg.degradation),
    )


def select_representative(
    object_counts_by_sequence: Mapping[str, Sequence[int]],
) -> tuple[str, int]:
    """Sequence holding the single most crowded frame, and that frame.

    Ties go to the first sequence in mapping order, then the lowest frame.
    """
    if not object_counts_by_sequence:
        raise ValueError("dataset must be nonempty")
    best_seq = None
    best_frame = 0
    best_count = -1
    for seq_id, counts in object_counts_by_sequence.items():
        for f, c in enumerate(counts):
            if c > best_count:
                best_seq, best_frame, best_count = seq_id, f, c
    return best_seq, best_frame


def detection_precision_recall(detections, gt_frame: GroundTruthFrame) -> tuple[float, float]:
    return _precision_recall([detections], [gt_frame])


def grid_configs(
    base: SmartOdConfig, grid: Mapping[str, Sequence]
) -> list[SmartOdConfig]:
    """Cartesian product of candidate values over the base config, in grid order."""
    if not grid:
        return [base]
    names = list(grid.keys())
    configs = []
    for combo in itertools.product(*(grid[n] for n in names)):
        configs.append(dataclasses.replace(base, **dict(zip(names, combo))))
    return configs


def optimize_parameters(
    frame_index: int,
    gt_frame: GroundTruthFrame,
    detector: DetectorBackend,
    grid: Mapping[str, Sequence],
    base_cfg: SmartOdConfig,
    alpha_weight: float,
) -> tuple[SmartOdConfig, float]:
    """Exhaustive grid search maximizing alpha*recall + (1-alpha)*precision.

    Scored on the single given frame against its ground truth at IoU 0.5;
    ties keep the earlier grid point.
    """
    candidates = grid_configs(base_cfg, grid)
    if not candidates:
        raise ValueError("parameter grid produced no configurations")
    best_cfg = candidates[0]
    best_j = -1.0
    for cfg in candidates:
        dets = run_smart_od(frame_index, detector, cfg)
        precision, recall = detection_precision_recall(dets, gt_frame)
        j = alpha_weight * recall + (1.0 - alpha_weight) * precision
        if j > best_j:
            best_j = j
            best_cfg = cfg
    return best_cfg, best_j


def cross_validate(
    representative: tuple[float, float],
    validation: tuple[float, float],
    gamma: float,
) -> bool:
    """min(P_val, R_val) >= gamma * min(P_rep, R_rep)."""
    return min(validation) >= gamma * min(representative)


class _Verified(Sequence):
    """A sequence's verified detections per frame, each verified on its first
    read and kept. A memo belongs to one deploy or run_dataset call; nothing
    is kept on the source, which callers may reuse."""

    def __init__(self, source: SequenceSource, cfg: SmartOdConfig) -> None:
        self._source = source
        self._cfg = cfg
        self._frames: list[list[Detection] | None] = [None] * source.num_frames

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, t: int) -> list[Detection]:
        t = range(len(self._frames))[t]
        dets = self._frames[t]
        if dets is None:
            dets = self._frames[t] = run_smart_od(t, self._source.detector, self._cfg)
        return dets


def sequence_precision_recall(source: SequenceSource, cfg: SmartOdConfig) -> tuple[float, float]:
    """Detection precision/recall of the verification stage over a sequence."""
    return _precision_recall(_Verified(source, cfg), source.ground_truth)


def _precision_recall(
    verified: Sequence[list[Detection]], ground_truth: list[GroundTruthFrame]
) -> tuple[float, float]:
    """Precision and recall of the detections against the visible objects,
    matched at box IoU 0.5."""
    scores = SequenceScores()
    for dets, gt_frame in zip(verified, ground_truth):
        gt_boxes = [o.box for o in gt_frame.visible_objects()]
        matches, fps, fns = match_frame([d.box for d in dets], gt_boxes)
        scores.tp += len(matches)
        scores.fp += len(fps)
        scores.fn += len(fns)
    return scores.precision, scores.recall


def stratified_sample_frames(num_frames: int, fraction: float, seed: int) -> list[int]:
    """One frame drawn per equal-width stratum; reproducible from the seed."""
    k = max(1, round(num_frames * fraction))
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, num_frames, k + 1)
    frames = []
    for i in range(k):
        lo, hi = int(edges[i]), max(int(edges[i]), int(edges[i + 1]) - 1)
        frames.append(int(rng.integers(lo, hi + 1)))
    return sorted(set(frames))


def qa_score(
    masklets: list[Masklet],
    reference: list[GroundTruthFrame],
    sampled_frames: Sequence[int],
) -> float:
    """Mean best mask IoU over reference objects in the sampled frames.

    A reference object with no overlapping predicted mask contributes zero, so
    drifted or missing annotations drag the score down. A mask whose pixel
    box misses the reference's has IoU 0 and is not read.
    """
    total = 0.0
    count = 0
    for f in sampled_frames:
        gt_frame = reference[f]
        for obj in gt_frame.visible_objects():
            count += 1
            best = 0.0
            for m in masklets:
                entry = m.entries.get(f)
                box = entry.pixel_box() if entry is not None else None
                if box is None or box_overlap(box, obj.mask.crop_box) is None:
                    continue
                v = iou_mask(entry.mask, obj.mask)
                if v > best:
                    best = v
            total += best
    return total / count if count else 1.0


@dataclass
class SequenceOutcome:
    sequence_id: str
    annotation_path: Path | None
    mot_path: Path | None
    qa: float | None = None
    error: str | None = None


@dataclass
class DeployReport:
    outcomes: dict[str, SequenceOutcome] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)
    representative: str | None = None
    optimized_j: float | None = None
    cross_validated: bool | None = None

    @property
    def failures(self) -> list[str]:
        return sorted(s for s, o in self.outcomes.items() if o.error is not None)


def _process_sequence(
    source: SequenceSource,
    detections: _Verified,
    pipe_cfg: PipelineConfig,
    out_dir: Path,
    checkpoint_dir: Path | None,
    mode: str,
    resume: bool,
) -> SequenceOutcome:
    # The chunker reads only the frames it tracks, so a full-mode resume
    # verifies only the frames after its checkpoint.
    masklets = run_sequence(
        detections,
        source.propagator,
        source.frame_size,
        pipe_cfg.assoc,
        pipe_cfg.ash,
        pipe_cfg.chunker,
        mode=mode,
        checkpoint_dir=checkpoint_dir,
        sequence_id=source.sequence_id,
        resume=resume,
    )
    w, h = source.frame_size
    doc = masklets_to_document(masklets, source.sequence_id, w, h)
    ann_path = out_dir / f"{source.sequence_id}_annotations.jsonl"
    mot_path = out_dir / f"{source.sequence_id}_track.txt"
    write_annotations(doc, ann_path)
    write_mot(masklets_to_mot(masklets), mot_path)
    sampled = stratified_sample_frames(
        source.num_frames, pipe_cfg.deploy.qa_sample_fraction, pipe_cfg.deploy.qa_seed
    )
    q = qa_score(masklets, source.ground_truth, sampled)
    return SequenceOutcome(source.sequence_id, ann_path, mot_path, qa=q)


def run_dataset(
    sources: Mapping[str, SequenceSource],
    smart_cfg: SmartOdConfig,
    pipe_cfg: PipelineConfig,
    out_dir: str | Path,
    checkpoint_dir: str | Path | None = None,
    mode: str = "auto",
    workers: int = 1,
    resume: bool = False,
) -> DeployReport:
    """Annotate every sequence, QA a stratified sample, flag low scorers.

    Per-sequence failures are recorded and do not stop the remaining
    sequences.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return _run_dataset(
        sources, {}, smart_cfg, pipe_cfg, out_dir, checkpoint_dir, mode, workers, resume
    )


def _run_dataset(
    sources: Mapping[str, SequenceSource],
    verified: Mapping[str, _Verified],
    smart_cfg: SmartOdConfig,
    pipe_cfg: PipelineConfig,
    out_dir: str | Path,
    checkpoint_dir: str | Path | None,
    mode: str,
    workers: int,
    resume: bool,
) -> DeployReport:
    """run_dataset, reusing the detections in `verified` that were verified
    with `smart_cfg` before."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(checkpoint_dir) if checkpoint_dir is not None else None
    report = DeployReport()

    def worker(seq_id: str) -> SequenceOutcome:
        try:
            source = sources[seq_id]
            detections = verified[seq_id] if seq_id in verified else _Verified(source, smart_cfg)
            return _process_sequence(
                source, detections, pipe_cfg, out_path, ckpt_path, mode, resume
            )
        except Exception as exc:  # per-sequence isolation
            logger.exception("sequence %s failed", seq_id)
            return SequenceOutcome(seq_id, None, None, error=str(exc))

    seq_ids = sorted(sources)
    if workers > 1 and len(seq_ids) > 1 and "fork" in multiprocessing.get_all_start_methods():
        outcomes = _run_forked(worker, seq_ids, workers)
    else:
        outcomes = [worker(s) for s in seq_ids]
    for outcome in outcomes:
        report.outcomes[outcome.sequence_id] = outcome
        if outcome.qa is not None and outcome.qa < pipe_cfg.deploy.tau_qa:
            report.flagged.append(outcome.sequence_id)
    report.flagged.sort()
    return report


def _run_forked(
    worker: Callable[[str], SequenceOutcome], seq_ids: list[str], workers: int
) -> list[SequenceOutcome]:
    """worker(seq_id) for each sequence in its own forked child, at most
    `workers` children at once; outcomes in `seq_ids` order.

    A child sends its outcome over a one-way pipe. One that exits without
    sending gets an error outcome naming its exit code. No child outlives
    the call, whatever the parent raises.
    """
    ctx = multiprocessing.get_context("fork")
    queued = seq_ids[::-1]
    running = {}  # receiving end -> (sequence id, child)
    outcomes: dict[str, SequenceOutcome] = {}
    try:
        while queued or running:
            while queued and len(running) < workers:
                seq_id = queued.pop()
                receiver, sender = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_send_outcome, args=(worker, seq_id, sender))
                # Once the parent's copy of the sending end is closed, the
                # receiver reads end-of-file when the child exits.
                with sender:
                    child.start()
                running[receiver] = (seq_id, child)
            for receiver in wait(list(running)):
                seq_id, child = running[receiver]
                try:
                    outcome = receiver.recv()
                except EOFError:
                    outcome = None
                child.join()
                receiver.close()
                del running[receiver]
                if outcome is None:
                    error = f"sequence {seq_id}: worker process exited with code {child.exitcode}"
                    outcome = SequenceOutcome(seq_id, None, None, error=error)
                outcomes[seq_id] = outcome
    finally:
        for _, child in running.values():
            child.terminate()
        for receiver, (_, child) in running.items():
            child.join()
            receiver.close()
    return [outcomes[s] for s in seq_ids]


def _send_outcome(worker: Callable[[str], SequenceOutcome], seq_id: str, sender) -> None:
    with sender:
        sender.send(worker(seq_id))


def deploy(
    sources: Mapping[str, SequenceSource],
    pipe_cfg: PipelineConfig,
    out_dir: str | Path,
    checkpoint_dir: str | Path | None = None,
    mode: str = "auto",
    workers: int = 1,
) -> DeployReport:
    """Full deployment procedure over a dataset.

    Picks the densest sequence, grid-optimizes the detection stage on its most
    crowded frame, validates on a different sequence, then runs the dataset
    and QA-samples the results.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    counts = {s: src.object_counts() for s, src in sources.items()}
    rep_seq, rep_frame = select_representative(counts)
    rep_source = sources[rep_seq]
    best_cfg, best_j = optimize_parameters(
        rep_frame,
        rep_source.ground_truth[rep_frame],
        rep_source.detector,
        pipe_cfg.deploy.parameter_grid,
        pipe_cfg.smart_od,
        pipe_cfg.deploy.alpha_weight,
    )
    # The sequences scored here are verified once: the dataset run reuses
    # their detections.
    verified = {rep_seq: _Verified(rep_source, best_cfg)}
    rep_pr = _precision_recall(verified[rep_seq], rep_source.ground_truth)
    others = [s for s in sorted(sources) if s != rep_seq]
    validated = True
    if others:
        rng = np.random.default_rng(pipe_cfg.seed)
        val_seq = others[int(rng.integers(0, len(others)))]
        verified[val_seq] = _Verified(sources[val_seq], best_cfg)
        val_pr = _precision_recall(verified[val_seq], sources[val_seq].ground_truth)
        validated = cross_validate(rep_pr, val_pr, pipe_cfg.deploy.gamma)
        if not validated:
            logger.warning(
                "cross-validation failed: val %s=%.3f/%.3f vs rep %s=%.3f/%.3f",
                val_seq, *val_pr, rep_seq, *rep_pr,
            )
    report = _run_dataset(
        sources, verified, best_cfg, pipe_cfg, out_dir, checkpoint_dir, mode, workers, resume=False
    )
    report.representative = rep_seq
    report.optimized_j = best_j
    report.cross_validated = validated
    return report
