"""The three annotation workloads, their set-up, and their correctness checks.

Each workload is one closed-loop client: it runs one annotation job (an
"operation") at a time, from one process, through the public API. An
operation runs from detection verification to written annotation and MOT
files and QA.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import vidannot.chunker
import vidannot.smart_od
from vidannot.ash import AshConfig
from vidannot.backends import SyntheticDetector, SyntheticPropagator, generate_synthetic_sequence
from vidannot.config import PipelineConfig
from vidannot.io import read_annotations, read_mot
from vidannot.metrics import LabeledBox, evaluate
from vidannot.pipeline import SequenceOutcome, SequenceSource, deploy, run_dataset

from worlds import (
    Dataset,
    hd_datasets,
    noisy_deploy_datasets,
    oracle_smooth_datasets,
    world_meets_preconditions,
)


class Interrupted(Exception):
    """Raised from the on_frame hook to stop a run as a crash would."""


@dataclass(frozen=True)
class Job:
    """One dataset, built: its sequences, and where its operation is killed."""

    sources: dict[str, SequenceSource]
    crash_after: int | None = None


@dataclass
class OpResult:
    seconds: float  # whole operation, interrupted and resumed parts included
    resume_seconds: float  # restart to complete written output
    outcomes: dict[str, SequenceOutcome]


@dataclass
class Checked:
    """What the correctness gate found in one operation's output."""

    failed: set[str] = field(default_factory=set)  # sequence ids
    failures: list[str] = field(default_factory=list)  # named failed checks
    digests: dict[str, str] = field(default_factory=dict)  # file name -> sha256
    idf1: dict[str, float] = field(default_factory=dict)
    mota: dict[str, float] = field(default_factory=dict)
    qa: dict[str, float] = field(default_factory=dict)

    def fail(self, seq: str, check: str) -> None:
        self.failed.add(seq)
        self.failures.append(f"{seq}: {check}")


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: Callable[[int], list[Dataset]]
    ash: AshConfig
    run_op: Callable[[Job, PipelineConfig, Path], OpResult]
    workers: int = 1  # threads run_op annotates with
    oracle: bool = False  # IDF1 = MOTA = 1.0 is required

    def config(self, seed: int) -> PipelineConfig:
        return PipelineConfig(ash=self.ash, seed=seed)


def build_jobs(datasets: list[Dataset]) -> tuple[list[Job], float]:
    """Every dataset's sequences, and the seconds spent generating worlds.

    Datasets that share a world share its one generated copy.
    """
    worlds = {}
    world_s = 0.0
    jobs = []
    for dataset in datasets:
        sources = {}
        for spec in dataset.sequences:
            if spec.world not in worlds:
                started = time.perf_counter()
                worlds[spec.world] = generate_synthetic_sequence(spec.world)
                world_s += time.perf_counter() - started
            gt = worlds[spec.world]
            sources[spec.sequence_id] = SequenceSource(
                spec.sequence_id,
                gt,
                SyntheticDetector(gt, spec.noise),
                SyntheticPropagator(gt, spec.degradation),
            )
        jobs.append(Job(sources, dataset.crash_after))
    return jobs, world_s


def _run_oracle_smooth(job: Job, cfg: PipelineConfig, work: Path) -> OpResult:
    started = time.perf_counter()
    report = run_dataset(job.sources, cfg.smart_od, cfg, work / "out", mode="full", workers=1)
    seconds = time.perf_counter() - started
    return OpResult(seconds, seconds, report.outcomes)


NOISY_WORKERS = 2


def _run_noisy_deploy(job: Job, cfg: PipelineConfig, work: Path) -> OpResult:
    started = time.perf_counter()
    report = deploy(job.sources, cfg, work / "out", mode="chunk", workers=NOISY_WORKERS)
    seconds = time.perf_counter() - started
    return OpResult(seconds, seconds, report.outcomes)


def _interrupt_at(frame: int) -> Callable[[int], None]:
    def on_frame(t: int) -> None:
        if t == frame:
            raise Interrupted(f"interrupted after frame {t}")

    return on_frame


def _run_hd_resume(job: Job, cfg: PipelineConfig, work: Path) -> OpResult:
    """Full mode with checkpoints, killed after frame job.crash_after, then
    resumed as `vidannot resume` does: run_dataset with resume=True over the
    same checkpoint directory.
    """
    (source,) = job.sources.values()
    ckpt = work / "ckpt"
    started = time.perf_counter()
    detections = [
        vidannot.smart_od.run_smart_od(t, source.detector, cfg.smart_od)
        for t in range(source.num_frames)
    ]
    try:
        vidannot.chunker.run_sequence(
            detections,
            source.propagator,
            source.frame_size,
            cfg.assoc,
            cfg.ash,
            cfg.chunker,
            mode="full",
            checkpoint_dir=ckpt,
            sequence_id=source.sequence_id,
            on_frame=_interrupt_at(job.crash_after),
        )
    except Interrupted:
        pass
    else:
        raise RuntimeError("the run finished before its interruption")
    restarted = time.perf_counter()
    report = run_dataset(
        job.sources, cfg.smart_od, cfg, work / "out", checkpoint_dir=ckpt, mode="full", resume=True
    )
    finished = time.perf_counter()
    return OpResult(finished - started, finished - restarted, report.outcomes)


def uninterrupted_digests(sources, cfg: PipelineConfig, work: Path) -> dict[str, str]:
    """Output digests of one uninterrupted full-mode run without checkpoints."""
    return digests(run_dataset(sources, cfg.smart_od, cfg, work, mode="full").outcomes)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("w1-oracle-smooth", oracle_smooth_datasets, AshConfig(), _run_oracle_smooth,
                 oracle=True),
        Workload("w2-noisy-deploy", noisy_deploy_datasets, AshConfig(alpha=1.0),
                 _run_noisy_deploy, workers=NOISY_WORKERS),
        Workload("hd-ckpt-resume", hd_datasets, AshConfig(alpha=1.0), _run_hd_resume,
                 oracle=True),
    )
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(outcomes: dict[str, SequenceOutcome]) -> dict[str, str]:
    out = {}
    for o in outcomes.values():
        for path in (o.annotation_path, o.mot_path):
            if path is not None:
                out[path.name] = _sha256(path)
    return out


def _ids_unique_per_frame(frames: dict[int, list[int]]) -> bool:
    return all(len(ids) == len(set(ids)) for ids in frames.values())


def _gt_frames(source: SequenceSource) -> dict[int, list[LabeledBox]]:
    return {
        f.frame_index: [LabeledBox(o.identity, o.box) for o in f.visible_objects()]
        for f in source.ground_truth
    }


def check_op(
    workload: Workload,
    sources: dict[str, SequenceSource],
    op: OpResult,
    reference: dict[str, str] | None,
) -> Checked:
    """Re-read, validate and score every written file of one operation.

    `reference` holds the uninterrupted run's digests, for interrupted jobs.
    """
    checked = Checked(digests=digests(op.outcomes))
    for seq, source in sources.items():
        outcome = op.outcomes.get(seq)
        if outcome is None or outcome.error is not None:
            checked.fail(seq, f"raised: {outcome.error if outcome else 'no outcome'}")
            continue
        if workload.oracle and not world_meets_preconditions(source.ground_truth):
            checked.fail(seq, "world breaks the oracle-fidelity preconditions")
        try:
            doc = read_annotations(outcome.annotation_path)
            mot = read_mot(outcome.mot_path)
        except (OSError, ValueError) as exc:
            checked.fail(seq, f"written file does not re-read: {exc}")
            continue
        if (doc.sequence_id, (doc.frame_width, doc.frame_height)) != (seq, source.frame_size):
            checked.fail(seq, "annotation header does not match the sequence")
        if not _ids_unique_per_frame({f: [e.track_id for e in es] for f, es in doc.frames.items()}):
            checked.fail(seq, "annotation track id repeats within a frame")
        if not _ids_unique_per_frame({f: [r.track_id for r in rs] for f, rs in mot.items()}):
            checked.fail(seq, "MOT track id repeats within a frame")
        predictions = {
            t: [LabeledBox(r.track_id, r.box) for r in mot.get(t + 1, [])]
            for t in range(source.num_frames)
        }
        if set(mot) - set(range(1, source.num_frames + 1)):
            checked.fail(seq, "MOT file has frames outside the sequence")
        scores = evaluate(predictions, _gt_frames(source), iou_threshold=0.5)
        checked.idf1[seq] = scores.idf1
        checked.mota[seq] = scores.mota
        checked.qa[seq] = outcome.qa
        if workload.oracle and (scores.idf1 != 1.0 or scores.mota != 1.0):
            checked.fail(seq, f"oracle scores IDF1={scores.idf1:.4f} MOTA={scores.mota:.4f}, not 1.0")
    if reference is not None and reference != checked.digests:
        for seq in sources:
            checked.fail(seq, "resumed output differs from the uninterrupted run's bytes")
    return checked


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def gt_tracks(sources: dict[str, SequenceSource]) -> int:
    """Ground-truth identities visible in at least one frame, over all sequences."""
    return sum(
        len({o.identity for f in s.ground_truth for o in f.visible_objects()})
        for s in sources.values()
    )

