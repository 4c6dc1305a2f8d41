"""Command-line interface.

Verbs: simulate (emit a synthetic world's ground truth), detect (verification
stage only, MOT output), annotate (full pipeline), evaluate (tracking
metrics), deploy (dataset procedure end to end), resume (continue from
checkpoints). Exit code 0 on success, 2 on configuration/usage errors, 1 on
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .backends import SyntheticWorldConfig, generate_synthetic_sequence
from .config import PipelineConfig
from .io import FormatError, MotRecord, read_config, read_mot, write_mot
from .metrics import LabeledBox, evaluate_dataset
from .pipeline import deploy, run_dataset, synthetic_source
from .smart_od import run_smart_od

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _read_input(read, path: str):
    """`read(path)` for a file named on the command line; one that cannot be
    opened is a usage error."""
    try:
        return read(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = _read_input(read_config, args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _world(cfg: PipelineConfig, seed_offset: int = 0) -> SyntheticWorldConfig:
    return dataclasses.replace(cfg.world, rng_seed=cfg.world.rng_seed + seed_offset)


def _gt_mot_records(gt_frames) -> list[MotRecord]:
    return [
        MotRecord.from_box(frame.frame_index + 1, obj.identity, obj.box, 1.0, obj.visibility)
        for frame in gt_frames
        for obj in frame.visible_objects()
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt = generate_synthetic_sequence(_world(cfg))
    write_mot(_gt_mot_records(gt), out / f"{args.seq}_gt.txt")
    print(f"wrote {out / (args.seq + '_gt.txt')} ({len(gt)} frames)")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    source = synthetic_source(args.seq, cfg, _world(cfg))
    records = [
        MotRecord.from_box(t + 1, -1, d.box, d.confidence)
        for t in range(source.num_frames)
        for d in run_smart_od(t, source.detector, cfg.smart_od)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.seq}_det.txt"
    write_mot(records, path)
    print(f"wrote {path} ({len(records)} detections)")
    return EXIT_OK


def _annotate(args: argparse.Namespace, resume: bool) -> int:
    cfg = _load_config(args)
    source = synthetic_source(args.seq, cfg, _world(cfg))
    report = run_dataset(
        {args.seq: source},
        cfg.smart_od,
        cfg,
        args.out,
        checkpoint_dir=args.checkpoint_dir,
        mode=args.mode,
        resume=resume,
    )
    outcome = report.outcomes[args.seq]
    if outcome.error is not None:
        print(f"error: {outcome.error}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {outcome.annotation_path} and {outcome.mot_path} (QA {outcome.qa:.3f})")
    if report.flagged:
        print(f"flagged for reprocessing: {', '.join(report.flagged)}")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    return _annotate(args, resume=False)


def cmd_resume(args: argparse.Namespace) -> int:
    if args.checkpoint_dir is None:
        print("resume requires --checkpoint-dir", file=sys.stderr)
        return EXIT_CONFIG
    return _annotate(args, resume=True)


def cmd_evaluate(args: argparse.Namespace) -> int:
    def to_frames(path: str) -> dict[int, list[LabeledBox]]:
        grouped = _read_input(read_mot, path)
        return {
            f - 1: [LabeledBox(r.track_id, r.box, str(r.class_id)) for r in records]
            for f, records in grouped.items()
        }

    preds = to_frames(args.pred)
    gts = to_frames(args.gt)
    for f in set(gts) | set(preds):
        preds.setdefault(f, [])
        gts.setdefault(f, [])
    report = evaluate_dataset({args.seq: (preds, gts)}, iou_threshold=args.iou)
    print(report.format_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{args.seq}_metrics.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sequence,metric,value\n")
            for seq, metric, value in report.to_csv_rows():
                fh.write(f"{seq},{metric},{value:.6f}\n")
        print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_deploy(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sources = {}
    for i in range(args.sequences):
        seq_id = f"{args.seq}{i:02d}"
        sources[seq_id] = synthetic_source(seq_id, cfg, _world(cfg, seed_offset=i))
    report = deploy(
        sources,
        cfg,
        args.out,
        checkpoint_dir=args.checkpoint_dir,
        mode=args.mode,
        workers=args.workers,
    )
    summary = {
        "representative": report.representative,
        "objective": report.optimized_j,
        "cross_validated": report.cross_validated,
        "qa": {s: o.qa for s, o in sorted(report.outcomes.items())},
        "flagged": report.flagged,
        "failures": report.failures,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_RUNTIME if report.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vidannot", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_pipeline: bool = True) -> None:
        p.add_argument("--config", help="pipeline configuration JSON")
        p.add_argument("--seq", default="seq", help="sequence id")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if with_pipeline:
            p.add_argument("--checkpoint-dir", default=None)
            p.add_argument("--mode", choices=("full", "chunk", "auto"), default="auto",
                           help="chunk length: the whole sequence, chunker.chi frames, or the "
                           "whole sequence with a fallback to chunker.chi")

    p = sub.add_parser("simulate", help="emit synthetic ground truth")
    common(p, with_pipeline=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="verification stage only, MOT output")
    common(p, with_pipeline=False)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("annotate", help="full pipeline for one sequence")
    common(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("resume", help="continue a sequence from its checkpoint")
    common(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("evaluate", help="tracking metrics for MOT files")
    p.add_argument("--pred", required=True, help="predicted tracks, MOT CSV")
    p.add_argument("--gt", required=True, help="ground-truth tracks, MOT CSV")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--seq", default="seq")
    p.add_argument("--out", default=None, help="also write a metrics CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("deploy", help="dataset deployment procedure")
    common(p)
    p.add_argument("--sequences", type=int, default=3, help="synthetic sequence count")
    p.add_argument("--workers", type=int, default=1, help="sequences run at once")
    p.set_defaults(func=cmd_deploy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"config/format error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime category
        logger.exception("command failed")
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
