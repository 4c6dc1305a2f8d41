"""The benchmark's tracer rebinds program names by string. A name it looks for
that the program no longer has would make the traced benchmark fail, so a
rename must fail here first. Likewise a contour traced, a frame verified or
a checkpoint saved or loaded through another name would leave its metrics
reading 0 while the work still happens."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import vidannot.ash
import vidannot.chunker
import vidannot.pipeline
import vidannot.smart_od
from vidannot.ash import AshConfig, MaskletEntry
from vidannot.assoc import AssocConfig
from vidannot.backends import (
    DetectionNoise,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.chunker import ChunkerConfig
from vidannot.config import PipelineConfig
from vidannot.pipeline import SequenceSource, run_dataset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    assert tracing.Instrumented(tracing.Tracer()).missing == []


def test_rebound_contour_name_traces_the_output_outlines(monkeypatch):
    tracing = load_tracing()
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(num_objects=3, num_frames=40, rng_seed=4, occlusion_enabled=True)
    )
    det = SyntheticDetector(gt, DetectionNoise(fp_rate=1.0, rng_seed=3))
    dets = [det.detect(t) for t in range(40)]
    tracer = tracing.Tracer()
    traced = []
    real = vidannot.ash.mask_to_polygon

    def recorded(mask, *args, **kwargs):
        traced.append(mask)
        return real(mask, *args, **kwargs)

    monkeypatch.setattr(vidannot.ash, "mask_to_polygon", recorded)
    with tracing.Instrumented(tracer):
        out = vidannot.chunker.run_sequence(
            dets, SyntheticPropagator(gt), det.frame_size, AssocConfig(), AshConfig(alpha=1.0),
            ChunkerConfig(chi=15, omega=3), mode="chunk",
        )

    def forbidden(*_, **__):
        raise AssertionError("an outline was traced after run_sequence returned")

    monkeypatch.setattr(vidannot.ash, "mask_to_polygon", forbidden)
    # Every outline was traced inside the run, so reading one calls nothing.
    entries = [e for m in out for e in m.entries.values()]
    outlines = [(e.polygon, e.bbox) for e in entries]
    assert any(polygon is not None for polygon, _ in outlines)
    traced_ids = {id(m) for m in traced}
    assert all(id(e.mask) in traced_ids for e in entries)
    assert tracer.counts["ash.contour_calls"] == len(traced)


class Killed(Exception):
    pass


def killed_hd_style_run(ckpt, frames=40, kill_at=25):
    """A sequence source, and its full-mode run killed at frame `kill_at`
    with checkpoints every 10 frames, as the benchmark's resume workload does."""
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(num_objects=3, num_frames=frames, rng_seed=4)
    )
    source = SequenceSource("s", gt, SyntheticDetector(gt, DetectionNoise()), SyntheticPropagator(gt))
    cfg = PipelineConfig(ash=AshConfig(alpha=1.0), chunker=ChunkerConfig(checkpoint_interval=10))

    def bomb(t):
        if t == kill_at:
            raise Killed()

    dets = [vidannot.smart_od.run_smart_od(t, source.detector, cfg.smart_od) for t in range(frames)]
    with pytest.raises(Killed):
        vidannot.chunker.run_sequence(
            dets, source.propagator, source.frame_size, cfg.assoc, cfg.ash, cfg.chunker,
            mode="full", checkpoint_dir=ckpt, sequence_id="s", on_frame=bomb,
        )
    return source, cfg


def test_full_resume_verifies_each_frame_after_its_checkpoint_once(tmp_path, monkeypatch):
    # perfbench's smart_od.calls_per_frame counts calls of the rebound
    # vidannot.pipeline.run_smart_od.
    source, cfg = killed_hd_style_run(tmp_path / "ckpt")
    verified = []
    real = vidannot.pipeline.run_smart_od

    def recorded(t, *args, **kwargs):
        verified.append(t)
        return real(t, *args, **kwargs)

    monkeypatch.setattr(vidannot.pipeline, "run_smart_od", recorded)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        report = run_dataset(
            {"s": source}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="full", resume=True,
        )
    assert report.failures == []
    assert verified == list(range(20, 40))  # the checkpoint completed frame 19
    assert tracer.counts["smart_od.calls"] == 20


def test_each_chain_link_loads_and_each_segment_saves_through_the_rebound_names(
    tmp_path, monkeypatch
):
    # perfbench's chunker.ckpt_* metrics time and count these two names.
    source, cfg = killed_hd_style_run(tmp_path / "ckpt", kill_at=35)
    loaded, saved = [], []
    real_load, real_save = vidannot.chunker.load_checkpoint, vidannot.chunker.save_checkpoint

    def load(path):
        loaded.append(Path(path).name)
        return real_load(path)

    def save(*args, **kwargs):
        assert not kwargs  # the tracer's hook reads (ckpt, path) positionally
        ckpt, path = args
        saved.append((Path(path).name, ckpt.last_completed_frame))
        return real_save(ckpt, path)

    monkeypatch.setattr(vidannot.chunker, "load_checkpoint", load)
    monkeypatch.setattr(vidannot.chunker, "save_checkpoint", save)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        run_dataset(
            {"s": source}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="full", resume=True,
        )
    # One read of the log, whose lines are those of frames 9, 19 and 29.
    assert loaded == ["s_ckpt.jsonl"]
    assert saved == [("s_ckpt.jsonl", 39)]
    names = [span[2] for span in tracer.spans]
    assert names.count("chunker.ckpt_load") == 1
    assert names.count("chunker.ckpt_save") == tracer.counts["chunker.ckpt_saves"] == 1
    assert tracer.counts["chunker.ckpt_bytes"] == (tmp_path / "ckpt" / "s_ckpt.jsonl").stat().st_size


def test_every_smoothed_outline_rasterizes_through_the_rebound_name(tmp_path, monkeypatch):
    # perfbench's ash.rasterize_* metrics time and count
    # vidannot.ash.rasterize_polygon; a smoothed entry whose mask is read
    # must rasterize through that name, or they would read 0.
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(num_objects=3, num_frames=30, rng_seed=4)
    )
    source = SequenceSource("s", gt, SyntheticDetector(gt, DetectionNoise()), SyntheticPropagator(gt))
    cfg = PipelineConfig(ash=AshConfig(alpha=0.2))

    def annotate(out):
        report = run_dataset({"s": source}, cfg.smart_od, cfg, out, mode="full")
        assert report.failures == []
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    untraced = annotate(tmp_path / "untraced")
    smoothed = []
    real = vidannot.ash.smooth_polygons

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        smoothed.extend(e for e in out.entries.values() if e.polygon is not None)
        return out

    read = set()
    real_mask = MaskletEntry.__dict__["mask"]

    def read_mask(entry):
        read.add(id(entry))
        return real_mask.__get__(entry, MaskletEntry)

    monkeypatch.setattr(vidannot.ash, "smooth_polygons", recorded)
    monkeypatch.setattr(MaskletEntry, "mask", property(read_mask))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        traced = annotate(tmp_path / "traced")
    assert smoothed
    assert tracer.counts["ash.rasterize_calls"] == sum(id(e) in read for e in smoothed)
    assert traced == untraced
