"""The benchmark's tracer rebinds program names by string. A name it looks for
that the program no longer has would make the traced benchmark fail, so a
rename must fail here first. Likewise a contour traced through another name
would leave its `ash.contour_*` metrics reading 0 while the work still
happens."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import vidannot.ash
import vidannot.chunker
from vidannot.ash import AshConfig
from vidannot.assoc import AssocConfig
from vidannot.backends import (
    DetectionNoise,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.chunker import ChunkerConfig

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
