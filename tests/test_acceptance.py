"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run `pytest tests/test_acceptance.py -v -s` to watch the
lines; the whole suite is also part of the default pytest run.
"""

from __future__ import annotations

import functools
import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vidannot.ash import AshConfig
from vidannot.assoc import AssocConfig
from vidannot.backends import (
    DetectionNoise,
    PropagationDegradation,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.chunker import CheckpointStore, ChunkerConfig, run_sequence
from vidannot.geometry import iou_box, iou_mask
from vidannot.io import masklets_to_document, masklets_to_mot, write_annotations, write_mot
from vidannot.metrics import LabeledBox, evaluate, match_frame
from vidannot.smart_od import SmartOdConfig, dynamic_threshold, filter_area_ratio, run_smart_od

from test_metrics import brute_idf1
from test_smart_od import brute_threshold
from test_chunker import RUN_KW, RecordedStarts, grown_checkpoint, noisy_sequence, state_signature
from helpers import inject_append_fault

EIGHT_WAY_VELOCITIES = tuple(
    (0.2 * math.cos(2 * math.pi * i / 8), 0.2 * math.sin(2 * math.pi * i / 8))
    for i in range(8)
)


def oracle_world(num_frames: int) -> list:
    cfg = SyntheticWorldConfig(
        frame_width=320,
        frame_height=240,
        num_objects=8,
        num_frames=num_frames,
        velocities=EIGHT_WAY_VELOCITIES,
        ellipse_axes=(11.0, 8.0),
        rng_seed=3,
        occlusion_enabled=False,
    )
    return generate_synthetic_sequence(cfg)


def assert_world_preconditions(gt) -> None:
    # Oracle-fidelity worlds must keep every object fully visible, clear of
    # the frame margins, and clear of each other (no legitimate merges).
    for frame in gt:
        boxes = []
        for o in frame.objects:
            assert o.visibility == 1.0
            assert o.box.x1 >= 1 and o.box.y1 >= 1
            assert o.box.x2 <= frame.width - 2 and o.box.y2 <= frame.height - 2
            boxes.append(o.box)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou_box(boxes[i], boxes[j]) <= 0.05


def gt_label_frames(gt) -> dict[int, list[LabeledBox]]:
    return {
        f.frame_index: [LabeledBox(o.identity, o.box, o.class_label) for o in f.visible_objects()]
        for f in gt
    }


def masklet_label_frames(masklets, num_frames: int) -> dict[int, list[LabeledBox]]:
    frames: dict[int, list[LabeledBox]] = {f: [] for f in range(num_frames)}
    for m in masklets:
        for f in m.frames():
            e = m.entries[f]
            if e.bbox is not None:
                frames[f].append(LabeledBox(m.object_id, e.bbox, m.class_label))
    return frames


def run_full_pipeline(gt, noise, mode="auto", ash_cfg=None, chunk_cfg=None,
                      checkpoint_dir=None, resume=False, on_frame=None):
    detector = SyntheticDetector(gt, noise)
    propagator = SyntheticPropagator(gt)
    smart_cfg = SmartOdConfig()
    detections = [run_smart_od(t, detector, smart_cfg) for t in range(len(gt))]
    masklets = run_sequence(
        detections,
        propagator,
        detector.frame_size,
        AssocConfig(),
        ash_cfg or AshConfig(),
        chunk_cfg or ChunkerConfig(),
        mode=mode,
        checkpoint_dir=checkpoint_dir,
        sequence_id="acc",
        resume=resume,
        on_frame=on_frame,
    )
    return detections, masklets


class TestCriterion1OracleFidelity:
    def test_oracle_end_to_end(self):
        gt = oracle_world(200)
        assert_world_preconditions(gt)
        started = time.perf_counter()
        # Smoothing is the identity pass here: on noise-free oracle masks any
        # blending below 1.0 only lags the moving boundary.
        _, masklets = run_full_pipeline(gt, DetectionNoise(), ash_cfg=AshConfig(alpha=1.0))
        elapsed = time.perf_counter() - started

        by_gt: dict[int, int] = {}
        for o in gt[0].objects:
            best, best_total = None, -1.0
            for m in masklets:
                total = sum(
                    iou_mask(m.entries[f].mask, gt[f].objects[o.identity].mask)
                    for f in m.frames()
                )
                if total > best_total:
                    best, best_total = m.object_id, total
            by_gt[o.identity] = best
        assert len(set(by_gt.values())) == 8  # one masklet per object

        masklet_map = {m.object_id: m for m in masklets}
        worst = 1.0
        for gid, mid in by_gt.items():
            m = masklet_map[mid]
            for f in range(200):
                assert f in m.entries
                worst = min(worst, iou_mask(m.entries[f].mask, gt[f].objects[gid].mask))
        assert worst >= 0.99

        scores = evaluate(masklet_label_frames(masklets, 200), gt_label_frames(gt))
        assert scores.mota == 1.0
        assert scores.idf1 == 1.0
        assert scores.idsw == 0
        assert elapsed < 30.0
        print(
            f"\n[acceptance] criterion 1 (oracle fidelity): PASS "
            f"min mask IoU {worst:.4f}, MOTA {scores.mota:.2f}, IDF1 {scores.idf1:.2f}, "
            f"IDSW {scores.idsw}, runtime {elapsed:.1f}s"
        )


class TestCriterion2FalsePositiveSuppression:
    def test_fp_reduction_with_bounded_recall_loss(self):
        gt = generate_synthetic_sequence(
            SyntheticWorldConfig(
                frame_width=320,
                frame_height=240,
                num_objects=6,
                num_frames=20,
                velocities=tuple((0.3 * ((-1) ** i), 0.2 * (i % 2)) for i in range(6)),
                ellipse_axes=(11.0, 8.0),
                rng_seed=3,
                occlusion_enabled=False,
            )
        )
        noise = DetectionNoise(
            fp_rate=5.0,
            fp_confidence_range=(0.0, 0.3),
            tp_confidence_range=(0.6, 0.95),
            jitter_sigma=0.5,
            rng_seed=29,
        )
        detector = SyntheticDetector(gt, noise)
        cfg = SmartOdConfig()

        def score(dets, frame):
            gt_boxes = [o.box for o in frame.visible_objects()]
            matches, fps, _ = match_frame([d.box for d in dets], gt_boxes)
            return len(fps), len(matches), len(gt_boxes)

        base_fp = base_tp = base_gt = 0
        ver_fp = ver_tp = ver_gt = 0
        for t in range(20):
            baseline = filter_area_ratio(detector.detect(t), 320 * 240, cfg)
            verified = run_smart_od(t, detector, cfg)
            fp, tp, n = score(baseline, gt[t])
            base_fp += fp
            base_tp += tp
            base_gt += n
            fp, tp, n = score(verified, gt[t])
            ver_fp += fp
            ver_tp += tp
            ver_gt += n
        assert base_fp > 0
        reduction = 1.0 - ver_fp / base_fp
        base_recall = base_tp / base_gt
        ver_recall = ver_tp / ver_gt
        assert ver_fp < base_fp  # strictly lower, always
        assert reduction >= 0.40
        assert ver_recall >= 0.80 * base_recall
        print(
            f"\n[acceptance] criterion 2 (FP suppression): PASS "
            f"FPs {base_fp} -> {ver_fp} ({reduction:.0%} reduction), "
            f"recall {base_recall:.3f} -> {ver_recall:.3f}"
        )


class TestCriterion3PersistentTracking:
    def test_recall_after_first_detection(self):
        gt = oracle_world(60)
        noise = DetectionNoise(
            miss_rate=0.5, tp_confidence_range=(0.6, 0.95), rng_seed=31
        )
        detections, masklets = run_full_pipeline(gt, noise)

        first_detection: dict[int, int] = {}
        for t, dets in enumerate(detections):
            for o in gt[t].objects:
                if o.identity in first_detection:
                    continue
                if any(iou_box(d.box, o.box) >= 0.5 for d in dets):
                    first_detection[o.identity] = t
        assert len(first_detection) == 8  # every object eventually detected

        pred_frames = masklet_label_frames(masklets, 60)
        covered = total = 0
        for t in range(60):
            for o in gt[t].objects:
                start = first_detection.get(o.identity)
                if start is None or t < start:
                    continue
                total += 1
                if any(iou_box(p.box, o.box) >= 0.5 for p in pred_frames[t]):
                    covered += 1
        recall = covered / total
        assert recall >= 0.95
        print(
            f"\n[acceptance] criterion 3 (persistent tracking): PASS "
            f"recall after first detection {recall:.3f} "
            f"(first detections at frames {sorted(first_detection.values())})"
        )


class TestCriterion4ChunkFullEquivalence:
    def test_modes_agree(self):
        gt = oracle_world(200)
        chunk_cfg = ChunkerConfig(chi=50, omega=10)
        _, full = run_full_pipeline(gt, DetectionNoise(), mode="full", chunk_cfg=chunk_cfg)
        _, chunk = run_full_pipeline(gt, DetectionNoise(), mode="chunk", chunk_cfg=chunk_cfg)

        assert len(full) == len(chunk)
        # Identity structure up to relabeling: greedy max-agreement bijection.
        mapping: dict[int, int] = {}
        used: set[int] = set()
        for fm in full:
            best, best_total = None, -1.0
            for cm in chunk:
                if cm.object_id in used:
                    continue
                shared = set(fm.frames()) & set(cm.frames())
                total = sum(
                    iou_mask(fm.entries[f].mask, cm.entries[f].mask) for f in shared
                )
                if total > best_total:
                    best, best_total = cm.object_id, total
            mapping[fm.object_id] = best
            used.add(best)
        assert len(set(mapping.values())) == len(full)

        chunk_map = {m.object_id: m for m in chunk}
        worst = 1.0
        for fm in full:
            cm = chunk_map[mapping[fm.object_id]]
            assert fm.frames() == cm.frames()
            for f in fm.frames():
                worst = min(worst, iou_mask(fm.entries[f].mask, cm.entries[f].mask))
        assert worst >= 0.99
        print(
            f"\n[acceptance] criterion 4 (chunk/full equivalence): PASS "
            f"{len(full)} tracks, min cross-mode IoU {worst:.4f}"
        )

    @given(chi=st.integers(12, 80), omega=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_oracle_mot_records_do_not_depend_on_the_chunk_plan(self, chi, omega):
        """On oracle input every detection matches its own track, so no
        detection is ever covered and chunking changes no record."""
        assume(chi - omega >= 2)
        gt = oracle_world(120)
        _, chunk = run_full_pipeline(
            gt, DetectionNoise(), mode="chunk", chunk_cfg=ChunkerConfig(chi=chi, omega=omega)
        )
        assert masklets_to_mot(chunk) == oracle_full_mot_records()


@functools.cache
def oracle_full_mot_records() -> list:
    _, full = run_full_pipeline(oracle_world(120), DetectionNoise(), mode="full")
    return masklets_to_mot(full)


# Chunk-mode propagations of each W2-style world, by (world seed, noise
# seed), when a covered detection still started one. Each world has 6
# ground-truth tracks.
PARENT_CHUNK_BIRTHS = {(1, 5): 122, (1, 7): 85, (2, 5): 111, (2, 7): 97, (3, 5): 122, (3, 7): 135}


class TestChunkFullGapUnderNoise:
    """Criterion 4 under W2's noise: each chunk continues the objects live
    before it under their own ids, so chunk mode keeps identities across its
    boundaries about as well as full mode does. This bounds how far its IDF1
    falls below full mode's on every world."""

    @staticmethod
    def run(world_seed: int, noise_seed: int, mode: str) -> tuple[float, int, int]:
        """IDF1, propagations and ground-truth tracks of one run."""
        gt = generate_synthetic_sequence(
            SyntheticWorldConfig(num_objects=6, num_frames=150, rng_seed=world_seed)
        )
        noise = DetectionNoise(miss_rate=0.3, fp_rate=2.0, jitter_sigma=1.0, rng_seed=noise_seed)
        detector = SyntheticDetector(gt, noise)
        detections = [run_smart_od(t, detector, SmartOdConfig()) for t in range(len(gt))]
        degradation = PropagationDegradation(dropout_rate=0.05, rng_seed=noise_seed + 1)
        propagator = RecordedStarts(SyntheticPropagator(gt, degradation))
        masklets = run_sequence(
            detections, propagator, detector.frame_size, AssocConfig(), AshConfig(alpha=1.0),
            ChunkerConfig(), mode=mode,
        )
        scores = evaluate(masklet_label_frames(masklets, len(gt)), gt_label_frames(gt), 0.5)
        tracks = {o.identity for f in gt for o in f.visible_objects()}
        return scores.idf1, len(propagator.starts), len(tracks)

    def test_idf1_gap_is_bounded(self):
        gaps = []
        for (world_seed, noise_seed), parent_births in PARENT_CHUNK_BIRTHS.items():
            full_idf1, _, _ = self.run(world_seed, noise_seed, "full")
            chunk_idf1, births, tracks = self.run(world_seed, noise_seed, "chunk")
            assert tracks == 6
            assert births < parent_births
            gaps.append(full_idf1 - chunk_idf1)
        # Measured: median -0.006 and largest 0.041, against 0.125 and 0.303
        # when each chunk tracked its overlap again and handed ids over by
        # mask IoU.
        assert max(gaps) <= 0.1
        print(
            f"\n[acceptance] full/chunk IDF1 gap under noise: median "
            f"{statistics.median(gaps):.3f}, largest {max(gaps):.3f}"
        )


class TestCriterion5CrashSafety:
    KILL_FRAMES = (11, 29, 47)

    def _write_outputs(self, masklets, out_dir: Path) -> tuple[bytes, bytes]:
        ann = out_dir / "acc_annotations.jsonl"
        mot = out_dir / "acc_track.txt"
        write_annotations(masklets_to_document(masklets, "acc", 320, 240), ann)
        write_mot(masklets_to_mot(masklets), mot)
        return ann.read_bytes(), mot.read_bytes()

    def test_kill_resume_byte_identical(self, tmp_path):
        gt = oracle_world(60)
        chunk_cfg = ChunkerConfig(checkpoint_interval=10)
        _, reference = run_full_pipeline(gt, DetectionNoise(), mode="full", chunk_cfg=chunk_cfg)
        ref_bytes = self._write_outputs(reference, tmp_path / "ref")

        class Killed(Exception):
            pass

        for kill_at in self.KILL_FRAMES:
            ckdir = tmp_path / f"kill{kill_at}"

            def bomb(t, _k=kill_at):
                if t == _k:
                    raise Killed()

            with pytest.raises(Killed):
                run_full_pipeline(
                    gt, DetectionNoise(), mode="full", chunk_cfg=chunk_cfg,
                    checkpoint_dir=ckdir, on_frame=bomb,
                )
            _, resumed = run_full_pipeline(
                gt, DetectionNoise(), mode="full", chunk_cfg=chunk_cfg,
                checkpoint_dir=ckdir, resume=True,
            )
            got = self._write_outputs(resumed, tmp_path / f"out{kill_at}")
            assert got == ref_bytes

        print(
            f"\n[acceptance] criterion 5a (kill/resume): PASS "
            f"byte-identical outputs after kills at frames {self.KILL_FRAMES}"
        )

    @staticmethod
    @functools.cache
    def noisy_reference(mode: str):
        """A noisy 60-frame world and an uninterrupted run of it in `mode`."""
        gt, det, prop, dets = noisy_sequence(num_frames=60)
        out = run_sequence(dets, prop, det.frame_size, chunk_cfg=ChunkerConfig(chi=20, omega=5),
                           mode=mode, **RUN_KW)
        return dets, prop, det.frame_size, out

    @given(st.sampled_from(["full", "chunk"]), st.integers(1, 30), st.integers(0, 59))
    @settings(max_examples=10, deadline=None)
    def test_any_interval_and_kill_frame_resume_byte_identical(self, mode, interval, kill_at):
        # Where the saves fall, and where the kill falls among them, does not
        # change what the resumed run writes.
        dets, prop, frame_size, reference = self.noisy_reference(mode)
        cfg = ChunkerConfig(chi=20, omega=5, checkpoint_interval=interval)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == kill_at:
                raise Killed()

        kw = dict(chunk_cfg=cfg, mode=mode, sequence_id="s", **RUN_KW)
        with tempfile.TemporaryDirectory() as d:
            with pytest.raises(Killed):
                run_sequence(dets, prop, frame_size, checkpoint_dir=d, on_frame=bomb, **kw)
            resumed = run_sequence(dets, prop, frame_size, checkpoint_dir=d, resume=True, **kw)
            got = self._write_outputs(resumed, Path(d) / "resumed")
            assert got == self._write_outputs(reference, Path(d) / "reference")

    def test_fault_injection_leaves_loadable_checkpoint(self, tmp_path, monkeypatch):
        # A save's append cut short, or failing at the fsync of the log or of
        # the directory it creates, leaves the old or the new state loadable.
        for phase in ("write", "fsync", "directory fsync"):
            store = CheckpointStore(tmp_path / phase, "acc")
            states = [None, state_signature(grown_checkpoint(20, seq="acc"))]
            if phase != "directory fsync":
                store.save(grown_checkpoint(10, seq="acc"))
                states[0] = state_signature(grown_checkpoint(10, seq="acc"))
            with monkeypatch.context() as m:
                inject_append_fault(m, phase)
                with pytest.raises(OSError, match="injected"):
                    store.save(grown_checkpoint(20, seq="acc"))
            loaded = CheckpointStore(tmp_path / phase, "acc").load_latest()
            assert (loaded and state_signature(loaded)) in states
        print(
            "\n[acceptance] criterion 5b (checkpoint fault injection): PASS "
            "loadable checkpoint survives crashes between all save phases"
        )


class TestCriterion6ThresholdOracle:
    def test_all_methods_match_brute_force(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(1, 13))
            scores = [float(s) for s in rng.uniform(0, 1, size=n)]
            for method in ("mean_std", "kmeans", "kmeans_mean_std", "double_kmeans"):
                got = dynamic_threshold(scores, method, 0.05)
                want = brute_threshold(scores, method, 0.05)
                assert abs(got - want) <= 1e-9, (method, scores, got, want)
                checked += 1
        print(
            f"\n[acceptance] criterion 6 (threshold oracle): PASS "
            f"{checked} method evaluations exact to 1e-9"
        )


class TestCriterion7MetricsCorrectness:
    def box(self, x, y=0):
        from vidannot.geometry import BBox

        return BBox(x, y, x + 10, y + 10)

    def test_hand_computed_suite(self):
        b = self.box
        # Perfect tracking.
        gt = {f: [LabeledBox(0, b(0)), LabeledBox(1, b(50))] for f in range(5)}
        s = evaluate(gt, gt)
        assert (s.mota, s.idf1, s.idsw) == (1.0, 1.0, 0)

        # 2 objects x 2 frames, one miss: MOTA = 1 - 1/4.
        gt2 = {f: [LabeledBox(0, b(0)), LabeledBox(1, b(50))] for f in range(2)}
        pred2 = {0: list(gt2[0]), 1: [LabeledBox(0, b(0))]}
        s2 = evaluate(pred2, gt2)
        assert s2.mota == 0.75 and s2.fn == 1 and s2.idsw == 0

        # One identity tracked under two prediction ids: IDSW 1, IDF1 1/2.
        gt3 = {f: [LabeledBox(7, b(0))] for f in range(10)}
        pred3 = {f: [LabeledBox(1 if f < 5 else 2, b(0))] for f in range(10)}
        s3 = evaluate(pred3, gt3)
        assert s3.idsw == 1
        assert s3.idf1 == 0.5 == brute_idf1(pred3, gt3)

        # Three objects, one swap and one miss over 4 frames, checked against
        # the exhaustive identity-assignment oracle.
        gt4 = {
            f: [LabeledBox(0, b(0)), LabeledBox(1, b(30)), LabeledBox(2, b(60))]
            for f in range(4)
        }
        pred4 = {
            0: [LabeledBox(10, b(0)), LabeledBox(11, b(30)), LabeledBox(12, b(60))],
            1: [LabeledBox(10, b(0)), LabeledBox(11, b(30)), LabeledBox(12, b(60))],
            2: [LabeledBox(10, b(0)), LabeledBox(12, b(30))],
            3: [LabeledBox(10, b(0)), LabeledBox(12, b(30))],
        }
        s4 = evaluate(pred4, gt4)
        # Hand count: frames 2-3 miss object 2 (2 FN); object 1 matched by id
        # 12 after id 11 (1 IDSW); MOTA = 1 - (0 + 2 + 1)/12.
        assert s4.fn == 2 and s4.fp == 0 and s4.idsw == 1
        assert s4.mota == pytest.approx(1 - 3 / 12)
        assert s4.idf1 == pytest.approx(brute_idf1(pred4, gt4))

        print(
            "\n[acceptance] criterion 7 (metrics correctness): PASS "
            "hand-computed MOTA/IDF1/IDSW suite exact"
        )


class TestCriterion8PropertySuites:
    def test_properties_run_at_1000_examples(self):
        import test_ash
        import test_assoc
        import test_backends
        import test_chunker
        import test_geometry
        import test_io
        import test_metrics
        import test_pipeline
        import test_smart_od

        modules = [
            test_geometry, test_backends, test_smart_od, test_assoc,
            test_ash, test_chunker, test_metrics, test_io, test_pipeline,
        ]
        counted = 0
        for module in modules:
            for cls_name in dir(module):
                cls = getattr(module, cls_name)
                if not isinstance(cls, type) or not cls_name.startswith("Test"):
                    continue
                for name in dir(cls):
                    fn = getattr(cls, name, None)
                    settings_obj = getattr(fn, "_hypothesis_internal_use_settings", None)
                    if settings_obj is None:
                        continue
                    assert settings_obj.max_examples >= 1000, (
                        f"{module.__name__}.{cls_name}.{name} runs only "
                        f"{settings_obj.max_examples} examples"
                    )
                    counted += 1
        assert counted >= 25  # every invariant section is represented
        print(
            f"\n[acceptance] criterion 8 (invariant suites): PASS "
            f"{counted} property tests configured with >= 1000 generated cases each"
        )
