from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import re
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidannot.chunker
import vidannot.pipeline
import vidannot.smart_od
from vidannot.ash import Masklet, MaskletEntry
from vidannot.backends import (
    Detection,
    DetectionNoise,
    GroundTruthFrame,
    GroundTruthObject,
    PropagationDegradation,
    SyntheticPropagator,
    SyntheticWorldConfig,
)
from vidannot.config import DeploymentConfig, PipelineConfig
from vidannot.geometry import BBox, BinaryMask, Polygon
from vidannot.pipeline import (
    cross_validate,
    deploy,
    grid_configs,
    optimize_parameters,
    qa_score,
    run_dataset,
    select_representative,
    stratified_sample_frames,
    synthetic_source,
)
from vidannot.smart_od import SmartOdConfig

from helpers import every_pair_qa_score, rect_mask


class TestSelectRepresentative:
    def test_argmax_over_sequences(self):
        counts = {"A": [2, 12, 3], "B": [30, 1], "C": [7, 7]}
        assert select_representative(counts) == ("B", 0)

    def test_single_sequence(self):
        assert select_representative({"only": [1, 4, 2]}) == ("only", 1)

    def test_tie_takes_first_sequence_lowest_frame(self):
        counts = {"A": [5, 5], "B": [5, 5]}
        assert select_representative(counts) == ("A", 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_representative({})


class StubDetector:
    """Fixed per-config detections keyed by theta_min, for objective tests."""

    def __init__(self, table):
        self.table = table
        self.frame_size = (100, 100)

    def detect(self, frame_index):
        raise NotImplementedError

    def detect_region(self, frame_index, region):
        raise NotImplementedError


class TestOptimizeParameters:
    def _gt_frame(self):
        from helpers import rect_mask

        objs = []
        from vidannot.backends import GroundTruthObject

        for i, x in enumerate((10, 40)):
            mask = rect_mask(x, 10, x + 9, 19, 100, 100)
            objs.append(
                GroundTruthObject(i, mask, BBox(x, 10, x + 9, 19), "object", 1.0)
            )
        return GroundTruthFrame(0, 100, 100, tuple(objs))

    def test_single_point_grid(self, monkeypatch):
        gt = self._gt_frame()
        import vidannot.pipeline as pl

        monkeypatch.setattr(pl, "run_smart_od", lambda f, det, cfg: [])
        cfg, j = optimize_parameters(0, gt, StubDetector({}), {}, SmartOdConfig(), 0.5)
        assert cfg == SmartOdConfig()
        assert j == 0.0

    def test_hand_arithmetic_alpha_07(self, monkeypatch):
        # Two grid points with engineered precision/recall over 10 objects:
        #   X -> (P=1.0, R=0.2): J(0.7) = 0.7*0.2 + 0.3*1.0 = 0.44
        #   Y -> (P=0.5, R=0.6): J(0.7) = 0.7*0.6 + 0.3*0.5 = 0.57 -> Y wins
        from vidannot.backends import GroundTruthObject
        from helpers import rect_mask

        objs = []
        for i in range(10):
            x = 10 * i
            mask = rect_mask(x, 0, x + 8, 8, 120, 20)
            objs.append(GroundTruthObject(i, mask, BBox(x, 0, x + 8, 8), "object", 1.0))
        gt = GroundTruthFrame(0, 120, 20, tuple(objs))

        def dets_for(tps, fps):
            out = [Detection(objs[i].box, "object", 0.9) for i in range(tps)]
            out += [Detection(BBox(0, 15, 5, 19), "object", 0.9) for _ in range(fps)]
            return out

        table = {0.11: dets_for(2, 0), 0.22: dets_for(6, 6)}
        import vidannot.pipeline as pl

        monkeypatch.setattr(pl, "run_smart_od", lambda f, det, cfg: table[cfg.theta_min])
        best, j = optimize_parameters(
            0, gt, StubDetector(table), {"theta_min": [0.11, 0.22]}, SmartOdConfig(), 0.7
        )
        assert best.theta_min == 0.22
        assert j == pytest.approx(0.7 * 0.6 + 0.3 * 0.5)

    def test_alpha_one_maximizes_recall(self, monkeypatch):
        from vidannot.backends import GroundTruthObject
        from helpers import rect_mask

        objs = []
        for i in range(4):
            x = 20 * i
            mask = rect_mask(x, 0, x + 8, 8, 100, 20)
            objs.append(GroundTruthObject(i, mask, BBox(x, 0, x + 8, 8), "object", 1.0))
        gt = GroundTruthFrame(0, 100, 20, tuple(objs))
        table = {
            0.11: [Detection(objs[0].box, "object", 0.9)],  # R = .25, P = 1
            0.22: [Detection(o.box, "object", 0.9) for o in objs]
            + [Detection(BBox(0, 15, 5, 19), "object", 0.9)] * 3,  # R = 1, P = 4/7
        }
        import vidannot.pipeline as pl

        monkeypatch.setattr(pl, "run_smart_od", lambda f, det, cfg: table[cfg.theta_min])
        best, _ = optimize_parameters(
            0, gt, StubDetector(table), {"theta_min": [0.11, 0.22]}, SmartOdConfig(), 1.0
        )
        assert best.theta_min == 0.22

    def test_grid_order_is_cartesian(self):
        grid = {"theta_min": [0.1, 0.2], "theta_v": [0.03, 0.05]}
        cfgs = grid_configs(SmartOdConfig(), grid)
        assert [(c.theta_min, c.theta_v) for c in cfgs] == [
            (0.1, 0.03),
            (0.1, 0.05),
            (0.2, 0.03),
            (0.2, 0.05),
        ]


class TestCrossValidate:
    def test_equal_metrics_pass(self):
        assert cross_validate((0.9, 0.95), (0.9, 0.95), 0.9)

    def test_hand_arithmetic_fail(self):
        # 0.7 < 0.9 * 0.9 = 0.81
        assert not cross_validate((0.9, 0.95), (0.7, 0.99), 0.9)

    def test_gamma_to_zero_always_passes(self):
        assert cross_validate((0.99, 0.99), (0.01, 0.01), 1e-9)


class TestStratifiedSample:
    def test_reproducible(self):
        a = stratified_sample_frames(100, 0.2, seed=5)
        b = stratified_sample_frames(100, 0.2, seed=5)
        assert a == b
        c = stratified_sample_frames(100, 0.2, seed=6)
        assert a != c  # different seed, different draw (overwhelmingly)

    def test_one_per_stratum(self):
        frames = stratified_sample_frames(100, 0.1, seed=0)
        assert len(frames) == 10
        for i, f in enumerate(frames):
            assert 0 <= f < 100


def tiny_pipe_cfg(**world_kw) -> PipelineConfig:
    world = SyntheticWorldConfig(
        frame_width=160,
        frame_height=120,
        num_objects=2,
        num_frames=12,
        velocities=((0.3, 0.1), (-0.2, 0.2)),
        rng_seed=3,
        occlusion_enabled=False,
        **world_kw,
    )
    return dataclasses.replace(
        PipelineConfig(),
        world=world,
        ash=dataclasses.replace(PipelineConfig().ash, alpha=1.0),
        chunker=dataclasses.replace(PipelineConfig().chunker, chi=10, omega=3),
    )


def outputs(report) -> dict:
    """What a run reports and writes, with output paths read as bytes."""

    def read(path):
        return path.read_bytes() if path is not None else None

    return {
        "flagged": report.flagged,
        "outcomes": {
            s: (o.qa, o.error, read(o.annotation_path), read(o.mot_path))
            for s, o in report.outcomes.items()
        },
        "deploy": (report.representative, report.optimized_j, report.cross_validated),
    }


def three_sources(cfg) -> dict:
    sources = {
        f"s{i}": synthetic_source(f"s{i}", cfg, dataclasses.replace(cfg.world, rng_seed=i))
        for i in range(3)
    }
    # s2 drifts far enough to be flagged, so that the flags are compared too.
    sources["s2"].propagator = SyntheticPropagator(
        sources["s2"].ground_truth, PropagationDegradation(drift_px_per_frame=(4.0, 3.0))
    )
    return sources


class TestRunDataset:
    def test_oracle_passes_qa(self, tmp_path):
        cfg = tiny_pipe_cfg()
        sources = {f"s{i}": synthetic_source(f"s{i}", cfg, dataclasses.replace(cfg.world, rng_seed=i)) for i in range(2)}
        report = run_dataset(sources, cfg.smart_od, cfg, tmp_path)
        assert report.flagged == []
        for outcome in report.outcomes.values():
            assert outcome.qa >= 0.9
            assert outcome.annotation_path.exists()
            assert outcome.mot_path.exists()

    def test_heavy_drift_flagged(self, tmp_path):
        cfg = tiny_pipe_cfg()
        cfg = dataclasses.replace(cfg, degradation=PropagationDegradation(drift_px_per_frame=(4.0, 3.0)))
        sources = {"bad": synthetic_source("bad", cfg, cfg.world)}
        report = run_dataset(sources, cfg.smart_od, cfg, tmp_path)
        assert report.flagged == ["bad"]

    def test_empty_dataset(self, tmp_path):
        cfg = tiny_pipe_cfg()
        report = run_dataset({}, cfg.smart_od, cfg, tmp_path)
        assert report.outcomes == {} and report.flagged == []

    def test_per_sequence_failure_isolated(self, tmp_path):
        cfg = tiny_pipe_cfg()
        good = synthetic_source("good", cfg, cfg.world)
        bad = synthetic_source("bad", cfg, cfg.world)

        class Broken:
            def propagate(self, box, start, frames):
                raise RuntimeError("boom")

        bad.propagator = Broken()
        report = run_dataset({"good": good, "bad": bad}, cfg.smart_od, cfg, tmp_path)
        assert report.failures == ["bad"]
        assert report.outcomes["good"].qa is not None

    def test_byte_deterministic_outputs(self, tmp_path):
        cfg = tiny_pipe_cfg()
        sources = {"s": synthetic_source("s", cfg, cfg.world)}
        run_dataset(sources, cfg.smart_od, cfg, tmp_path / "a")
        sources2 = {"s": synthetic_source("s", cfg, cfg.world)}
        run_dataset(sources2, cfg.smart_od, cfg, tmp_path / "b")
        a = (tmp_path / "a" / "s_annotations.jsonl").read_bytes()
        b = (tmp_path / "b" / "s_annotations.jsonl").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "s_track.txt").read_bytes() == (
            tmp_path / "b" / "s_track.txt"
        ).read_bytes()

    def test_workers_match_serial(self, tmp_path):
        cfg = dataclasses.replace(
            tiny_pipe_cfg(), deploy=DeploymentConfig(parameter_grid={"theta_min": [0.05, 0.1]})
        )
        serial = run_dataset(three_sources(cfg), cfg.smart_od, cfg, tmp_path / "serial", workers=1)
        parallel = run_dataset(
            three_sources(cfg), cfg.smart_od, cfg, tmp_path / "parallel", workers=3
        )
        assert serial.flagged == ["s2"]
        assert outputs(parallel) == outputs(serial)
        serial = deploy(three_sources(cfg), cfg, tmp_path / "deploy-serial", workers=1)
        parallel = deploy(three_sources(cfg), cfg, tmp_path / "deploy-parallel", workers=2)
        assert serial.failures == [] and serial.flagged == ["s2"]
        assert outputs(parallel) == outputs(serial)
        assert multiprocessing.active_children() == []


class TestWorkerProcesses:
    """With workers > 1, each sequence runs in a forked child process."""

    def test_single_sequence_starts_no_child(self, tmp_path, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("started a child process")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", no_process)
        cfg = tiny_pipe_cfg()
        sources = {"s": synthetic_source("s", cfg, cfg.world)}
        report = run_dataset(sources, cfg.smart_od, cfg, tmp_path, workers=4)
        assert report.failures == []

    @pytest.mark.parametrize(
        "die,code",
        [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit-3", "sigkill"],
    )
    def test_worker_death_isolated(self, tmp_path, die, code):
        cfg = tiny_pipe_cfg()
        serial = run_dataset(three_sources(cfg), cfg.smart_od, cfg, tmp_path / "serial")
        parent = os.getpid()

        class Dies:
            def propagate(self, box, start, frames):
                if os.getpid() == parent:
                    raise AssertionError("propagated in the parent process")
                die()

        sources = three_sources(cfg)
        sources["s1"].propagator = Dies()
        report = run_dataset(sources, cfg.smart_od, cfg, tmp_path / "parallel", workers=2)
        assert report.failures == ["s1"]
        assert f"s1: worker process exited with code {code}" in report.outcomes["s1"].error
        got, want = outputs(report)["outcomes"], outputs(serial)["outcomes"]
        assert got["s0"] == want["s0"] and got["s2"] == want["s2"]
        assert multiprocessing.active_children() == []

    def test_worker_exception_isolated(self, tmp_path):
        cfg = tiny_pipe_cfg()
        serial = run_dataset(three_sources(cfg), cfg.smart_od, cfg, tmp_path / "serial")

        class Broken:
            def propagate(self, box, start, frames):
                raise RuntimeError("boom")

        sources = three_sources(cfg)
        sources["s1"].propagator = Broken()
        report = run_dataset(sources, cfg.smart_od, cfg, tmp_path / "parallel", workers=2)
        assert report.failures == ["s1"]
        assert "boom" in report.outcomes["s1"].error
        got, want = outputs(report)["outcomes"], outputs(serial)["outcomes"]
        assert got["s0"] == want["s0"] and got["s2"] == want["s2"]
        assert multiprocessing.active_children() == []

    def test_interrupt_terminates_children(self, tmp_path, monkeypatch):
        class Sleeps:
            def propagate(self, box, start, frames):
                time.sleep(60)

        def interrupted(connections):
            raise KeyboardInterrupt

        cfg = tiny_pipe_cfg()
        sources = three_sources(cfg)
        for source in sources.values():
            source.propagator = Sleeps()
        monkeypatch.setattr(vidannot.pipeline, "wait", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_dataset(sources, cfg.smart_od, cfg, tmp_path, workers=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30


class TestBackendContract:
    """A backend that breaks its contract gives its sequence an error naming
    the object or backend call and the frame, or makes auto mode fall back;
    it never changes the output silently."""

    @staticmethod
    def run(tmp_path, source, mode="auto"):
        cfg = tiny_pipe_cfg()
        report = run_dataset({"s": source}, cfg.smart_od, cfg, tmp_path, mode=mode)
        return report.outcomes["s"]

    def test_one_mask_short_is_an_error(self, tmp_path):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)
        inner = source.propagator

        class OneShort:
            def propagate(self, box, start, frames):
                return inner.propagate(box, start, frames)[:-1]

        source.propagator = OneShort()
        error = self.run(tmp_path, source, "full").error
        assert error is not None and "object 0 gave 11 masks for the 12 frames 0..11" in error

    def test_masks_of_another_frame_size_are_an_error(self, tmp_path):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)

        class Tiny:
            def propagate(self, box, start, frames):
                return [BinaryMask.zeros(10, 10) for _ in frames]

        source.propagator = Tiny()
        error = self.run(tmp_path, source, "full").error
        assert error is not None
        assert "object 0 gave a 10x10 mask at frame 0 of a 160x120 sequence" in error

    def test_none_makes_auto_mode_fall_back(self, tmp_path):
        cfg = tiny_pipe_cfg()
        source = synthetic_source("s", cfg, cfg.world)
        inner = source.propagator

        class NoneOnce:
            calls = 0

            def propagate(self, box, start, frames):
                self.calls += 1
                return None if self.calls == 1 else inner.propagate(box, start, frames)

        source.propagator = NoneOnce()
        outcome = self.run(tmp_path / "auto", source)
        chunked = self.run(tmp_path / "chunk", synthetic_source("s", cfg, cfg.world), "chunk")
        assert outcome.error is None
        assert outcome.annotation_path.read_bytes() == chunked.annotation_path.read_bytes()
        assert outcome.mot_path.read_bytes() == chunked.mot_path.read_bytes()

    def test_detect_none_names_backend_and_frame(self, tmp_path):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)
        inner = source.detector

        class NoneAtFive:
            frame_size = inner.frame_size
            detect_region = inner.detect_region

            def detect(self, t):
                return None if t == 5 else inner.detect(t)

        source.detector = NoneAtFive()
        error = self.run(tmp_path, source).error
        assert error == "NoneAtFive.detect gave a NoneType at frame 5, not a list of Detection"

    def test_detect_region_non_detection_names_backend_and_frame(self, tmp_path):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)
        inner = source.detector

        class StringAtFive:
            frame_size = inner.frame_size
            detect = inner.detect

            def detect_region(self, t, region):
                return inner.detect_region(t, region) + (["box"] if t == 5 else [])

        source.detector = StringAtFive()
        error = self.run(tmp_path, source).error
        assert error == (
            "StringAtFive.detect_region gave a list holding a str at frame 5, "
            "not a list of Detection"
        )

    @pytest.mark.parametrize("mode", ["full", "chunk", "auto"])
    def test_detect_exception_names_backend_and_frame(self, tmp_path, mode):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)
        inner = source.detector

        class RaisesAtFive:
            frame_size = inner.frame_size
            detect_region = inner.detect_region

            def detect(self, t):
                if t == 5:
                    raise RuntimeError("boom")
                return inner.detect(t)

        source.detector = RaisesAtFive()
        error = self.run(tmp_path, source, mode).error
        assert error == "RaisesAtFive.detect raised at frame 5: boom"

    def test_propagate_exception_names_backend_and_frame(self, tmp_path):
        source = synthetic_source("s", tiny_pipe_cfg(), tiny_pipe_cfg().world)

        class Boom:
            def propagate(self, box, start, frames):
                raise RuntimeError("boom")

        source.propagator = Boom()
        error = self.run(tmp_path, source, "full").error
        assert error == "Boom.propagate failed for object 0: boom (from frame 0)"


class HostilePropagator:
    """A propagator that breaks its contract at one frame: it leaves out or
    repeats that frame's mask, gives a mask of another size or a string in
    its place, gives None or raises, for every request that holds the frame."""

    def __init__(self, inner, fault: str, frame: int, frame_size: tuple[int, int]) -> None:
        self.inner, self.fault, self.frame, self.frame_size = inner, fault, frame, frame_size

    def propagate(self, box, start, frames):
        if self.frame not in frames:
            return self.inner.propagate(box, start, frames)
        if self.fault == "raise":
            raise RuntimeError("hostile")
        if self.fault == "none":
            return None
        masks = list(self.inner.propagate(box, start, frames))
        i = list(frames).index(self.frame)
        if self.fault == "short":
            del masks[i]
        elif self.fault == "long":
            masks.insert(i, masks[i])
        elif self.fault == "wrong size":
            masks[i] = BinaryMask.zeros(self.frame_size[0] + 1, self.frame_size[1])
        else:
            masks[i] = "mask"
        return masks


class HostileDetector:
    """A detector whose `call` gives None or a list holding a string, or
    raises, at one frame."""

    def __init__(self, inner, call: str, fault: str, frame: int) -> None:
        self.inner, self.call, self.fault, self.frame = inner, call, fault, frame
        self.frame_size = inner.frame_size

    def hostile(self, call: str, t: int, dets):
        if call != self.call or t != self.frame:
            return dets
        if self.fault == "raise":
            raise RuntimeError("hostile")
        return None if self.fault == "none" else dets + ["box"]

    def detect(self, t):
        return self.hostile("detect", t, self.inner.detect(t))

    def detect_region(self, t, region):
        return self.hostile("detect_region", t, self.inner.detect_region(t, region))


def hostile_outputs(mode: str, wrap=None) -> tuple[bytes | None, bytes | None, str | None]:
    """Annotation and MOT bytes and error of one run_dataset run over the
    tiny world, its backends first passed through `wrap`."""
    cfg = tiny_pipe_cfg()
    source = synthetic_source("s", cfg, cfg.world)
    if wrap is not None:
        wrap(source)
    with tempfile.TemporaryDirectory() as out:
        o = run_dataset({"s": source}, cfg.smart_od, cfg, out, mode=mode).outcomes["s"]
        if o.error is not None:
            return None, None, o.error
        return o.annotation_path.read_bytes(), o.mot_path.read_bytes(), None


clean_outputs = functools.cache(hostile_outputs)


def names_frame(error: str, frame: int) -> bool:
    """Whether `error` names `frame`: at that frame, in a range of frames
    holding it, or as the first frame of a request that holds it."""
    if f"at frame {frame}" in error:
        return True
    span = re.search(r"frames (\d+)\.\.(\d+)", error)
    start = re.search(r"\(from frame (\d+)\)", error)
    return bool(
        (span and int(span[1]) <= frame <= int(span[2])) or (start and int(start[1]) <= frame)
    )


class TestHostileBackends:
    """Backends wrapped to break their contract at a drawn frame. Each run
    writes the clean run's bytes in its mode, or fails with an error that
    names the backend and the frame; it never changes the output silently."""

    @given(
        st.sampled_from(["full", "chunk"]),
        st.one_of(
            st.tuples(
                st.just("propagator"),
                st.sampled_from(["short", "long", "wrong size", "none", "non-mask", "raise"]),
            ),
            st.tuples(
                st.sampled_from(["detect", "detect_region"]),
                st.sampled_from(["none", "non-detection", "raise"]),
            ),
        ),
        st.integers(0, 11),
    )
    @settings(max_examples=1000, deadline=None)
    def test_hostile_backend_is_a_named_error_or_no_change(self, mode, fault, frame):
        side, kind = fault
        if side == "propagator":
            backend = "HostilePropagator.propagate"

            def wrap(source):
                source.propagator = HostilePropagator(
                    source.propagator, kind, frame, source.frame_size
                )
        else:
            backend = f"HostileDetector.{side}"

            def wrap(source):
                source.detector = HostileDetector(source.detector, side, kind, frame)

        ann, mot, error = hostile_outputs(mode, wrap)
        if error is None:
            assert (ann, mot, error) == clean_outputs(mode)
        else:
            assert backend in error and names_frame(error, frame), error


class Killed(Exception):
    pass


class TestChunkResume:
    """A chunk-mode run of 90 frames, 3 objects, chi=30 and omega=5 picks the
    chunks (0, 29), (20, 49), (40, 69) and (60, 89). Killed at frame 70, its
    log ends with the line of frame 69, and the resume tracks only frames
    70-89 of chunk (60, 89)."""

    outputs = ("s_annotations.jsonl", "s_track.txt")

    @staticmethod
    def config() -> PipelineConfig:
        return dataclasses.replace(
            PipelineConfig(),
            world=SyntheticWorldConfig(num_objects=3, num_frames=90, rng_seed=5),
            ash=dataclasses.replace(PipelineConfig().ash, alpha=1.0),
            chunker=dataclasses.replace(PipelineConfig().chunker, chi=30, omega=5),
        )

    def killed_and_reference(self, tmp_path) -> tuple[PipelineConfig, dict]:
        """Kill a run at frame 70 with checkpoints in tmp_path / "ckpt"; return
        the config and the bytes an uninterrupted run_dataset writes."""
        cfg = self.config()
        source = synthetic_source("s", cfg, cfg.world)
        dets = [vidannot.smart_od.run_smart_od(t, source.detector, cfg.smart_od) for t in range(90)]

        def bomb(t):
            if t == 70:
                raise Killed()

        with pytest.raises(Killed):
            vidannot.chunker.run_sequence(
                dets, source.propagator, source.frame_size, cfg.assoc, cfg.ash, cfg.chunker,
                mode="chunk", checkpoint_dir=tmp_path / "ckpt", sequence_id="s", on_frame=bomb,
            )
        log = tmp_path / "ckpt" / "s_ckpt.jsonl"
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] == [log.name]
        frames = [json.loads(line)["last_completed_frame"] for line in log.read_text().splitlines()]
        assert frames == [29, 49, 69]
        run_dataset(
            {"s": synthetic_source("s", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path / "ref",
            mode="chunk",
        )
        return cfg, {name: (tmp_path / "ref" / name).read_bytes() for name in self.outputs}

    def resume(self, tmp_path, cfg) -> dict:
        report = run_dataset(
            {"s": synthetic_source("s", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="chunk", resume=True,
        )
        assert report.failures == []
        return {name: (tmp_path / "out" / name).read_bytes() for name in self.outputs}

    def test_resume_verifies_only_the_frames_it_reads(self, tmp_path, monkeypatch):
        cfg, ref = self.killed_and_reference(tmp_path)
        verified = []
        real = vidannot.pipeline.run_smart_od

        def recorded(t, *args, **kwargs):
            verified.append(t)
            return real(t, *args, **kwargs)

        monkeypatch.setattr(vidannot.pipeline, "run_smart_od", recorded)
        assert self.resume(tmp_path, cfg) == ref
        # The search window around frame 70 (65..75) and the frames tracked.
        assert sorted(verified) == list(range(65, 90))

    def test_segments_with_a_chunk_index_resume(self, tmp_path):
        # Checkpoints once carried their chunk's index; it is ignored now.
        cfg, ref = self.killed_and_reference(tmp_path)
        log = tmp_path / "ckpt" / "s_ckpt.jsonl"
        lines = []
        for i, line in enumerate(log.read_text().splitlines()):
            payload = json.loads(line)
            payload["chunk_index"] = i
            lines.append(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        log.write_text("".join(lines))
        assert self.resume(tmp_path, cfg) == ref


class TestPinnedOutputBytes:
    """The annotation and MOT bytes of five runs, pinned by SHA-256. Three
    are of an alpha-1.0 world with fixed velocities and noise-free
    detections in full mode, run once uninterrupted and twice killed after
    frame 27 and resumed from its checkpoint of frame 19. Outlines are written
    as traced, so any change to tracing, association, checkpoints or the
    writers shows here. The fourth is of a w1-style world at the default
    alpha, 0.2, where every written outline comes out of smoothing, so any
    change to resampling, alignment or blending shows too. The fifth is a
    noisy chunk-mode run with checkpoints, whose missed, spurious and
    jittered detections and dropped masks make many births, so any change to
    association, propagation or how chunks continue their objects shows
    there."""

    DIGESTS = {
        "p_annotations.jsonl": "2fc948d3e27bb16cd6fce19f87e31ca306095f3d9d3104bfd63e9073aba7c45f",
        "p_track.txt": "af51d47c1327525cc8a10cbd8db7a7d2204792c01d92eb313d32a3fd5850be9e",
    }

    @staticmethod
    def config() -> PipelineConfig:
        world = SyntheticWorldConfig(
            frame_width=320, frame_height=240, num_objects=4, num_frames=40,
            velocities=((0.9, 0.4), (-0.7, 0.5), (0.5, -0.8), (-0.3, -0.6)),
            ellipse_axes=(24.0, 16.0), rng_seed=11, occlusion_enabled=True,
        )
        return dataclasses.replace(
            PipelineConfig(),
            world=world,
            ash=dataclasses.replace(PipelineConfig().ash, alpha=1.0),
            chunker=dataclasses.replace(PipelineConfig().chunker, checkpoint_interval=10),
        )

    @staticmethod
    def digests(out) -> dict[str, str]:
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("p_annotations.jsonl", "p_track.txt")
        }

    def test_uninterrupted_run(self, tmp_path):
        cfg = self.config()
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path, mode="full"
        )
        assert report.failures == []
        assert self.digests(tmp_path) == self.DIGESTS

    SMOOTHED_DIGESTS = {
        "p_annotations.jsonl": "eab055aee3565a1a8e8f0911877407d94820b944557671e3211017339cae2998",
        "p_track.txt": "740097f97e7e369737326d6652114accc2b0e0eda7183765971c94eaec4bc78b",
    }

    def test_smoothed_run(self, tmp_path):
        world = SyntheticWorldConfig(
            frame_width=320, frame_height=240, num_objects=4, num_frames=40,
            velocities=((0.9, 0.4), (-0.7, 0.5), (0.5, -0.8), (-0.3, -0.6)),
            ellipse_axes=(11.0, 8.0), rng_seed=11, occlusion_enabled=False,
        )
        cfg = dataclasses.replace(PipelineConfig(), world=world)
        assert cfg.ash.alpha == 0.2
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path, mode="full"
        )
        assert report.failures == []
        assert self.digests(tmp_path) == self.SMOOTHED_DIGESTS

    NOISY_DIGESTS = {
        "p_annotations.jsonl": "0f0cda6d59f99fc86fadc370149766534071aecc88712419e9712b544b1b609f",
        "p_track.txt": "35c61e73ce4fa432e302987e231f95f72508b461a96ce7e06d7e89df0f6ad143",
    }

    def test_noisy_chunk_run(self, tmp_path):
        base = PipelineConfig()
        cfg = dataclasses.replace(
            base,
            world=SyntheticWorldConfig(num_objects=5, num_frames=90, rng_seed=2),
            noise=DetectionNoise(
                miss_rate=0.3, fp_rate=2.0, jitter_sigma=1.0, fp_confidence_range=(0.3, 0.9),
                rng_seed=5,
            ),
            degradation=PropagationDegradation(dropout_rate=0.05, rng_seed=6),
            ash=dataclasses.replace(base.ash, alpha=1.0),
            chunker=dataclasses.replace(base.chunker, chi=20, omega=5),
        )
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path,
            checkpoint_dir=tmp_path / "ckpt", mode="chunk",
        )
        assert report.failures == []
        assert self.digests(tmp_path) == self.NOISY_DIGESTS

    def kill_after_frame_27(self, tmp_path, cfg) -> None:
        """Run the pinned world in full mode with checkpoints until it is
        killed after frame 27."""
        source = synthetic_source("p", cfg, cfg.world)
        dets = [vidannot.smart_od.run_smart_od(t, source.detector, cfg.smart_od) for t in range(40)]

        def bomb(t):
            if t == 27:
                raise Killed()

        with pytest.raises(Killed):
            vidannot.chunker.run_sequence(
                dets, source.propagator, source.frame_size, cfg.assoc, cfg.ash, cfg.chunker,
                mode="full", checkpoint_dir=tmp_path / "ckpt", sequence_id="p", on_frame=bomb,
            )
        log = (tmp_path / "ckpt" / "p_ckpt.jsonl").read_text().splitlines()
        assert [json.loads(line)["last_completed_frame"] for line in log] == [9, 19]

    def test_killed_and_resumed_run(self, tmp_path):
        cfg = self.config()
        self.kill_after_frame_27(tmp_path, cfg)
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="full", resume=True,
        )
        assert report.failures == []
        assert self.digests(tmp_path / "out") == self.DIGESTS

    def test_resume_from_a_log_whose_tracks_hold_older_keys(self, tmp_path):
        # Logs of older versions also held each track's last-seen frame and
        # class label; such a log still resumes to the uninterrupted bytes.
        cfg = self.config()
        self.kill_after_frame_27(tmp_path, cfg)
        log = tmp_path / "ckpt" / "p_ckpt.jsonl"
        lines = []
        for line in log.read_text().splitlines():
            payload = json.loads(line)
            state = payload["assoc_state"]
            for track in state["tracks"]:
                track["last_seen_frame"] = state["last_frame"] - track["age"]
                track["class_label"] = "object"
            lines.append(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        log.write_text("".join(lines))
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="full", resume=True,
        )
        assert report.failures == []
        assert self.digests(tmp_path / "out") == self.DIGESTS

    def test_resume_from_a_log_with_an_entry_past_the_last_frame_fails(self, tmp_path):
        # An entry copied to frame 999 of the 40-frame sequence was once
        # written to the MOT file as frame 1000, with no error and QA 1.0.
        cfg = self.config()
        self.kill_after_frame_27(tmp_path, cfg)
        log = tmp_path / "ckpt" / "p_ckpt.jsonl"
        first, *rest = log.read_text().splitlines(keepends=True)
        payload = json.loads(first)
        entries = payload["masklets"][0]["entries"]
        entries["999"] = entries["0"]
        log.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n" + "".join(rest))
        report = run_dataset(
            {"p": synthetic_source("p", cfg, cfg.world)}, cfg.smart_od, cfg, tmp_path / "out",
            checkpoint_dir=tmp_path / "ckpt", mode="full", resume=True,
        )
        assert report.failures == ["p"]
        assert f"checkpoint {log} line 1 unreadable" in report.outcomes["p"].error
        assert not (tmp_path / "out" / "p_track.txt").exists()


class TestDeploy:
    def test_end_to_end(self, tmp_path):
        cfg = tiny_pipe_cfg()
        cfg = dataclasses.replace(
            cfg,
            deploy=DeploymentConfig(parameter_grid={"theta_min": [0.05, 0.1]}),
        )
        sources = {
            f"s{i}": synthetic_source(f"s{i}", cfg, dataclasses.replace(cfg.world, rng_seed=10 + i))
            for i in range(3)
        }
        report = deploy(sources, cfg, tmp_path)
        assert report.representative in sources
        assert report.cross_validated is True
        assert report.optimized_j == pytest.approx(1.0)
        assert report.failures == []
        assert len(report.outcomes) == 3

    def test_each_frame_verified_once(self, tmp_path, monkeypatch):
        # The representative and validation sequences are verified to score
        # the search; the dataset run reuses those detections.
        cfg = dataclasses.replace(
            tiny_pipe_cfg(), deploy=DeploymentConfig(parameter_grid={"theta_min": [0.05, 0.1]})
        )
        sources = {
            f"s{i}": synthetic_source(f"s{i}", cfg, dataclasses.replace(cfg.world, rng_seed=10 + i))
            for i in range(3)
        }
        calls = []
        real = vidannot.pipeline.run_smart_od

        def counted(t, detector, smart_cfg):
            calls.append((t, detector, smart_cfg))
            return real(t, detector, smart_cfg)

        monkeypatch.setattr(vidannot.pipeline, "run_smart_od", counted)
        report = deploy(sources, cfg, tmp_path)
        grid = len(cfg.deploy.parameter_grid["theta_min"])
        # The search scores each grid point on one frame; after it, each
        # frame of each sequence is verified once, with the chosen config.
        after_search = calls[grid:]
        assert len(after_search) == sum(s.num_frames for s in sources.values())
        assert len({(t, id(d)) for t, d, _ in after_search}) == len(after_search)
        assert report.failures == []


class TestQaScore:
    def test_perfect_predictions(self):
        cfg = tiny_pipe_cfg()
        src = synthetic_source("s", cfg, cfg.world)
        from vidannot.ash import Masklet, MaskletEntry
        from vidannot.geometry import mask_to_polygon

        masklets = []
        for i in range(2):
            m = Masklet(i, "object")
            for t, frame in enumerate(src.ground_truth):
                mask = frame.objects[i].mask
                poly = mask_to_polygon(mask)
                m.entries[t] = MaskletEntry(mask, poly, 0.9)
            masklets.append(m)
        assert qa_score(masklets, src.ground_truth, range(12)) == pytest.approx(1.0)

    def test_missing_objects_drop_score(self):
        cfg = tiny_pipe_cfg()
        src = synthetic_source("s", cfg, cfg.world)
        assert qa_score([], src.ground_truth, range(12)) == 0.0

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_equals_scoring_every_pair(self, data):
        # Masks and outlines of a 40x30 frame, some out of the frame or empty,
        # against reference masks that may be empty or invisible.
        w, h, frames = 40, 30, 3
        coord = st.integers(-8, 47)

        def rect():
            x1, y1 = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
            x2, y2 = data.draw(st.integers(x1, w - 1)), data.draw(st.integers(y1, h - 1))
            if data.draw(st.booleans()):
                return BinaryMask.zeros(w, h)
            return rect_mask(x1, y1, x2, y2, w, h)

        def entry():
            if data.draw(st.booleans()):
                return MaskletEntry.from_mask(rect(), 0.9)
            n = data.draw(st.integers(3, 6))
            vertices = [
                (data.draw(coord) + 0.5 * data.draw(st.integers(0, 1)), data.draw(coord))
                for _ in range(n)
            ]
            return MaskletEntry.from_outline(Polygon(vertices), (w, h), 0.9)

        masklets = []
        for i in range(data.draw(st.integers(0, 4))):
            present = data.draw(st.lists(st.integers(0, frames - 1), unique=True, max_size=frames))
            masklets.append(Masklet(i, "object", {f: entry() for f in sorted(present)}))
        reference = [
            GroundTruthFrame(f, w, h, tuple(
                GroundTruthObject(
                    j, rect(), BBox(0, 0, 1, 1), "object", data.draw(st.sampled_from([0.0, 1.0]))
                )
                for j in range(data.draw(st.integers(0, 3)))
            ))
            for f in range(frames)
        ]
        sampled = data.draw(st.lists(st.integers(0, frames - 1), unique=True, min_size=1))
        # qa_score goes first: the oracle rasterizes every outline it reads.
        score = qa_score(masklets, reference, sampled)
        assert score == every_pair_qa_score(masklets, reference, sampled)


class TestOptimizeExhaustiveness:
    @given(
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8),
        st.floats(0, 1),
    )
    @settings(max_examples=1000, deadline=None)
    def test_winner_dominates_grid(self, pr_pairs, alpha):
        # Fake detector outputs whose precision/recall are dictated directly:
        # n gt objects; grid point k yields tp_k TPs and fp_k FPs.
        from helpers import rect_mask
        from vidannot.backends import GroundTruthObject
        import vidannot.pipeline as pl

        n = 10
        objs = []
        for i in range(n):
            x = 10 * i
            mask = rect_mask(x, 0, x + 8, 8, 120, 20)
            objs.append(GroundTruthObject(i, mask, BBox(x, 0, x + 8, 8), "object", 1.0))
        gt = GroundTruthFrame(0, 120, 20, tuple(objs))

        tables = {}
        for k, (p_target, r_target) in enumerate(pr_pairs):
            tp = round(r_target * n)
            fp = 0 if p_target >= 1.0 or tp == 0 else max(0, round(tp / max(p_target, 0.05)) - tp)
            dets = [Detection(objs[i].box, "object", 0.9) for i in range(tp)]
            dets += [Detection(BBox(0, 15, 5, 19), "object", 0.9) for _ in range(fp)]
            tables[0.001 + k * 0.001] = dets

        original = pl.run_smart_od
        pl.run_smart_od = lambda f, det, cfg: tables[cfg.theta_v]
        try:
            grid = {"theta_v": sorted(tables)}
            best, best_j = optimize_parameters(0, gt, StubDetector(tables), grid, SmartOdConfig(), alpha)
            from vidannot.pipeline import detection_precision_recall

            for key in tables:
                p, r = detection_precision_recall(tables[key], gt)
                assert best_j >= alpha * r + (1 - alpha) * p - 1e-12
        finally:
            pl.run_smart_od = original


class TestQaSampleProperties:
    @given(st.integers(1, 400), st.floats(0.01, 1.0), st.integers(0, 10_000))
    @settings(max_examples=1000, deadline=None)
    def test_reproducible_and_in_range(self, n, fraction, seed):
        a = stratified_sample_frames(n, fraction, seed)
        b = stratified_sample_frames(n, fraction, seed)
        assert a == b
        assert all(0 <= f < n for f in a)
        assert a == sorted(set(a))
