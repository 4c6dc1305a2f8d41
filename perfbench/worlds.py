"""Workload inputs: synthetic worlds and detector/propagator noise, drawn from
the benchmark seed. A workload's inputs are one or more datasets: the
sequences one annotation operation processes together and, for a workload
that is interrupted, the frame after which the operation is killed.

The oracle workloads (w1 and hd) need worlds that meet the preconditions of
acceptance criterion 1: every object fully visible, inside the frame margins
and clear of every other object in every frame, so that no segment merge is
legitimate and IDF1 = MOTA = 1.0 is the correct result. Candidate worlds are
screened from a one-frame render plus the known velocities, which is cheap,
and the chosen world is checked again on every rendered frame.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from vidannot.backends import (
    DetectionNoise,
    GroundTruthFrame,
    PropagationDegradation,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.geometry import BBox, iou_box

EIGHT_WAY_VELOCITIES = tuple(
    (0.2 * math.cos(2 * math.pi * i / 8), 0.2 * math.sin(2 * math.pi * i / 8))
    for i in range(8)
)

# Slack, in pixels, between a box predicted from frame 0 plus velocity and the
# tight box of the rendered ellipse, which moves in whole-pixel steps.
_SCREEN_SLACK = 2.0
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence's inputs: the world and the backends' noise models."""

    sequence_id: str
    world: SyntheticWorldConfig
    noise: DetectionNoise = DetectionNoise()
    degradation: PropagationDegradation = PropagationDegradation()


@dataclass(frozen=True)
class Dataset:
    sequences: tuple[SequenceSpec, ...]
    crash_after: int | None = None  # frame after which the run is killed and resumed


def _inside(box: BBox, width: int, height: int, slack: float) -> bool:
    return (
        box.x1 - slack >= 1
        and box.y1 - slack >= 1
        and box.x2 + slack <= width - 2
        and box.y2 + slack <= height - 2
    )


def _grow(box: BBox, slack: float) -> BBox:
    return BBox(box.x1 - slack, box.y1 - slack, box.x2 + slack, box.y2 + slack)


def _screen(first: GroundTruthFrame, cfg: SyntheticWorldConfig) -> bool:
    """Predict every frame's boxes from frame 0 and test the preconditions."""
    if any(o.visibility != 1.0 for o in first.objects):
        return False
    for t in range(cfg.num_frames):
        boxes = []
        for o, (vx, vy) in zip(first.objects, cfg.velocities):
            b = BBox(o.box.x1 + vx * t, o.box.y1 + vy * t, o.box.x2 + vx * t, o.box.y2 + vy * t)
            if not _inside(b, cfg.frame_width, cfg.frame_height, _SCREEN_SLACK):
                return False
            boxes.append(_grow(b, _SCREEN_SLACK))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if iou_box(boxes[i], boxes[j]) > 0.0:
                    return False
    return True


def world_meets_preconditions(gt: list[GroundTruthFrame]) -> bool:
    """Acceptance criterion 1's world preconditions, on the rendered frames."""
    for frame in gt:
        boxes = []
        for o in frame.objects:
            if o.visibility != 1.0 or not _inside(o.box, frame.width, frame.height, 0.0):
                return False
            boxes.append(o.box)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if iou_box(boxes[i], boxes[j]) > 0.05:
                    return False
    return True


def clear_world(base: SyntheticWorldConfig, seed: int) -> SyntheticWorldConfig:
    """First candidate world, in an order fixed by the seed, that passes the screen."""
    for attempt in range(_MAX_ATTEMPTS):
        cfg = dataclasses.replace(base, rng_seed=seed * _MAX_ATTEMPTS + attempt)
        first = generate_synthetic_sequence(dataclasses.replace(cfg, num_frames=1))[0]
        if _screen(first, cfg):
            return cfg
    raise RuntimeError(f"no clear world found for seed {seed}")


def oracle_smooth_datasets(seed: int) -> list[Dataset]:
    """w1: the acceptance-criterion-1 world, 320x240, 8 objects, 200 frames."""
    base = SyntheticWorldConfig(
        frame_width=320,
        frame_height=240,
        num_objects=8,
        num_frames=200,
        velocities=EIGHT_WAY_VELOCITIES,
        ellipse_axes=(11.0, 8.0),
        occlusion_enabled=False,
    )
    return [Dataset((SequenceSpec("w1", clear_world(base, seed)),))]


# Frames after which hd's two operations are killed: the restarts resume from
# the checkpoints of frames 24 and 49.
HD_CRASH_AFTER = (30, 50)


def hd_datasets(seed: int) -> list[Dataset]:
    """hd: 1280x720, 8 objects, 60 frames, occlusion on; axes and speed scaled
    up about fourfold from w1 so the objects stay separable. One run makes two
    operations on the same world, killed at different frames, so that it
    measures two restarts."""
    base = SyntheticWorldConfig(
        frame_width=1280,
        frame_height=720,
        num_objects=8,
        num_frames=60,
        velocities=tuple((4.0 * vx, 4.0 * vy) for vx, vy in EIGHT_WAY_VELOCITIES),
        ellipse_axes=(40.0, 28.0),
        occlusion_enabled=True,
    )
    spec = SequenceSpec("hd", clear_world(base, seed))
    return [Dataset((spec,), crash_after=frame) for frame in HD_CRASH_AFTER]


NOISY_DATASETS = 2


def noisy_deploy_datasets(seed: int) -> list[Dataset]:
    """w2: datasets of three occluded 320x240 worlds of 6 objects and 150
    frames, with missed, spurious and jittered detections and 5 % propagation
    dropout.

    The worlds are fixed (world seeds 1 to 3, the scenes of the ROADMAP's W2
    baseline). The benchmark seed draws the detector's and the propagator's
    noise streams, separately for each of NOISY_DATASETS datasets: how much
    work a dataset makes depends on its noise (spurious and duplicate track
    births), so one run measures several to keep its throughput steady
    across seeds.
    """
    rng = np.random.default_rng(seed)
    datasets = []
    for _ in range(NOISY_DATASETS):
        specs = []
        for i in range(3):
            noise_seed, drop_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
            specs.append(
                SequenceSpec(
                    f"w2-{i}",
                    SyntheticWorldConfig(
                        frame_width=320,
                        frame_height=240,
                        num_objects=6,
                        num_frames=150,
                        rng_seed=i + 1,
                        occlusion_enabled=True,
                    ),
                    DetectionNoise(
                        miss_rate=0.3, fp_rate=2.0, jitter_sigma=1.0, rng_seed=noise_seed
                    ),
                    PropagationDegradation(dropout_rate=0.05, rng_seed=drop_seed),
                )
            )
        datasets.append(Dataset(tuple(specs)))
    return datasets
