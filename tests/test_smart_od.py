from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.backends import (
    Detection,
    DetectionNoise,
    SyntheticDetector,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.geometry import BBox, iou_box
from vidannot.smart_od import (
    SmartOdConfig,
    cluster_and_build_rois,
    dynamic_threshold,
    filter_area_ratio,
    kmeans_1d,
    nms_detections,
    run_smart_od,
    slice_tiles,
    verify_roi,
)


# --- independent brute-force oracle ---------------------------------------


def brute_kmeans_1d(values: list[float], k: int) -> list[list[float]]:
    """Exhaustive search over all contiguous partitions of the sorted values."""
    xs = sorted(values)
    n = len(xs)

    def sse(group: list[float]) -> float:
        mu = sum(group) / len(group)
        return sum((v - mu) ** 2 for v in group)

    best = None
    best_cost = math.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        parts = [xs[bounds[i] : bounds[i + 1]] for i in range(k)]
        cost = sum(sse(p) for p in parts)
        if cost < best_cost:
            best_cost = cost
            best = parts
    return best


def brute_threshold(scores: list[float], method: str, theta_min: float) -> float:
    def pstd(vs):
        mu = sum(vs) / len(vs)
        return math.sqrt(sum((v - mu) ** 2 for v in vs) / len(vs))

    needed = {"mean_std": 1, "kmeans": 3, "kmeans_mean_std": 3, "double_kmeans": 2}[method]
    if len(scores) < needed:
        method = "mean_std"
    if method == "mean_std":
        theta = sum(scores) / len(scores) - pstd(scores)
    elif method == "kmeans":
        c = brute_kmeans_1d(scores, 3)
        theta = min(c[1] + c[2])
    elif method == "kmeans_mean_std":
        low = brute_kmeans_1d(scores, 3)[0]
        theta = sum(low) / len(low) + 2 * pstd(low)
    else:
        low = brute_kmeans_1d(scores, 2)[0]
        if len(low) >= 2:
            low = brute_kmeans_1d(low, 2)[0]
        theta = max(low)
    return min(1.0, max(theta, theta_min))


def det(x1, y1, x2, y2, conf=0.9, label="object"):
    return Detection(BBox(x1, y1, x2, y2), label, conf)


class TestDynamicThreshold:
    def test_mean_std_hand_arithmetic(self):
        # mean 0.5, population std sqrt(0.05) = 0.22360
        v = dynamic_threshold([0.2, 0.4, 0.6, 0.8], "mean_std", 0.1)
        assert v == pytest.approx(0.27639, abs=1e-4)

    def test_floor_clamp(self):
        assert dynamic_threshold([0.05, 0.05], "mean_std", 0.1) == 0.1

    def test_kmeans_top_two_clusters(self):
        scores = [0.1, 0.11, 0.5, 0.52, 0.9, 0.91]
        assert brute_kmeans_1d(scores, 3) == [[0.1, 0.11], [0.5, 0.52], [0.9, 0.91]]
        assert dynamic_threshold(scores, "kmeans", 0.0) == 0.5

    def test_fallback_below_cluster_count(self):
        v = dynamic_threshold([0.3, 0.7], "kmeans", 0.0)
        assert v == pytest.approx(brute_threshold([0.3, 0.7], "kmeans", 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dynamic_threshold([], "mean_std", 0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            dynamic_threshold([0.5], "quantile", 0.1)

    @pytest.mark.parametrize("method", ["mean_std", "kmeans", "kmeans_mean_std", "double_kmeans"])
    def test_matches_brute_force(self, method):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            scores = [float(s) for s in rng.uniform(0, 1, size=n)]
            got = dynamic_threshold(scores, method, 0.05)
            want = brute_threshold(scores, method, 0.05)
            assert got == pytest.approx(want, abs=1e-9), (method, scores)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=15),
        st.sampled_from(["mean_std", "kmeans", "kmeans_mean_std", "double_kmeans"]),
        st.floats(0, 0.5),
    )
    @settings(max_examples=1000, deadline=None)
    def test_output_bounded(self, scores, method, theta_min):
        v = dynamic_threshold(scores, method, theta_min)
        assert theta_min <= v <= 1.0

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=15),
        st.sampled_from(["mean_std", "kmeans", "kmeans_mean_std", "double_kmeans"]),
        st.floats(0, 0.5),
        st.floats(0, 0.5),
    )
    @settings(max_examples=1000, deadline=None)
    def test_floor_monotonicity(self, scores, method, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert dynamic_threshold(scores, method, lo) <= dynamic_threshold(scores, method, hi)


class TestExactKmeans:
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=14), st.integers(2, 3))
    @settings(max_examples=1000, deadline=None)
    def test_dp_matches_exhaustive_cost(self, values, k):
        if len(values) < k:
            return
        got = kmeans_1d(values, k)
        want = brute_kmeans_1d(values, k)

        def cost(parts):
            total = 0.0
            for p in parts:
                mu = sum(p) / len(p)
                total += sum((v - mu) ** 2 for v in p)
            return total

        assert cost(got) == pytest.approx(cost(want), abs=1e-12)


class TestAreaFilter:
    CFG = SmartOdConfig()

    def test_small_box_removed(self):
        d = det(0, 0, 40, 20)  # 800 px^2 on 1920x1080: ratio 0.000386
        assert filter_area_ratio([d], 1920 * 1080, self.CFG) == []

    def test_quarter_frame_removed(self):
        d = det(0, 0, 960, 540)  # exactly 25% of 1920x1080
        assert filter_area_ratio([d], 1920 * 1080, self.CFG) == []

    def test_mid_range_kept(self):
        d = det(0, 0, 454, 228)  # ~5% of 1920x1080
        assert filter_area_ratio([d], 1920 * 1080, self.CFG) == [d]

    def test_order_preserved(self):
        ds = [det(0, 0, 100 + i, 100) for i in range(5)]
        assert filter_area_ratio(ds, 1920 * 1080, self.CFG) == ds

    def test_bad_frame_area(self):
        with pytest.raises(ValueError):
            filter_area_ratio([], 0, self.CFG)


class TestClustering:
    CFG = SmartOdConfig()  # epsilon 100, mu 1

    def test_empty(self):
        assert cluster_and_build_rois([], self.CFG) == []

    def test_near_boxes_one_roi(self):
        a = det(0, 0, 20, 20)  # center (10, 10)
        b = det(50, 0, 70, 20)  # center (60, 10); distance 50 < 100
        rois = cluster_and_build_rois([a, b], self.CFG)
        assert len(rois) == 1
        assert rois[0].box == BBox(0, 0, 70, 20)
        assert sorted(rois[0].member_indices) == [0, 1]

    def test_far_boxes_two_rois(self):
        a = det(0, 0, 20, 20)
        b = det(500, 0, 520, 20)  # distance 500 > 100
        rois = cluster_and_build_rois([a, b], self.CFG)
        assert len(rois) == 2

    @given(st.lists(st.tuples(st.floats(0, 500), st.floats(0, 500)), min_size=1, max_size=12))
    @settings(max_examples=1000, deadline=None)
    def test_mu1_partitions_all_detections(self, centers):
        dets = [det(x, y, x + 10, y + 10) for x, y in centers]
        rois = cluster_and_build_rois(dets, self.CFG)
        seen = sorted(i for r in rois for i in r.member_indices)
        assert seen == list(range(len(dets)))


class TestVerifyRoi:
    CFG = SmartOdConfig()

    def test_both_criteria_pass(self):
        d = det(0, 0, 10, 10, conf=0.9)
        pred = det(0, 0, 10, 12, conf=0.5)
        assert verify_roi([d], [pred], 0.3, self.CFG) == [d]

    def test_confidence_criterion_rejects(self):
        d = det(0, 0, 10, 10, conf=0.2)
        pred = det(0, 0, 10, 12, conf=0.5)
        assert verify_roi([d], [pred], 0.3, self.CFG) == []

    def test_iou_criterion_rejects(self):
        d = det(0, 0, 10, 10, conf=0.9)
        assert verify_roi([d], [], 0.3, self.CFG) == []

    def test_never_fabricates_and_idempotent(self):
        dets = [det(0, 0, 10, 10, conf=c) for c in (0.9, 0.4, 0.7)]
        preds = [det(0, 0, 10, 11)]
        once = verify_roi(dets, preds, 0.5, self.CFG)
        twice = verify_roi(once, preds, 0.5, self.CFG)
        assert set(once) <= set(dets)
        assert once == twice


class TestSliceTiles:
    def test_small_roi_single_tile(self):
        tiles = slice_tiles(BBox(10, 10, 100, 80), 256, 0.2)
        assert tiles == [BBox(10, 10, 100, 80)]

    def test_tiles_cover_roi(self):
        roi = BBox(0, 0, 600, 500)
        tiles = slice_tiles(roi, 256, 0.2)
        assert all(t.x2 <= roi.x2 and t.y2 <= roi.y2 for t in tiles)
        assert max(t.x2 for t in tiles) == roi.x2
        assert max(t.y2 for t in tiles) == roi.y2
        assert min(t.x1 for t in tiles) == roi.x1


class TestNms:
    def test_suppresses_overlap(self):
        a = det(0, 0, 10, 10, conf=0.9)
        b = det(0, 0, 10, 9, conf=0.5)
        c = det(50, 50, 60, 60, conf=0.7)
        kept = nms_detections([a, b, c], 0.1)
        assert kept == [a, c]


def _world(seed=5, n=4, frames=3):
    return SyntheticWorldConfig(
        num_objects=n,
        num_frames=frames,
        rng_seed=seed,
        velocities=tuple((0.2 * (i % 3 - 1), 0.1 * (i % 2)) for i in range(n)),
        occlusion_enabled=False,
    )


class TestRunSmartOd:
    def test_zero_noise_accepts_all_no_fps(self):
        gt = generate_synthetic_sequence(_world())
        detector = SyntheticDetector(gt, DetectionNoise())
        cfg = SmartOdConfig()
        for t in range(3):
            out = run_smart_od(t, detector, cfg)
            objs = gt[t].visible_objects()
            assert len(out) == len(objs)
            for d in out:
                assert any(iou_box(d.box, o.box) > 0.9 for o in objs)

    def test_accepted_confidence_reaches_threshold(self):
        gt = generate_synthetic_sequence(_world(seed=6, frames=8))
        noise = DetectionNoise(
            fp_rate=3.0,
            fp_confidence_range=(0.0, 0.2),
            tp_confidence_range=(0.6, 0.95),
            rng_seed=17,
        )
        detector = SyntheticDetector(gt, noise)
        cfg = SmartOdConfig(threshold_method="mean_std")
        for t in range(8):
            dets = detector.detect(t)
            dets = filter_area_ratio(dets, 320 * 240, cfg)
            if not dets:
                continue
            theta = dynamic_threshold([d.confidence for d in dets], "mean_std", cfg.theta_min)
            for d in run_smart_od(t, detector, cfg):
                assert d.confidence >= theta

    def test_verification_strictly_reduces_fps(self):
        gt = generate_synthetic_sequence(_world(seed=7, frames=20))
        noise = DetectionNoise(
            fp_rate=5.0,
            fp_confidence_range=(0.0, 0.3),
            tp_confidence_range=(0.6, 0.95),
            rng_seed=23,
        )
        detector = SyntheticDetector(gt, noise)
        cfg = SmartOdConfig()

        def count_fps(dets, frame):
            gt_boxes = [o.box for o in frame.visible_objects()]
            return sum(1 for d in dets if all(iou_box(d.box, g) < 0.5 for g in gt_boxes))

        baseline_fps = 0
        verified_fps = 0
        for t in range(20):
            raw = filter_area_ratio(detector.detect(t), 320 * 240, cfg)
            verified = run_smart_od(t, detector, cfg)
            baseline_fps += count_fps(raw, gt[t])
            verified_fps += count_fps(verified, gt[t])
        assert verified_fps < baseline_fps

    def test_monotone_in_theta_min(self):
        gt = generate_synthetic_sequence(_world(seed=8))
        noise = DetectionNoise(fp_rate=2.0, tp_confidence_range=(0.5, 0.9), rng_seed=3)
        detector = SyntheticDetector(gt, noise)
        sizes = []
        for theta_min in (0.0, 0.3, 0.6, 0.9):
            cfg = SmartOdConfig(theta_min=theta_min)
            sizes.append(len(run_smart_od(0, detector, cfg)))
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("call", ["detect", "detect_region"])
    def test_backend_exception_names_the_call_and_frame(self, call):
        inner = SyntheticDetector(generate_synthetic_sequence(_world()), DetectionNoise())

        class Raises:
            frame_size = inner.frame_size
            exc: BaseException = RuntimeError("boom")

            def detect(self, t):
                if call == "detect":
                    raise self.exc
                return inner.detect(t)

            def detect_region(self, t, region):
                raise self.exc

        detector = Raises()
        with pytest.raises(RuntimeError) as err:
            run_smart_od(2, detector, SmartOdConfig())
        assert str(err.value) == f"Raises.{call} raised at frame 2: boom"
        assert err.value.__cause__ is detector.exc
        # An interrupt is not the backend's fault and passes as it is.
        detector.exc = KeyboardInterrupt()
        with pytest.raises(KeyboardInterrupt) as err:
            run_smart_od(2, detector, SmartOdConfig())
        assert err.value is detector.exc


class TestConfigValidation:
    def test_area_band(self):
        with pytest.raises(ValueError):
            SmartOdConfig(theta_min_area=0.3, theta_max_area=0.2)

    def test_method_name(self):
        with pytest.raises(ValueError):
            SmartOdConfig(threshold_method="magic")

    def test_mu_floor(self):
        with pytest.raises(ValueError):
            SmartOdConfig(mu_dbscan=0)


@st.composite
def verify_scenario(draw):
    n_dets = draw(st.integers(0, 8))
    n_preds = draw(st.integers(0, 8))
    def some_box(i):
        x = draw(st.integers(0, 12)) * 8
        y = draw(st.integers(0, 12)) * 8
        return BBox(x, y, x + 20, y + 20)
    dets = [Detection(some_box(i), "object", draw(st.floats(0, 1, allow_nan=False))) for i in range(n_dets)]
    preds = [Detection(some_box(i), "object", draw(st.floats(0, 1, allow_nan=False))) for i in range(n_preds)]
    return dets, preds


class TestVerifyProperties:
    @given(verify_scenario(), st.floats(0, 1))
    @settings(max_examples=1000, deadline=None)
    def test_subset_and_idempotent(self, scenario, theta):
        dets, preds = scenario
        cfg = SmartOdConfig()
        once = verify_roi(dets, preds, theta, cfg)
        assert all(d in dets for d in once)
        assert verify_roi(once, preds, theta, cfg) == once

    @given(verify_scenario(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=1000, deadline=None)
    def test_accepted_set_shrinks_with_threshold(self, scenario, t1, t2):
        dets, preds = scenario
        cfg = SmartOdConfig()
        lo, hi = min(t1, t2), max(t1, t2)
        at_hi = verify_roi(dets, preds, hi, cfg)
        at_lo = verify_roi(dets, preds, lo, cfg)
        assert all(d in at_lo for d in at_hi)
