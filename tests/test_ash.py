from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidannot.ash
from vidannot.ash import (
    AshConfig,
    Masklet,
    MaskletEntry,
    PropagationError,
    merge_redundant_frame,
    postprocess_masklets,
    propagate_batch,
    remove_trailing_empty,
    smooth_polygons,
)
from vidannot.assoc import NewObject
from vidannot.backends import (
    Detection,
    DetectionNoise,
    PropagationDegradation,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.config import PipelineConfig
from vidannot.geometry import (
    BBox,
    BinaryMask,
    Polygon,
    box_overlap,
    iou_mask,
    mask_to_polygon,
    polygon_to_bbox,
    rasterize_polygon,
)
from vidannot.pipeline import SequenceSource, run_dataset

from helpers import eager_merge_redundant_frame, rect_mask


FRAME_SIZE = (SyntheticWorldConfig().frame_width, SyntheticWorldConfig().frame_height)


def world(n=2, frames=10, vel=None, seed=1):
    vel = vel if vel is not None else tuple((0.4, 0.2) for _ in range(n))
    return generate_synthetic_sequence(
        SyntheticWorldConfig(
            num_objects=n,
            num_frames=frames,
            velocities=vel,
            rng_seed=seed,
            occlusion_enabled=False,
        )
    )


def new_obj(gt, identity, frame=0, conf=0.9):
    return NewObject(identity, Detection(gt[frame].objects[identity].box, "object", conf), frame)


def rect_masklet(object_id, frames_and_boxes, w=20, h=20, conf=0.9):
    m = Masklet(object_id, "object")
    for f, (x1, y1, x2, y2) in frames_and_boxes:
        mask = rect_mask(x1, y1, x2, y2, w, h)
        poly = mask_to_polygon(mask)
        m.add_entry(f, MaskletEntry(mask, poly, conf))
    return m


class TestPropagateBatch:
    def test_static_object_identical_entries(self):
        gt = world(n=1, frames=5, vel=((0, 0),))
        prop = SyntheticPropagator(gt)
        (m,) = propagate_batch([new_obj(gt, 0)], range(5), prop, FRAME_SIZE)
        assert m.frames() == [0, 1, 2, 3, 4]
        for f in m.frames():
            assert m.entries[f].mask == gt[0].objects[0].mask

    def test_object_leaving_frame_empty_tail(self):
        gt = world(n=1, frames=30, vel=((10.0, 0.0),), seed=0)
        assert gt[-1].objects[0].mask.is_empty()  # object exits the frame
        prop = SyntheticPropagator(gt)
        (m,) = propagate_batch([new_obj(gt, 0)], range(30), prop, FRAME_SIZE)
        empties = [f for f in m.frames() if m.entries[f].mask.is_empty()]
        assert empties and empties[-1] == 29  # pre-pruning: entries still there

    def test_drift_shifts_boxes(self):
        gt = world(n=1, frames=8, vel=((0, 0),))
        prop = SyntheticPropagator(gt, PropagationDegradation(drift_px_per_frame=(1.0, 0.0)))
        (m,) = propagate_batch([new_obj(gt, 0)], range(8), prop, FRAME_SIZE)
        x0 = m.entries[0].bbox.x1
        assert m.entries[7].bbox.x1 - x0 == 7

    def test_failure_names_the_object(self):
        class BreaksOnSecond:
            calls = 0

            def propagate(self, box, start, frames):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("out of memory")
                return [BinaryMask.zeros(20, 20) for _ in frames]

        gt = world(n=2, frames=3)
        new_objects = [new_obj(gt, 0), new_obj(gt, 1)]
        with pytest.raises(PropagationError, match="failed for object 1: out of memory"):
            propagate_batch(new_objects, range(3), BreaksOnSecond(), (20, 20))

    @pytest.mark.parametrize(
        "masks,fault",
        [
            (lambda n: [BinaryMask.zeros(20, 20)] * (n + 1), "gave 4 masks for the 3 frames 0..2"),
            (lambda n: ["mask"] * n, "gave a str at frame 0, not a BinaryMask"),
        ],
        ids=["one-too-many", "not-a-mask"],
    )
    def test_contract_violation_names_object_and_frame(self, masks, fault):
        class Hostile:
            def propagate(self, box, start, frames):
                return masks(len(frames))

        gt = world(n=1, frames=3)
        with pytest.raises(PropagationError, match=f"object 0 {fault}"):
            propagate_batch([new_obj(gt, 0)], range(3), Hostile(), (20, 20))


@st.composite
def sparse_masks(draw):
    """Masks on frames up to 12x12 whose pixels are set with a drawn
    probability, so empty, one- and two-pixel masks are common."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9]))
    seed = draw(st.integers(0, 2**16))
    return BinaryMask(np.random.default_rng(seed).random((h, w)) < density)


class TestLazyOutline:
    @given(sparse_masks())
    @settings(max_examples=1000, deadline=None)
    def test_mask_built_entry_reports_its_traced_outline(self, mask):
        entry = MaskletEntry.from_mask(mask, 0.7)
        polygon = mask_to_polygon(mask)
        assert entry.polygon == polygon
        assert entry.bbox == (polygon_to_bbox(polygon) if polygon is not None else None)
        assert entry.polygon is entry.polygon

    def test_traced_once_on_first_read(self, monkeypatch):
        calls = []
        real = vidannot.ash.mask_to_polygon

        def counted(m, **kw):
            calls.append(m)
            return real(m, **kw)

        monkeypatch.setattr(vidannot.ash, "mask_to_polygon", counted)
        mask = rect_mask(2, 3, 9, 7, 20, 20)
        entry = MaskletEntry.from_mask(mask, 0.9)
        assert calls == []
        assert entry.bbox == BBox(2, 3, 9, 7)
        assert entry.polygon == mask_to_polygon(mask)
        assert calls == [mask]

    def test_explicit_outline_is_kept(self, monkeypatch):
        def forbidden(*_, **__):
            raise AssertionError("an explicit outline was traced again")

        monkeypatch.setattr(vidannot.ash, "mask_to_polygon", forbidden)
        mask = rect_mask(2, 3, 9, 7, 20, 20)
        none = MaskletEntry(mask, None, 0.9)
        assert none.polygon is None and none.bbox is None
        square = mask_to_polygon(rect_mask(0, 0, 4, 4, 20, 20))
        kept = MaskletEntry(mask, square, 0.9)
        assert kept.polygon is square and kept.bbox == BBox(0, 0, 4, 4)


@st.composite
def smoothed_masklets(draw):
    """A masklet of sparse masks on consecutive frames of one small frame
    size, smoothed at a drawn alpha."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = Masklet(0, "object")
    for f in range(draw(st.integers(1, 4))):
        m.add_entry(f, MaskletEntry.from_mask(BinaryMask(rng.random((h, w)) < density), 0.8))
    alpha = draw(st.sampled_from([0.2, 0.5, 0.9]))
    return smooth_polygons(m, alpha, draw(st.integers(3, 24))), w, h


class TestLazyRaster:
    @given(smoothed_masklets())
    @settings(max_examples=1000, deadline=None)
    def test_smoothed_entry_reports_the_raster_of_its_outline(self, case):
        m, w, h = case
        for entry in m.entries.values():
            if entry.polygon is None:
                continue
            box = entry.pixel_box()
            assert entry.frame_size == (w, h)
            assert entry.mask == rasterize_polygon(entry.polygon, w, h)
            assert entry.mask is entry.mask
            if not entry.mask.is_empty():
                assert box_overlap(entry.mask.crop_box, box) == entry.mask.crop_box

    def test_rasterized_once_on_first_read(self, monkeypatch):
        calls = []
        real = vidannot.ash.rasterize_polygon

        def counted(p, width, height):
            calls.append((p, width, height))
            return real(p, width, height)

        monkeypatch.setattr(vidannot.ash, "rasterize_polygon", counted)
        square = mask_to_polygon(rect_mask(2, 3, 9, 7, 20, 20))
        entry = MaskletEntry.from_outline(square, (20, 16), 0.9)
        assert entry.polygon is square and entry.bbox == BBox(2, 3, 9, 7)
        assert entry.pixel_box() == (1, 2, 11, 9)
        assert calls == []
        assert entry.mask == rect_mask(2, 3, 9, 7, 20, 16)
        assert entry.mask.count == 40
        assert calls == [(square, 20, 16)]
        assert entry.pixel_box() == (2, 3, 10, 8)

    def test_explicit_mask_is_never_rasterized_again(self, monkeypatch):
        def forbidden(*_, **__):
            raise AssertionError("an explicit mask was rasterized again")

        monkeypatch.setattr(vidannot.ash, "rasterize_polygon", forbidden)
        mask = rect_mask(2, 3, 9, 7, 20, 20)
        for entry in (
            MaskletEntry(mask, mask_to_polygon(mask), 0.9),
            MaskletEntry(mask, None, 0.9),
            MaskletEntry.from_mask(mask, 0.9),
        ):
            assert entry.pixel_box() == (2, 3, 10, 8)
            assert entry.mask is mask and entry.mask is mask

    def test_outline_outside_the_frame_can_have_a_box_and_no_pixel(self):
        # Every vertex lies between the pixel centres x = -1 and x = 0.
        sliver = Polygon(((-1.4, 1.0), (-0.6, 2.0), (-1.0, 5.5)))
        entry = MaskletEntry.from_outline(sliver, (8, 8), 0.9)
        assert entry.pixel_box() == (0, 0, 2, 8)
        assert entry.mask.is_empty()
        assert entry.pixel_box() is None

    def test_a_run_rasterizes_only_the_masks_it_reads_each_once(self, tmp_path, monkeypatch):
        # Merging reads a smoothed mask only for pairs whose boxes meet, and
        # QA only on its sampled frames; the writer reads outlines alone.
        gt = generate_synthetic_sequence(
            SyntheticWorldConfig(num_objects=3, num_frames=30, rng_seed=4)
        )
        source = SequenceSource(
            "s", gt, SyntheticDetector(gt, DetectionNoise()), SyntheticPropagator(gt)
        )
        cfg = PipelineConfig(ash=AshConfig(alpha=0.2))
        smoothed = []
        real_smooth = vidannot.ash.smooth_polygons

        def smooth(*args, **kwargs):
            out = real_smooth(*args, **kwargs)
            smoothed.extend(e for e in out.entries.values() if e.polygon is not None)
            return out

        reading: list[MaskletEntry] = []
        real_mask = MaskletEntry.__dict__["mask"]

        def read_mask(entry):
            reading.append(entry)
            try:
                return real_mask.__get__(entry, MaskletEntry)
            finally:
                reading.pop()

        rasterized = []
        real_raster = vidannot.ash.rasterize_polygon

        def raster(p, width, height):
            assert reading, "an outline was rasterized with no mask being read"
            assert reading[-1].polygon is p
            rasterized.append(reading[-1])
            return real_raster(p, width, height)

        monkeypatch.setattr(vidannot.ash, "smooth_polygons", smooth)
        monkeypatch.setattr(MaskletEntry, "mask", property(read_mask, real_mask.__set__))
        monkeypatch.setattr(vidannot.ash, "rasterize_polygon", raster)
        report = run_dataset({"s": source}, cfg.smart_od, cfg, tmp_path, mode="full")
        assert report.failures == []
        assert smoothed and rasterized
        assert len({id(e) for e in rasterized}) == len(rasterized) < len(smoothed)
        assert {id(e) for e in rasterized} <= {id(e) for e in smoothed}


@st.composite
def merge_inputs(draw):
    """Masklets with one entry each at frame 0, and some at frame 1, on a
    small frame: outlines on a half-pixel lattice (so boxes touch and abut),
    free-form outlines partly or wholly outside the frame, slivers left of
    the frame whose box is not empty though their raster is, and plain
    masks, empty ones included."""
    w, h = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    frames = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["lattice", "free", "sliver", "mask"]))
        if kind == "mask":
            density = draw(st.sampled_from([0.0, 0.3, 1.0]))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            frames.append(BinaryMask(rng.random((h, w)) < density))
            continue
        n = draw(st.integers(3, 6))
        if kind == "lattice":
            x = st.integers(-6, 2 * w + 6).map(lambda k: k / 2)
            y = st.integers(-6, 2 * h + 6).map(lambda k: k / 2)
        elif kind == "free":
            x = st.floats(-6.0, w + 6.0, allow_nan=False)
            y = st.floats(-6.0, h + 6.0, allow_nan=False)
        else:
            x = st.floats(-1.45, -0.55, allow_nan=False)
            y = st.floats(-1.0, h + 1.0, allow_nan=False)
        vertices = draw(st.lists(st.tuples(x, y), min_size=n, max_size=n))
        if kind == "lattice" and draw(st.booleans()):
            (x0, y0), (x1, y1) = vertices[:2]
            vertices = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]  # a box outline
        frames.append(Polygon(vertices))
    ids = draw(st.permutations(range(len(frames))))
    later = draw(st.lists(st.booleans(), min_size=len(frames), max_size=len(frames)))
    return w, h, list(zip(ids, frames, later)), draw(st.sampled_from([0.05, 0.3, 0.7]))


def merge_masklets(w, h, spec, lazy):
    masklets = []
    for object_id, outline, later in spec:
        m = Masklet(object_id, "object")
        if isinstance(outline, BinaryMask):
            m.add_entry(0, MaskletEntry.from_mask(outline, 0.5))
        elif lazy:
            m.add_entry(0, MaskletEntry.from_outline(outline, (w, h), 0.5))
        else:
            m.add_entry(0, MaskletEntry(rasterize_polygon(outline, w, h), outline, 0.5))
        if later:
            m.add_entry(1, MaskletEntry.from_mask(rect_mask(0, 0, 0, 0, w, h), 0.5))
        masklets.append(m)
    return masklets


class TestLazyMergeEqualsEager:
    @given(merge_inputs())
    @settings(max_examples=1000, deadline=None)
    def test_merge_on_lazy_entries_matches_the_eager_merge(self, case):
        w, h, spec, tau = case
        got = merge_redundant_frame(merge_masklets(w, h, spec, lazy=True), 0, tau)
        want = eager_merge_redundant_frame(merge_masklets(w, h, spec, lazy=False), 0, tau)
        assert [m.object_id for m in got] == [m.object_id for m in want]
        for a, b in zip(got, want):
            assert a.frames() == b.frames()
            for f in a.frames():
                ea, eb = a.entries[f], b.entries[f]
                assert ea.mask == eb.mask
                assert ea.polygon == eb.polygon
                assert ea.confidence == eb.confidence


class TestRemoveTrailingEmpty:
    def test_trailing_removed(self):
        m = rect_masklet(0, [(f, (2, 2, 8, 8)) for f in range(5)])
        for f in range(5, 10):
            m.add_entry(f, MaskletEntry(BinaryMask.zeros(20, 20), None, 0.9))
        out = remove_trailing_empty(m, 3)
        assert out.frames() == [0, 1, 2, 3, 4]

    def test_all_valid_unchanged(self):
        m = rect_masklet(0, [(f, (2, 2, 8, 8)) for f in range(5)])
        assert remove_trailing_empty(m, 3).frames() == m.frames()

    def test_epsilon_boundary(self):
        # frames 0-6 hold 49 px, frame 7 holds 2 px: 2 > 3 is false, so the
        # terminus is 6 and frame 7 goes.
        m = rect_masklet(0, [(f, (2, 2, 8, 8)) for f in range(7)])
        g = np.zeros((20, 20), dtype=bool)
        g[0, 0] = g[0, 1] = True
        m.add_entry(7, MaskletEntry(BinaryMask(g), None, 0.9))
        out = remove_trailing_empty(m, 3)
        assert out.frames() == list(range(7))

    def test_entirely_below_floor_dropped(self):
        m = Masklet(0, "object")
        m.add_entry(0, MaskletEntry(BinaryMask.zeros(10, 10), None, 0.5))
        assert remove_trailing_empty(m, 3) is None


class TestSmoothPolygons:
    def test_alpha_one_identity(self):
        m = rect_masklet(0, [(f, (2 + f, 2, 8 + f, 8)) for f in range(4)])
        out = smooth_polygons(m, 1.0, 64)
        for f in m.frames():
            assert out.entries[f].polygon == m.entries[f].polygon

    def test_constant_sequence_fixed_point(self):
        m = rect_masklet(0, [(f, (2, 2, 8, 8)) for f in range(5)])
        out = smooth_polygons(m, 0.2, 32)
        first = np.asarray(out.entries[0].polygon.vertices)
        for f in out.frames():
            assert np.allclose(np.asarray(out.entries[f].polygon.vertices), first)
            assert out.entries[f].mask == m.entries[f].mask

    def test_offset_square_blended(self):
        # identical squares at x-offset 0 then 10; alpha 0.2 puts the second
        # smoothed square at offset 0.2 * 10 = 2.
        m = rect_masklet(0, [(0, (0, 0, 7, 7)), (1, (10, 0, 17, 7))], w=30, h=10)
        out = smooth_polygons(m, 0.2, 16)
        xs0 = [x for x, _ in out.entries[0].polygon.vertices]
        xs1 = [x for x, _ in out.entries[1].polygon.vertices]
        assert min(xs1) - min(xs0) == pytest.approx(2.0)
        assert max(xs1) - max(xs0) == pytest.approx(2.0)

    def test_gap_resets_recursion(self):
        m = rect_masklet(0, [(0, (0, 0, 7, 7)), (5, (10, 0, 17, 7))], w=30, h=10)
        out = smooth_polygons(m, 0.2, 16)
        xs = [x for x, _ in out.entries[5].polygon.vertices]
        assert min(xs) == pytest.approx(10.0)  # not blended across the gap

    def test_vertex_count_preserved(self):
        m = rect_masklet(0, [(f, (2 + f, 2, 8 + f, 8)) for f in range(4)])
        out = smooth_polygons(m, 0.3, 24)
        for f in out.frames():
            assert len(out.entries[f].polygon.vertices) == 24


class TestMergeRedundant:
    def test_high_overlap_merges_into_lower_id(self):
        a = rect_masklet(0, [(0, (2, 2, 10, 10))])
        b = rect_masklet(5, [(0, (2, 2, 10, 9))])  # IoU 8/9 > 0.3
        out = merge_redundant_frame([a, b], 0, 0.3)
        assert [m.object_id for m in out] == [0]
        assert out[0].entries[0].mask.count == 81  # union

    def test_low_overlap_keeps_both(self):
        a = rect_masklet(0, [(0, (0, 0, 5, 5))])
        b = rect_masklet(1, [(0, (5, 5, 10, 10))])  # IoU 1/71 < 0.3
        out = merge_redundant_frame([a, b], 0, 0.3)
        assert sorted(m.object_id for m in out) == [0, 1]

    def test_transitive_collapse(self):
        # a-b and b-c overlap above threshold; all three collapse to id 0.
        a = rect_masklet(0, [(0, (0, 0, 9, 9))])
        b = rect_masklet(1, [(0, (3, 0, 12, 9))])
        c = rect_masklet(2, [(0, (6, 0, 15, 9))])
        out = merge_redundant_frame([a, b, c], 0, 0.3)
        assert [m.object_id for m in out] == [0]
        assert out[0].entries[0].mask.count == 160

    def test_pairwise_iou_below_threshold_after(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            masklets = []
            for i in range(4):
                x = int(rng.integers(0, 8))
                y = int(rng.integers(0, 8))
                masklets.append(rect_masklet(i, [(0, (x, y, x + 7, y + 7))]))
            out = merge_redundant_frame(masklets, 0, 0.3)
            present = [m for m in out if 0 in m.entries]
            for i in range(len(present)):
                for j in range(i + 1, len(present)):
                    v = iou_mask(present[i].entries[0].mask, present[j].entries[0].mask)
                    assert v <= 0.3


def run_ash(new_objects_by_frame, frames, propagator, cfg, postprocess=True):
    """Propagate each frame's new objects to the end of the span, then refine:
    the production sequence without association."""
    frames = list(frames)
    masklets = []
    for t in sorted(new_objects_by_frame):
        remaining = [f for f in frames if f >= t]
        masklets.extend(
            propagate_batch(new_objects_by_frame[t], remaining, propagator, FRAME_SIZE)
        )
    if postprocess:
        masklets = postprocess_masklets(masklets, frames, cfg)
    return masklets


class TestRunAsh:
    def test_oracle_equivalence(self):
        gt = world(n=3, frames=12, vel=((0.4, 0.1), (-0.3, 0.2), (0.2, -0.3)), seed=4)
        prop = SyntheticPropagator(gt)
        new_objects = {0: [new_obj(gt, i) for i in range(3)]}
        out = run_ash(new_objects, range(12), prop, AshConfig(alpha=1.0))
        assert sorted(m.object_id for m in out) == [0, 1, 2]
        for m in out:
            for f in m.frames():
                assert iou_mask(m.entries[f].mask, gt[f].objects[m.object_id].mask) >= 0.99

    def test_duplicate_detection_merged(self):
        gt = world(n=1, frames=6, vel=((0, 0),), seed=5)
        prop = SyntheticPropagator(gt)
        dup = {
            0: [
                new_obj(gt, 0),
                NewObject(1, Detection(gt[0].objects[0].box, "object", 0.8), 0),
            ]
        }
        out = run_ash(dup, range(6), prop, AshConfig(alpha=1.0))
        assert [m.object_id for m in out] == [0]

    def test_empty_scene(self):
        gt = world(n=1, frames=4)
        assert run_ash({}, range(4), SyntheticPropagator(gt), AshConfig()) == []

    def test_postprocess_never_adds_entries(self):
        gt = world(n=3, frames=10, vel=((0.5, 0.1), (-0.4, 0.0), (0.0, 0.5)), seed=6)
        prop = SyntheticPropagator(gt, PropagationDegradation(dropout_rate=0.2, rng_seed=1))
        new_objects = {0: [new_obj(gt, i) for i in range(3)]}
        raw = run_ash(new_objects, range(10), prop, AshConfig(), postprocess=False)
        cooked = run_ash(new_objects, range(10), prop, AshConfig())
        assert sum(len(m.entries) for m in cooked) <= sum(len(m.entries) for m in raw)

    def test_frame_range_within_detection_and_terminus(self):
        gt = world(n=2, frames=15, vel=((0.3, 0.0), (0.0, 0.3)), seed=7)
        prop = SyntheticPropagator(gt)
        new_objects = {
            0: [new_obj(gt, 0)],
            4: [NewObject(1, Detection(gt[4].objects[1].box, "object", 0.9), 4)],
        }
        out = run_ash(new_objects, range(15), prop, AshConfig(alpha=1.0))
        spans = {m.object_id: (min(m.frames()), max(m.frames())) for m in out}
        assert spans[0][0] == 0
        assert spans[1][0] == 4
        assert spans[1][1] <= 14


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AshConfig(alpha=1.5)
        with pytest.raises(ValueError):
            AshConfig(tau_merge=0.0)
        with pytest.raises(ValueError):
            AshConfig(epsilon_mask=0)


@st.composite
def random_masklets(draw, max_objects=4, max_frames=6, grid=20):
    masklets = []
    n = draw(st.integers(1, max_objects))
    for oid in range(n):
        frames = draw(st.lists(st.integers(0, max_frames - 1), min_size=1, max_size=max_frames, unique=True))
        m = Masklet(oid, "object")
        for f in sorted(frames):
            if draw(st.booleans()):
                x = draw(st.integers(0, grid - 9))
                y = draw(st.integers(0, grid - 9))
                mask = rect_mask(x, y, x + 8, y + 8, grid, grid)
                poly = mask_to_polygon(mask)
                m.add_entry(f, MaskletEntry(mask, poly, 0.9))
            else:
                m.add_entry(f, MaskletEntry(BinaryMask.zeros(grid, grid), None, 0.9))
        masklets.append(m)
    return masklets


class TestPostprocessProperties:
    @given(random_masklets(), st.floats(0.1, 1.0), st.floats(0.05, 0.95))
    @settings(max_examples=1000, deadline=None)
    def test_never_increases_entry_count(self, masklets, alpha, tau):
        before = sum(len(m.entries) for m in masklets)
        cfg = AshConfig(alpha=alpha, tau_merge=tau, resample_n=16)
        out = postprocess_masklets(masklets, range(6), cfg)
        assert sum(len(m.entries) for m in out) <= before

    @given(random_masklets())
    @settings(max_examples=1000, deadline=None)
    def test_smoothing_identity_at_alpha_one_and_vertex_count(self, masklets):
        for m in masklets:
            ident = smooth_polygons(m, 1.0, 16)
            assert all(
                ident.entries[f].polygon == m.entries[f].polygon for f in m.frames()
            )
            smoothed = smooth_polygons(m, 0.4, 16)
            for f in smoothed.frames():
                p = smoothed.entries[f].polygon
                if p is not None:
                    assert len(p.vertices) == 16

    @given(random_masklets(), st.floats(0.1, 0.9))
    @settings(max_examples=1000, deadline=None)
    def test_merge_leaves_no_pair_above_threshold(self, masklets, tau):
        out = merge_redundant_frame(masklets, 0, tau)
        present = [m for m in out if 0 in m.entries and not m.entries[0].mask.is_empty()]
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                assert iou_mask(present[i].entries[0].mask, present[j].entries[0].mask) <= tau

    @given(random_masklets(), st.integers(1, 8))
    @settings(max_examples=1000, deadline=None)
    def test_pruning_never_extends_ranges(self, masklets, epsilon):
        for m in masklets:
            out = remove_trailing_empty(m, epsilon)
            if out is None:
                continue
            assert min(out.frames()) >= min(m.frames())
            assert max(out.frames()) <= max(m.frames())
            assert out.entries[max(out.frames())].mask.count > epsilon
