"""The crop-based mask kernels and the vectorized polygon kernels give exactly
what full-frame, loop-based computation gives (the oracles in helpers.py),
and production code never builds a frame-sized grid."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.ash import AshConfig, Masklet, MaskletEntry, _align_rotation, merge_redundant_frame
from vidannot.backends import (
    DetectionNoise,
    PropagationDegradation,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.chunker import ChunkerConfig
from vidannot.config import PipelineConfig
from vidannot.geometry import (
    BinaryMask,
    Polygon,
    _largest_component,
    box_overlap,
    iou_mask,
    mask_to_polygon,
    raster_box,
    rasterize_polygon,
    resample_outlines,
    shift_mask,
    union_masks,
)
from vidannot.pipeline import SequenceSource, run_dataset

from helpers import (
    dense_iou,
    dense_largest_component,
    dense_polygon,
    dense_rasterize,
    dense_runs,
    loop_align_rotation,
    loop_resample_polygon,
)


@st.composite
def grids(draw, w=None, h=None):
    """Small full-frame grids: random fill, empty, one pixel, or a rectangle
    that may touch the frame border."""
    w = draw(st.integers(1, 14)) if w is None else w
    h = draw(st.integers(1, 14)) if h is None else h
    kind = draw(st.sampled_from(["random", "empty", "pixel", "rect"]))
    g = np.zeros((h, w), dtype=bool)
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
        g[:] = np.array(bits, dtype=bool).reshape(h, w)
    elif kind == "pixel":
        g[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    elif kind == "rect":
        y0, y1 = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
        x0, x1 = sorted(draw(st.lists(st.integers(0, w - 1), min_size=2, max_size=2)))
        g[y0 : y1 + 1, x0 : x1 + 1] = True
    return g


@st.composite
def component_grids(draw):
    """Non-empty grids up to 12x12 of several components: random fill, equal
    rectangles (size ties), a ring around a hole, one-pixel lines or single
    pixels, over random noise half the time."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "rects", "ring", "lines", "pixels"]))
    g = np.zeros((h, w), dtype=bool)
    if kind == "random" or draw(st.booleans()):
        density = draw(st.sampled_from([0.2, 0.45, 0.6, 0.8]))
        bits = draw(st.lists(st.floats(0.0, 1.0), min_size=w * h, max_size=w * h))
        g[:] = np.array(bits).reshape(h, w) < density
    if kind == "rects":
        rw, rh = draw(st.integers(1, max(1, w // 2))), draw(st.integers(1, max(1, h // 2)))
        for _ in range(draw(st.integers(2, 4))):
            x, y = draw(st.integers(0, w - rw)), draw(st.integers(0, h - rh))
            g[y : y + rh, x : x + rw] = True
    elif kind == "ring" and w >= 3 and h >= 3:
        x0, x1 = sorted(draw(st.lists(st.integers(0, w - 1), min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2, unique=True)))
        g[y0 : y1 + 1, x0 : x1 + 1] = True
        g[y0 + 1 : y1, x0 + 1 : x1] = False
    elif kind == "lines":
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                g[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)) :] = True
            else:
                g[draw(st.integers(0, h - 1)) :, draw(st.integers(0, w - 1))] = True
    elif kind == "pixels":
        for _ in range(draw(st.integers(1, 6))):
            g[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    if not g.any():
        g[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    return g


@st.composite
def grid_pairs(draw):
    w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    return draw(grids(w, h)), draw(grids(w, h))


@st.composite
def polygons(draw):
    """Random polygons on a small frame, partly or wholly outside it; half the
    time on a half-pixel lattice, where ceil, floor and rint tie."""
    w, h = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    n = draw(st.integers(3, 24))
    if draw(st.booleans()):
        xs = [v / 2 for v in draw(st.lists(st.integers(-20, 2 * w + 20), min_size=n, max_size=n))]
        ys = [v / 2 for v in draw(st.lists(st.integers(-20, 2 * h + 20), min_size=n, max_size=n))]
    else:
        coord = st.floats(-15.0, 45.0, allow_nan=False)
        xs = draw(st.lists(coord, min_size=n, max_size=n))
        ys = draw(st.lists(coord, min_size=n, max_size=n))
    return Polygon(tuple(zip(xs, ys))), w, h


class TestMaskStorage:
    @given(grids())
    @settings(max_examples=1000, deadline=None)
    def test_crop_is_tight_and_round_trips(self, g):
        m = BinaryMask(g)
        assert np.array_equal(m.data, g)
        assert m.count == int(g.sum())
        if m.is_empty():
            assert m.crop.shape == (0, 0)
        else:
            crop = m.crop
            assert crop[0].any() and crop[-1].any() and crop[:, 0].any() and crop[:, -1].any()

    @given(grids())
    @settings(max_examples=1000, deadline=None)
    def test_crop_runs_match_dense_encoding_of_the_crop(self, g):
        m = BinaryMask(g)
        runs = m.crop_runs()
        assert runs == (dense_runs(m.crop) if not m.is_empty() else [])
        assert all(type(r) is int for r in runs)
        h, w = m.crop.shape
        back = BinaryMask.from_crop_runs(m.x0, m.y0, w, h, runs, m.width, m.height)
        assert back == m and np.array_equal(back.data, g)

    @pytest.mark.parametrize(
        "box, runs, error",
        [
            ((0, 0, 2, 2), [1, 2], ValueError),  # 3 pixels for a 2x2 crop
            ((0, 0, 2, 2), [5, -1], ValueError),
            ((0, 0, 2, 2), [0, 4.0], TypeError),
            ((0.0, 0, 2, 2), [0, 4], TypeError),
            ((3, 0, 2, 2), [0, 4], ValueError),  # leaves the 4x4 frame
            ((0, 0, -2, -2), [0, 4], ValueError),
            ((0, 0, 10**6, 10**6), [10**12], ValueError),
        ],
    )
    def test_from_crop_runs_rejects_bad_input(self, box, runs, error):
        with pytest.raises(error):
            BinaryMask.from_crop_runs(*box, runs, 4, 4)

    @given(grids(), st.integers(-16, 16), st.integers(-16, 16))
    @settings(max_examples=1000, deadline=None)
    def test_shift_matches_dense_shift(self, g, dx, dy):
        h, w = g.shape
        expected = np.zeros_like(g)
        ys, xs = np.nonzero(g)
        ok = (xs + dx >= 0) & (xs + dx < w) & (ys + dy >= 0) & (ys + dy < h)
        expected[ys[ok] + dy, xs[ok] + dx] = True
        assert np.array_equal(shift_mask(BinaryMask(g), dx, dy).data, expected)

    def test_from_crop_rejects_a_crop_outside_the_frame(self):
        with pytest.raises(ValueError):
            BinaryMask.from_crop(np.ones((2, 2), dtype=bool), 3, 0, 4, 4)

    def test_zeros_holds_no_frame(self):
        m = BinaryMask.zeros(1280, 720)
        arrays = [getattr(m, s) for s in BinaryMask.__slots__]
        assert all(a.size == 0 for a in arrays if isinstance(a, np.ndarray))
        assert (m.width, m.height, m.count) == (1280, 720, 0)


class TestKernelsMatchDenseOracles:
    @given(grid_pairs())
    @settings(max_examples=1000, deadline=None)
    def test_iou(self, pair):
        a, b = pair
        assert iou_mask(BinaryMask(a), BinaryMask(b)) == dense_iou(a, b)

    @given(grid_pairs())
    @settings(max_examples=1000, deadline=None)
    def test_union(self, pair):
        a, b = pair
        assert np.array_equal(union_masks([BinaryMask(a), BinaryMask(b)]).data, a | b)

    @given(grids(), st.integers(0, 3))
    @settings(max_examples=1000, deadline=None)
    def test_contour(self, g, min_pixels):
        # The oracle's pixel floor changes no outline up to 3.
        assert mask_to_polygon(BinaryMask(g)) == dense_polygon(g, min_pixels)

    @given(component_grids())
    @settings(max_examples=2000, deadline=None)
    def test_largest_component(self, g):
        assert np.array_equal(_largest_component(g), dense_largest_component(g))

    @pytest.mark.parametrize(
        "rows",
        [
            ["#.#"],  # single pixels of equal size: the first wins
            ["#..", "..#"],  # diagonal neighbours are apart
            ["##.", "...", ".##"],  # equal pairs, the first on top
            [".##", "...", "##."],
            ["#.##", "#..#", "####"],  # one component around a notch
            ["#####", "#...#", "#.#.#", "#...#", "#####"],  # an island in a hole
            ["#.", ".#", "##"],  # a lone pixel, then a larger L below
            ["..#", "...", "###"],
        ],
    )
    def test_largest_component_cases(self, rows):
        g = np.array([[c == "#" for c in row] for row in rows])
        assert np.array_equal(_largest_component(g), dense_largest_component(g))

    @given(polygons())
    @settings(max_examples=1000, deadline=None)
    def test_rasterize(self, case):
        p, w, h = case
        raster = rasterize_polygon(p, w, h)
        assert np.array_equal(raster.data, dense_rasterize(p, w, h))
        if not raster.is_empty():
            assert box_overlap(raster.crop_box, raster_box(p, w, h)) == raster.crop_box

    @given(polygons(), st.lists(st.integers(0, 23), max_size=6), st.integers(3, 80))
    @settings(max_examples=1000, deadline=None)
    def test_resample(self, case, repeats, n):
        # Repeated vertices give zero-length edges.
        p = case[0]
        vertices = list(p.vertices)
        for i in repeats:
            k = i % len(vertices)
            vertices.insert(k, vertices[k])
        p = Polygon(tuple(vertices))
        try:
            expected = loop_resample_polygon(p, n)
        except ValueError:
            with pytest.raises(ValueError):
                resample_outlines([p], n)
            return
        assert resample_outlines([p], n)[0].tolist() == expected.vertices.tolist()

    def test_rasterize_far_outside_the_frame(self):
        p = Polygon(((-50.0, -50.0), (-40.0, -50.0), (-45.0, -40.0)))
        assert rasterize_polygon(p, 8, 8).is_empty()
        assert not dense_rasterize(p, 8, 8).any()

    @given(
        st.integers(3, 40),
        st.integers(0, 39),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=1000, deadline=None)
    def test_align_rotation_near_ties(self, n, shift, eps, seed):
        # A regular polygon matches itself under every rotation up to rounding,
        # so the costs tie or nearly tie; the first minimum must win.
        k = np.arange(n)
        angle = 2 * math.pi * k / n
        prev = np.stack([10 + 5 * np.cos(angle), 7 + 5 * np.sin(angle)], 1)
        noise = np.random.default_rng(seed).normal(0.0, eps, size=prev.shape)
        cur = np.roll(prev, shift % n, axis=0) + noise
        assert np.array_equal(_align_rotation(cur, prev), loop_align_rotation(cur, prev))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=12))
    @settings(max_examples=1000, deadline=None)
    def test_align_rotation_exact_ties(self, pts):
        # Lattice points repeat, so whole rotations cost exactly the same.
        cur = np.asarray(pts, dtype=float)
        prev = np.roll(cur[::-1], 1, axis=0)
        assert np.array_equal(_align_rotation(cur, prev), loop_align_rotation(cur, prev))



def _drawn(shape: tuple[int, int], *boxes: tuple[int, int, int, int], holes=()) -> np.ndarray:
    """A frame with the end-exclusive boxes (x0, y0, x1, y1) set, then the
    `holes` boxes cleared."""
    g = np.zeros(shape, dtype=bool)
    for value, group in ((True, boxes), (False, holes)):
        for x0, y0, x1, y1 in group:
            g[y0:y1, x0:x1] = value
    return g


def _world_masks(axes: tuple[float, float], frame: int) -> list[np.ndarray]:
    world = generate_synthetic_sequence(
        SyntheticWorldConfig(
            frame_width=320, frame_height=240, num_objects=4, num_frames=40,
            ellipse_axes=axes, rng_seed=7, occlusion_enabled=True,
        )
    )
    return [obj.mask.data for obj in world[frame].objects]


# Outlines at the sizes the workloads trace, up to the hd world's 80x56
# ellipses, and the shapes where the trace turns back on itself.
REALISTIC_OUTLINES = {
    **{
        f"world-axes{axes[0]}x{axes[1]}-frame{frame}": (axes, frame)
        for axes in ((40, 28), (11, 8))
        for frame in (0, 13, 26, 39)
    },
    "rectangle-80x56": _drawn((70, 100), (10, 7, 90, 63)),
    "ring-with-a-hole": _drawn((40, 60), (5, 4, 50, 33), holes=[(15, 10, 38, 25)]),
    "line-1px-horizontal": _drawn((20, 40), (3, 6, 35, 7)),
    "line-1px-vertical": _drawn((40, 20), (6, 3, 7, 35)),
    "l-shape-1px": _drawn((30, 30), (4, 3, 5, 25), (4, 24, 26, 25)),
    "spur-1px": _drawn((40, 60), (5, 5, 30, 30), (30, 15, 52, 16)),
    "t-junction-1px": _drawn((20, 20), (3, 5, 13, 6), (4, 6, 5, 13)),
    "blocks-touching-diagonally": _drawn((40, 40), (2, 2, 10, 10), (10, 10, 30, 30)),
    "equal-blocks-tie": _drawn((40, 40), (20, 3, 30, 13), (3, 20, 13, 30)),
    "single-pixel": _drawn((10, 10), (4, 4, 5, 5)),
    "two-pixel-line": _drawn((10, 10), (4, 4, 6, 5)),
    "three-pixel-vertical-line": _drawn((10, 10), (4, 4, 5, 7)),
}


class TestContourAtRealisticSizes:
    @pytest.mark.parametrize("min_pixels", [1, 3])
    @pytest.mark.parametrize("case", REALISTIC_OUTLINES)
    def test_contour_matches_dense_oracle(self, case, min_pixels):
        shape = REALISTIC_OUTLINES[case]
        grids = _world_masks(*shape) if isinstance(shape, tuple) else [shape]
        assert grids
        for g in grids:
            assert mask_to_polygon(BinaryMask(g)) == dense_polygon(g, min_pixels)


@pytest.fixture
def no_frame_grids(monkeypatch):
    def forbidden(self):
        raise AssertionError("a frame-sized mask grid was built")

    monkeypatch.setattr(BinaryMask, "data", property(forbidden))


def test_pipeline_never_builds_a_frame(no_frame_grids, tmp_path):
    """World generation, drifting propagation, tracking in both modes,
    smoothing, merging, checkpoint save and resume, the writers and QA all
    stay on crops."""
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(
            frame_width=1280,
            frame_height=720,
            num_objects=4,
            num_frames=14,
            ellipse_axes=(40.0, 28.0),
            velocities=((6.0, 0.0), (-6.0, 0.0), (0.0, 5.0), (4.0, -4.0)),
            rng_seed=3,
        )
    )
    propagator = SyntheticPropagator(gt, PropagationDegradation(drift_px_per_frame=(0.5, 0.0)))
    source = SequenceSource("hd", gt, SyntheticDetector(gt, DetectionNoise()), propagator)
    cfg = PipelineConfig(
        ash=AshConfig(alpha=0.2), chunker=ChunkerConfig(chi=6, omega=2, checkpoint_interval=4)
    )
    for mode in ("full", "chunk"):
        for resume in (False, True):
            report = run_dataset(
                {"hd": source}, cfg.smart_od, cfg, tmp_path / mode,
                checkpoint_dir=tmp_path / f"ckpt-{mode}", mode=mode, resume=resume,
            )
            outcome = report.outcomes["hd"]
            assert outcome.error is None
            assert outcome.qa > 0.5
    # The oracle scene has no duplicate segments, so merge one explicitly.
    mask = gt[0].objects[0].mask
    twins = [Masklet(i, "object", {0: MaskletEntry(mask, None, 0.9)}) for i in (0, 1)]
    (merged,) = merge_redundant_frame(twins, 0, 0.3)
    assert merged.entries[0].mask == mask
