from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.geometry import (
    BBox,
    BinaryMask,
    Polygon,
    iou_box,
    iou_mask,
    mask_to_polygon,
    polygon_to_bbox,
    rasterize_polygon,
    resample_outlines,
    shift_mask,
)

from helpers import ellipse_mask, perimeter, rect_mask


class TestBBox:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, float("nan"), 10)

    def test_iou_identity(self):
        assert iou_box(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0

    def test_iou_disjoint(self):
        assert iou_box(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_iou_hand_computed(self):
        # intersection 50, union 150
        assert iou_box(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(
            1 / 3, abs=1e-6
        )

    def test_zero_area_union(self):
        assert iou_box(BBox(1, 1, 1, 1), BBox(2, 2, 2, 2)) == 0.0


class TestMaskIoU:
    def test_identical(self):
        m = rect_mask(1, 1, 5, 5, 10, 10)
        assert iou_mask(m, m) == 1.0

    def test_disjoint(self):
        a = rect_mask(0, 0, 2, 2, 10, 10)
        b = rect_mask(5, 5, 8, 8, 10, 10)
        assert iou_mask(a, b) == 0.0

    def test_hand_counted(self):
        # left 6 columns vs right 6 columns of a 10x10 grid: overlap 2 cols
        a = rect_mask(0, 0, 5, 9, 10, 10)
        b = rect_mask(4, 0, 9, 9, 10, 10)
        assert iou_mask(a, b) == pytest.approx(20 / 100)

    def test_both_empty(self):
        assert iou_mask(BinaryMask.zeros(4, 4), BinaryMask.zeros(4, 4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            iou_mask(BinaryMask.zeros(4, 4), BinaryMask.zeros(5, 4))


class TestMaskToPolygon:
    def test_full_square(self):
        p = mask_to_polygon(BinaryMask(np.ones((4, 4), dtype=bool)))
        assert p.vertices.tolist() == [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]

    def test_empty(self):
        assert mask_to_polygon(BinaryMask.zeros(4, 4)) is None

    def test_two_pixels_have_no_outline(self):
        g = np.zeros((5, 5), dtype=bool)
        g[2, 2] = True
        g[2, 3] = True
        assert mask_to_polygon(BinaryMask(g)) is None

    def test_l_shape_hand_traced(self):
        # Columns 0-1 full height plus rows 3-4 full width on a 5x5 grid.
        # Hand trace: the reflex corner is cut by one diagonal step, giving
        # seven direction changes.
        g = np.zeros((5, 5), dtype=bool)
        g[:, 0:2] = True
        g[3:5, :] = True
        p = mask_to_polygon(BinaryMask(g))
        assert p.vertices.tolist() == [
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 2.0],
            [2.0, 3.0],
            [4.0, 3.0],
            [4.0, 4.0],
            [0.0, 4.0],
        ]

    def test_largest_component_wins(self):
        g = np.zeros((10, 10), dtype=bool)
        g[0:2, 0:2] = True  # 4 px
        g[5:9, 5:9] = True  # 16 px
        p = mask_to_polygon(BinaryMask(g))
        assert polygon_to_bbox(p) == BBox(5, 5, 8, 8)


class TestPolygonToBBox:
    def test_triangle(self):
        assert polygon_to_bbox(Polygon(((0, 0), (4, 0), (0, 4)))) == BBox(0, 0, 4, 4)

    def test_single_cell_square(self):
        p = Polygon(((2, 2), (3, 2), (3, 3), (2, 3)))
        assert polygon_to_bbox(p) == BBox(2, 2, 3, 3)

    def test_random_polygon_containment_brute_force(self):
        rng = np.random.default_rng(7)
        pts = tuple((float(x), float(y)) for x, y in rng.uniform(0, 100, size=(50, 2)))
        box = polygon_to_bbox(Polygon(pts))
        for x, y in pts:
            assert box.x1 <= x <= box.x2 and box.y1 <= y <= box.y2


def resample(p: Polygon, n: int) -> Polygon:
    return Polygon(resample_outlines([p], n)[0])


class TestResample:
    SQUARE = Polygon(((0, 0), (10, 0), (10, 10), (0, 10)))

    def test_square_n4_corners(self):
        assert resample(self.SQUARE, 4).vertices.tolist() == self.SQUARE.vertices.tolist()

    def test_square_n8_midpoints(self):
        assert resample(self.SQUARE, 8).vertices.tolist() == [
            [0.0, 0.0],
            [5.0, 0.0],
            [10.0, 0.0],
            [10.0, 5.0],
            [10.0, 10.0],
            [5.0, 10.0],
            [0.0, 10.0],
            [0.0, 5.0],
        ]

    def test_uniform_fixed_point(self):
        uniform = resample(self.SQUARE, 8)
        again = resample(uniform, 8)
        for (x1, y1), (x2, y2) in zip(uniform.vertices, again.vertices):
            assert abs(x1 - x2) < 1e-6 and abs(y1 - y2) < 1e-6

    def test_degenerate_perimeter(self):
        with pytest.raises(ValueError):
            resample_outlines([self.SQUARE, Polygon(((1, 1), (1, 1), (1, 1)))], 4)

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            resample_outlines([self.SQUARE], 2)

    @given(
        st.integers(min_value=24, max_value=64),
        st.integers(min_value=32, max_value=128),
        st.floats(10.0, 30.0),
        st.floats(10.0, 30.0),
        st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=1000, deadline=None)
    def test_perimeter_preserved_on_smooth_contours(self, k, n, ax, ay, phase):
        # Densely sampled smooth boundary, the shape class this op runs on.
        # Equal-interval chords under-measure sharp corners and pixel
        # staircases by construction, so those stay out of this contract.
        pts = tuple(
            (
                50 + ax * math.cos(phase + 2 * math.pi * i / k),
                50 + ay * math.sin(phase + 2 * math.pi * i / k),
            )
            for i in range(k)
        )
        p = Polygon(pts)
        r = resample(p, n)
        assert abs(perimeter(r) - perimeter(p)) <= 0.01 * perimeter(p)


class TestRasterize:
    def test_square_exact(self):
        m = rasterize_polygon(Polygon(((0, 0), (4, 0), (4, 4), (0, 4))), 6, 6)
        assert m.count == 25

    def test_polygon_iou_is_mask_iou(self):
        a = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        b = Polygon(((2, 0), (6, 0), (6, 4), (2, 4)))
        v = iou_mask(rasterize_polygon(a, 8, 8), rasterize_polygon(b, 8, 8))
        # 5x5 squares overlapping in 3 columns: 15 / 35
        assert v == pytest.approx(15 / 35)


masks_strategy = st.builds(
    lambda w, h, bits: BinaryMask(np.array(bits, dtype=bool).reshape(h, w)),
    st.shared(st.integers(4, 12), key="w"),
    st.shared(st.integers(4, 12), key="h"),
    st.shared(st.integers(4, 12), key="w").flatmap(
        lambda w: st.shared(st.integers(4, 12), key="h").flatmap(
            lambda h: st.lists(st.booleans(), min_size=w * h, max_size=w * h)
        )
    ),
)

boxes_strategy = st.builds(
    lambda x1, y1, dw, dh: BBox(x1, y1, x1 + dw, y1 + dh),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
)


class TestProperties:
    @given(boxes_strategy, boxes_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_iou_box_symmetry(self, a, b):
        assert iou_box(a, b) == iou_box(b, a)

    @given(boxes_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_iou_box_self(self, a):
        if a.area > 0:
            assert iou_box(a, a) == 1.0

    @given(masks_strategy, masks_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_iou_mask_symmetry(self, a, b):
        assert iou_mask(a, b) == iou_mask(b, a)

    @given(masks_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_iou_mask_self(self, m):
        if not m.is_empty():
            assert iou_mask(m, m) == 1.0

    @given(masks_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_contour_bbox_within_tight_box(self, m):
        p = mask_to_polygon(m)
        if p is None:
            return
        box = polygon_to_bbox(p)
        ys, xs = np.nonzero(m.data)
        assert box.x1 >= xs.min() - 1 and box.x2 <= xs.max() + 1
        assert box.y1 >= ys.min() - 1 and box.y2 <= ys.max() + 1

    @given(
        st.floats(3.0, 8.0),
        st.floats(3.0, 8.0),
        st.floats(9.0, 15.0),
        st.floats(9.0, 15.0),
    )
    @settings(max_examples=1000, deadline=None)
    def test_convex_blob_roundtrip(self, ax, ay, cx, cy):
        m = ellipse_mask(cx, cy, ax, ay, 24, 24)
        if m.count < 25:
            return
        p = mask_to_polygon(m)
        back = rasterize_polygon(p, 24, 24)
        assert iou_mask(m, back) >= 0.9

    @given(
        st.floats(3.0, 8.0),
        st.floats(3.0, 8.0),
        st.floats(9.0, 15.0),
        st.floats(9.0, 15.0),
        st.integers(3, 64),
    )
    @settings(max_examples=1000, deadline=None)
    def test_iou_polygon_symmetry(self, ax, ay, cx, cy, n):
        m = ellipse_mask(cx, cy, ax, ay, 24, 24)
        a = mask_to_polygon(m)
        if a is None:
            return
        b = resample(a, max(3, n))
        ma, mb = rasterize_polygon(a, 24, 24), rasterize_polygon(b, 24, 24)
        assert iou_mask(ma, mb) == iou_mask(mb, ma)


class TestShiftMask:
    def test_shift_and_clip(self):
        m = rect_mask(0, 0, 2, 2, 6, 6)
        s = shift_mask(m, 4, 0)
        ys, xs = np.nonzero(s.data)
        assert xs.min() == 4 and xs.max() == 5  # clipped at border
        assert s.count == 6
