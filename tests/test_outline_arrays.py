"""Outlines as read-only (n, 2) float64 arrays give the floats and the bytes
that tuple-built outlines gave: each array path is held to a tuple oracle in
helpers, on whole-pixel and on fractional vertices."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tuple_outline, tuple_resample, tuple_smooth, tuple_write_annotations
from vidannot.ash import Masklet, MaskletEntry, smooth_polygons
from vidannot.geometry import (
    BinaryMask,
    Polygon,
    mask_to_polygon,
    polygon_to_bbox,
    rasterize_polygon,
    resample_polygon,
)
from vidannot.io import AnnotationDocument, AnnotationEntry, write_annotations


def as_tuples(p: Polygon) -> tuple[tuple[float, float], ...]:
    return tuple(map(tuple, p.vertices.tolist()))


@st.composite
def masks(draw):
    w, h = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**16))
    return BinaryMask(np.random.default_rng(seed).random((h, w)) < density)


@st.composite
def vertex_lists(draw, min_size=3, max_size=20):
    """Whole-pixel vertices, or fractional ones: arbitrary floats, or values
    on a lattice of 2e-6 steps, where rounding to 6 decimals ties."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["whole", "float", "tie"]))
    if kind == "whole":
        coord = st.integers(-40, 400).map(float)
    elif kind == "float":
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        coord = st.integers(-10**7, 10**7).map(lambda k: (2 * k + 1) / 2e6)
    return draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))


class TestPolygon:
    def test_array_is_read_only_float64(self):
        p = Polygon(((0, 0), (4, 0), (0, 4)))
        assert p.vertices.dtype == np.float64 and p.vertices.shape == (3, 2)
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 1.0

    def test_copies_its_input(self):
        source = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        p = Polygon(source)
        source[0, 0] = 9.0
        assert p.vertices[0, 0] == 0.0

    def test_equality_is_elementwise_and_unhashable(self):
        assert Polygon(((0, 0), (4, 0), (0, 4))) == Polygon([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        assert Polygon(((0, 0), (4, 0), (0, 4))) != Polygon(((0, 0), (4, 0), (0, 5)))
        with pytest.raises(TypeError):
            hash(Polygon(((0, 0), (4, 0), (0, 4))))

    @pytest.mark.parametrize(
        "vertices",
        [
            (),
            ((0, 0), (1, 1)),
            ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
            ((0, 0), (1, 1), (2,)),
            ((0, 0), (1, float("nan")), (2, 2)),
            ((0, 0), (float("inf"), 1), (2, 2)),
            None,
        ],
    )
    def test_rejects_malformed_vertices(self, vertices):
        with pytest.raises(ValueError):
            Polygon(vertices)


class TestArrayPathsEqualTupleOracles:
    @given(masks(), st.integers(1, 4))
    @settings(max_examples=1000, deadline=None)
    def test_mask_to_polygon(self, mask, min_pixels):
        p = mask_to_polygon(mask, min_pixels)
        expected = tuple_outline(mask, min_pixels)
        assert (p is None) == (expected is None)
        if p is not None:
            assert as_tuples(p) == expected

    @given(vertex_lists(), st.integers(3, 80))
    @settings(max_examples=1000, deadline=None)
    def test_resample_polygon(self, vertices, n):
        try:
            expected = tuple_resample(tuple(vertices), n)
        except ValueError:
            with pytest.raises(ValueError):
                resample_polygon(Polygon(vertices), n)
            return
        assert as_tuples(resample_polygon(Polygon(vertices), n)) == expected

    @given(
        st.lists(st.one_of(st.none(), vertex_lists(max_size=12)), min_size=1, max_size=6),
        st.integers(0, 1),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.integers(3, 24),
    )
    @settings(max_examples=1000, deadline=None)
    def test_smooth_polygons(self, outlines, gap_at, alpha, n):
        # Frames are consecutive except for one gap after the first frame.
        frames = [f + (gap_at if f else 0) for f in range(len(outlines))]
        by_frame = dict(zip(frames, (tuple(v) if v else None for v in outlines)))
        try:
            expected = tuple_smooth(by_frame, alpha, n)
        except ValueError:
            return  # a zero-perimeter outline cannot be resampled
        m = Masklet(0, "object")
        for f, v in by_frame.items():
            m.add_entry(f, MaskletEntry(BinaryMask.zeros(40, 30), Polygon(v) if v else None, 0.9))
        out = smooth_polygons(m, alpha, n)
        for f, v in expected.items():
            polygon = out.entries[f].polygon
            if v is None:
                assert polygon is None
                continue
            assert as_tuples(polygon) == v
            assert out.entries[f].mask == rasterize_polygon(Polygon(v), 40, 30)

    @given(
        st.lists(st.tuples(vertex_lists(), st.floats(0.0, 1.0)), min_size=1, max_size=4),
        st.integers(1, 3),
    )
    @settings(max_examples=1000, deadline=None)
    def test_write_annotations_bytes(self, objects, frames):
        doc = AnnotationDocument("seq", 320, 240)
        for f in range(frames):
            doc.frames[f] = [
                AnnotationEntry(i, "object", conf, Polygon(v), polygon_to_bbox(Polygon(v)))
                for i, (v, conf) in enumerate(objects)
            ]
        with tempfile.TemporaryDirectory() as d:
            got, want = Path(d) / "got.jsonl", Path(d) / "want.jsonl"
            write_annotations(doc, got)
            tuple_write_annotations(doc, want)
            assert got.read_bytes() == want.read_bytes()
