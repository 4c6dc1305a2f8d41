"""Outlines as read-only (n, 2) float64 arrays give the floats and the bytes
that tuple-built outlines gave: each array path is held to a tuple oracle in
helpers, on whole-pixel and on fractional vertices."""

from __future__ import annotations

import math
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
    resample_outlines,
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


def long_vertex_list(n: int, seed: int, whole: bool) -> list[tuple[float, float]]:
    """n > 128 vertices, past the length at which numpy's pairwise sum splits
    recursively: whole-pixel or arbitrary floats, drawn from a seeded stream
    so that hypothesis need not draw every coordinate."""
    rng = np.random.default_rng(seed)
    if whole:
        return [tuple(map(float, v)) for v in rng.integers(-40, 400, size=(n, 2))]
    return [tuple(v) for v in rng.uniform(-1e3, 1e3, size=(n, 2)).tolist()]


def outlines(max_size=12):
    """An outline of up to max_size vertices, or one of 129 to 300."""
    return st.one_of(
        vertex_lists(max_size=max_size),
        st.builds(long_vertex_list, st.integers(129, 300), st.integers(0, 2**16), st.booleans()),
    )


def check_smooth(by_frame: dict, alpha: float, n: int) -> None:
    """smooth_polygons on a masklet with these outlines by frame (None where
    a frame has none) gives the tuple oracle's floats, and each smoothed
    entry's mask is its outline's raster."""
    m = Masklet(0, "object")
    for f, v in by_frame.items():
        m.entries[f] = MaskletEntry(BinaryMask.zeros(40, 30), Polygon(v) if v else None, 0.9)
    try:
        expected = tuple_smooth(by_frame, alpha, n)
    except ValueError:
        # A zero-perimeter outline cannot be resampled.
        with pytest.raises(ValueError):
            smooth_polygons(m, alpha, n)
        return
    out = smooth_polygons(m, alpha, n)
    assert list(out.entries) == list(by_frame)
    for f, v in expected.items():
        polygon = out.entries[f].polygon
        if v is None:
            assert out.entries[f] is m.entries[f]
            continue
        assert as_tuples(polygon) == v
        assert not polygon.vertices.flags.writeable
        assert out.entries[f].mask == rasterize_polygon(Polygon(v), 40, 30)


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
    @given(masks(), st.integers(1, 3))
    @settings(max_examples=1000, deadline=None)
    def test_mask_to_polygon(self, mask, min_pixels):
        # The oracle's pixel floor changes no outline up to 3: every
        # component of fewer than 3 pixels has none.
        p = mask_to_polygon(mask)
        expected = tuple_outline(mask, min_pixels)
        assert (p is None) == (expected is None)
        if p is not None:
            assert as_tuples(p) == expected

    @given(st.lists(outlines(max_size=20), min_size=1, max_size=4), st.integers(3, 80))
    @settings(max_examples=1000, deadline=None)
    def test_resample_polygon(self, drawn, n):
        # The outlines are resampled in one call; each row is what its
        # outline gives alone.
        polygons = [Polygon(v) for v in drawn]
        try:
            expected = [tuple_resample(tuple(v), n) for v in drawn]
        except ValueError:
            with pytest.raises(ValueError):
                resample_outlines(polygons, n)
            return
        rows = resample_outlines(polygons, n)
        assert [tuple(map(tuple, row)) for row in rows.tolist()] == expected

    @given(
        st.lists(
            st.tuples(st.one_of(st.none(), outlines()), st.booleans()), min_size=1, max_size=12
        ),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.integers(3, 24),
    )
    @settings(max_examples=1000, deadline=None)
    def test_smooth_polygons(self, drawn, alpha, n):
        # Each frame follows the one before, or leaves a gap of one frame.
        frames = np.cumsum([1 + gap for _, gap in drawn]).tolist()
        check_smooth(dict(zip(frames, (tuple(v) if v else None for v, _ in drawn))), alpha, n)

    def test_smooth_polygons_without_outlines(self):
        check_smooth({3: None, 4: None, 5: None}, 0.2, 16)

    def test_smooth_polygons_one_frame(self):
        check_smooth({7: ((0.0, 0.0), (4.0, 0.5), (1.5, 3.0))}, 0.2, 16)

    def test_smooth_polygons_long_outlines(self):
        # Outlines of 12, 200, 129 and 12 vertices, then a gap, a frame
        # without an outline and one more of 12, in one masklet.
        short = tuple(
            (6 + 4 * math.cos(t), 5 + 3 * math.sin(t)) for t in np.arange(12) * (math.pi / 6)
        )
        by_frame = {
            0: short,
            1: tuple(long_vertex_list(200, 1, whole=False)),
            2: tuple(long_vertex_list(129, 2, whole=True)),
            4: short,
            5: None,
            6: short,
        }
        check_smooth(by_frame, 0.2, 64)

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
