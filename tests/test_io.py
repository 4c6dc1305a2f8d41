from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.backends import SyntheticWorldConfig
from vidannot.config import PipelineConfig
from vidannot.geometry import BBox, Polygon, polygon_to_bbox
from vidannot.io import (
    AnnotationDocument,
    AnnotationEntry,
    FormatError,
    MotRecord,
    parse_config,
    read_annotations,
    read_config,
    read_mot,
    write_annotations,
    write_mot,
)

from helpers import tuple_write_annotations


class TestMot:
    def test_parse_single_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1,-1,100,200,50,80,0.9,1,1.0\n")
        frames = read_mot(p)
        rec = frames[1][0]
        assert rec.box == BBox(100, 200, 150, 280)
        assert rec.conf == 0.9

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        assert read_mot(p) == {}

    @pytest.mark.parametrize(
        "field, value",
        [("x", "oops"), ("x", "nan"), ("y", "-inf"), ("w", "inf"), ("h", "nan"), ("conf", "nan")],
    )
    def test_malformed_line_reports_location(self, tmp_path, field, value):
        p = tmp_path / "bad.txt"
        fields = "2,-1,100,200,50,80,0.9,1,1.0".split(",")
        fields[2 + ["x", "y", "w", "h", "conf"].index(field)] = value
        p.write_text("1,-1,100,200,50,80,0.9,1,1.0\n" + ",".join(fields) + "\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(p))}:2"):
            read_mot(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,2,3\n")
        with pytest.raises(FormatError, match="9 fields"):
            read_mot(p)

    def test_write_then_read_identity(self, tmp_path):
        recs = [
            MotRecord(1, -1, 100, 200, 50, 80, 0.9),
            MotRecord(1, 2, 10.5, 20.25, 30, 40, 0.5, 2, 0.75),
            MotRecord(3, 0, 0.125, 7, 9, 9, 1.0),
        ]
        p = tmp_path / "m.txt"
        write_mot(recs, p)
        back = [r for f in sorted(read_mot(p)) for r in read_mot(p)[f]]
        assert back == recs

    def test_byte_determinism(self, tmp_path):
        recs = [MotRecord(1, -1, 1.23456789, 2, 3, 4, 0.5)]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mot(recs, a)
        write_mot(recs, b)
        assert a.read_bytes() == b.read_bytes()

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 500),
                st.integers(-1, 50),
                st.floats(0, 1000),
                st.floats(0, 1000),
                st.floats(0.01, 500),
                st.floats(0.01, 500),
                st.floats(0, 1),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=1000, deadline=None)
    def test_roundtrip_to_1e6(self, rows):
        import tempfile
        from pathlib import Path

        recs = [MotRecord(f, i, x, y, w, h, c) for f, i, x, y, w, h, c in rows]
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "f.txt"
            write_mot(recs, p)
            back = [r for f in sorted(read_mot(p)) for r in read_mot(p)[f]]
        flat = [(r.frame, r.track_id, r.x, r.y, r.w, r.h, r.conf) for r in back]
        want = sorted(rows, key=lambda t: t[0])
        got = sorted(flat, key=lambda t: t[0])
        for a, b in zip(got, want):
            assert a[0] == b[0] and a[1] == b[1]
            for u, v in zip(a[2:], b[2:]):
                assert abs(u - v) <= 1e-6


SQUARE = Polygon(((2.0, 2.0), (8.0, 2.0), (8.0, 8.0), (2.0, 8.0)))


def square_doc():
    doc = AnnotationDocument("seq1", 320, 240)
    doc.frames[0] = [AnnotationEntry(0, "object", 0.9, SQUARE, BBox(2, 2, 8, 8))]
    return doc


class TestAnnotations:
    def test_one_line_per_frame(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_annotations(square_doc(), p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2  # header + one frame
        payload = json.loads(lines[1])
        assert len(payload["objects"][0]["polygon"]) == 4

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "a.jsonl"
        doc = square_doc()
        write_annotations(doc, p)
        back = read_annotations(p)
        assert back.sequence_id == doc.sequence_id
        assert back.frames[0][0].polygon == SQUARE
        assert back.frames[0][0].bbox == BBox(2, 2, 8, 8)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(square_doc(), a)
        write_annotations(square_doc(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        with pytest.raises(FormatError):
            read_annotations(p)

    @pytest.mark.parametrize(
        "line, key, value",
        [
            (1, "polygon", None),
            (1, "polygon", [[2, 2, 0], [8, 2, 0], [8, 8, 0]]),
            (1, "polygon", [[2, 2], [8, 8]]),
            (1, "bbox", [2, 2, 8]),
            (0, None, ["seq1", 320, 240]),
        ],
    )
    def test_malformed_file_raises_format_error_naming_it(self, tmp_path, line, key, value):
        p = tmp_path / "a.jsonl"
        write_annotations(square_doc(), p)
        lines = [json.loads(s) for s in p.read_text().splitlines()]
        if key is None:
            lines[line] = value
        else:
            lines[line]["objects"][0][key] = value
        p.write_text("\n".join(json.dumps(v) for v in lines) + "\n")
        with pytest.raises(FormatError, match=str(p)):
            read_annotations(p)


def nudged(v: float, ulps: int) -> float:
    """v moved `ulps` representable floats up (or down, when negative)."""
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, np.inf if ulps > 0 else -np.inf))
    return v


# Coordinates where rounding to 6 decimals is hard: exact binary ties (k / 128
# times 1e6 ends in .5 for odd k), decimal ties that binary only comes near,
# floats a few ulps off either, whole pixels, signed zeros, values below 1e-4,
# and magnitudes up to the largest finite float.
COORDS = st.one_of(
    st.integers(-50, 2000).map(float),
    st.integers(-(10**6), 10**6).map(lambda k: k / 128),
    st.integers(-(10**9), 10**9).map(lambda k: (2 * k + 1) / 2e6),
    st.builds(
        nudged,
        st.one_of(
            st.integers(-(10**6), 10**6).map(lambda k: k / 128),
            st.integers(-(10**9), 10**9).map(lambda k: (2 * k + 1) / 2e6),
        ),
        st.integers(-3, 3),
    ),
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-4, 1e-4, allow_nan=False),
    st.floats(-1e4, 1e4, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPolygonRounding:
    @given(st.lists(st.lists(st.tuples(COORDS, COORDS), min_size=3, max_size=12), min_size=1, max_size=4))
    @settings(max_examples=1000, deadline=None)
    def test_bytes_equal_rounding_each_coordinate(self, outlines):
        doc = AnnotationDocument("seq", 320, 240)
        doc.frames[0] = [
            AnnotationEntry(i, "object", 0.5, Polygon(v), polygon_to_bbox(Polygon(v)))
            for i, v in enumerate(outlines)
        ]
        with tempfile.TemporaryDirectory() as d:
            got, want = Path(d) / "got.jsonl", Path(d) / "want.jsonl"
            write_annotations(doc, got)
            tuple_write_annotations(doc, want)
            assert got.read_bytes() == want.read_bytes()


class TestConfig:
    def test_empty_config_gives_paper_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        cfg = read_config(p)
        assert cfg.smart_od.theta_v == 0.03
        assert cfg.smart_od.theta_min_area == 0.0008
        assert cfg.smart_od.theta_max_area == 0.20
        assert cfg.smart_od.epsilon_dbscan == 100.0
        assert cfg.smart_od.mu_dbscan == 1
        assert cfg.ash.tau_merge == 0.3
        assert cfg.ash.alpha == 0.2
        assert cfg.ash.epsilon_mask == 3
        assert cfg.chunker.chi == 50
        assert cfg.chunker.omega == 10
        assert cfg.assoc.tau_track_det == 0.5
        assert cfg.assoc.lambda_min == 10
        assert cfg.assoc.lambda_max == 1000
        assert cfg.assoc.track_buffer == 20
        assert cfg.deploy.gamma == 0.9

    def test_invariant_violation_names_field(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"chunker": {"omega": 60, "chi": 50}}))
        with pytest.raises(FormatError, match="omega"):
            read_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        # mask_generator and rescale_confidences were removed; old files
        # naming them are rejected too.
        for name in ("smartod", "mask_generator", "rescale_confidences"):
            p.write_text(json.dumps({name: {}}))
            with pytest.raises(FormatError, match=name):
                read_config(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        # Includes the fields removed as never read: there is no deprecation path.
        for section, name in [
            ("ash", "betta"),
            ("ash", "beta"),
            ("ash", "adaptive_smoothing"),
            ("smart_od", "theta_c"),
            ("smart_od", "theta_i"),
            ("assoc", "track_thresh"),
            ("assoc", "match_thresh"),
            ("chunker", "window"),
            ("chunker", "tau_overlap"),
        ]:
            p.write_text(json.dumps({section: {name: 5}}))
            with pytest.raises(FormatError, match=name):
                read_config(p)

    def test_parameter_grid_key_must_be_a_smart_od_field(self):
        with pytest.raises(FormatError, match="theta_typo"):
            parse_config({"deploy": {"parameter_grid": {"theta_typo": [0.1]}}})
        grid = {"theta_v": [0.03, 0.05]}
        assert parse_config({"deploy": {"parameter_grid": grid}}).deploy.parameter_grid == grid

    @pytest.mark.parametrize("grid", [{"theta_v": 0.1}, {"threshold_method": "kmeans"}])
    def test_parameter_grid_values_must_be_lists(self, grid):
        # A number once died in the grid search with a raw TypeError; a
        # string was searched one character at a time.
        with pytest.raises(FormatError, match=f"parameter_grid\\['{next(iter(grid))}'\\]"):
            parse_config({"deploy": {"parameter_grid": grid}})

    @pytest.mark.parametrize(
        "section, fields",
        [
            ("chunker", {"full_budget": "10"}),
            ("chunker", {"full_budget": -5}),
            ("chunker", {"checkpoint_interval": 2.5}),
            ("chunker", {"chi": 40.5}),
            ("chunker", {"omega": 5.5}),
            ("smart_od", {"slice_size": 0}),
            ("smart_od", {"slice_size": 256.0}),
            ("smart_od", {"theta_v": 1.0}),
            ("smart_od", {"theta_v": -0.1}),
            ("smart_od", {"theta_n": 1.5}),
            ("smart_od", {"theta_min": -0.5}),
            ("assoc", {"aspect_range": [5, 0.2]}),
            ("assoc", {"track_buffer": -3}),
            # Each once accepted: a value of the wrong type for its field.
            ("world", {"num_frames": 10.5}),
            ("deploy", {"qa_seed": 1.5}),
            ("ash", {"resample_n": 64.5}),  # once changed the outlines
            ("assoc", {"track_buffer": 2.5}),
            ("smart_od", {"mu_dbscan": 1.5}),
            ("ash", {"epsilon_mask": 2.5}),
            ("world", {"occlusion_enabled": "no"}),
            ("ash", {"alpha": True}),
            ("deploy", {"parameter_grid": {"mu_dbscan": [1.5]}}),
            ("noise", {"miss_rate": "0.1"}),
            ("assoc", {"aspect_range": [0.2]}),
            ("world", {"velocities": [[1, 0, 0]], "num_objects": 1}),
            ("ash", {"alpha": None}),
            ("world", {"class_label": 3}),
            ("deploy", {"parameter_grid": ["theta_v"]}),  # once a raw AttributeError
        ],
    )
    def test_out_of_range_fields_rejected_by_name(self, section, fields):
        with pytest.raises(FormatError, match=next(iter(fields))):
            parse_config({section: fields})

    @pytest.mark.parametrize("seed", [None, 3.7, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        # None once raised a raw TypeError; 3.7 became 3 and True became 1.
        with pytest.raises(FormatError, match="seed"):
            parse_config({"seed": seed})
        assert parse_config({"seed": 3}).seed == 3

    def test_values_parse_to_their_declared_types(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "assoc": {"aspect_range": [0.25, 4]},
            "noise": {"tp_confidence_range": [0.7, 0.9], "fp_confidence_range": [0, 0.2]},
            "degradation": {"drift_px_per_frame": [0.5, 0]},
            "world": {"num_objects": 2, "velocities": [[1, 0], [0, 1.5]], "ellipse_axes": [9, 6]},
            "chunker": {"full_budget": None},
            "ash": {"alpha": 1},  # an int is a float
            "seed": 4,
        }))
        cfg = read_config(p)
        tuples = [
            cfg.assoc.aspect_range,
            cfg.noise.tp_confidence_range,
            cfg.noise.fp_confidence_range,
            cfg.degradation.drift_px_per_frame,
            cfg.world.ellipse_axes,
            cfg.world.velocities,
            *cfg.world.velocities,
        ]
        assert all(type(t) is tuple for t in tuples)
        assert cfg.world.velocities == ((1.0, 0.0), (0.0, 1.5))
        assert cfg.assoc.aspect_range == (0.25, 4.0)
        assert (cfg.chunker.full_budget, cfg.ash.alpha, cfg.seed) == (None, 1, 4)

    def test_null_section_takes_its_defaults(self):
        assert parse_config({"world": None, "ash": None}) == PipelineConfig()
        assert parse_config({}).world == SyntheticWorldConfig()

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1,2,3]")
        with pytest.raises(FormatError):
            read_config(p)


class TestLargeRoundTrip:
    def test_ten_thousand_records(self, tmp_path):
        rng = np.random.default_rng(11)
        recs = [
            MotRecord(
                frame=int(rng.integers(1, 500)),
                track_id=int(rng.integers(-1, 99)),
                x=float(rng.uniform(0, 1900)),
                y=float(rng.uniform(0, 1000)),
                w=float(rng.uniform(1, 400)),
                h=float(rng.uniform(1, 400)),
                conf=float(rng.uniform(0, 1)),
            )
            for _ in range(10_000)
        ]
        p = tmp_path / "big.txt"
        write_mot(recs, p)
        by_frame = read_mot(p)
        back = [r for f in sorted(by_frame) for r in by_frame[f]]
        assert len(back) == 10_000
        got = sorted((r.frame, r.track_id, r.x, r.y, r.w, r.h, r.conf) for r in back)
        want = sorted((r.frame, r.track_id, r.x, r.y, r.w, r.h, r.conf) for r in recs)
        for a, b in zip(got, want):
            assert a[0] == b[0] and a[1] == b[1]
            assert all(abs(u - v) <= 1e-6 for u, v in zip(a[2:], b[2:]))
