from __future__ import annotations

import base64
import functools
import json
import logging
import os
import re
import stat
import tempfile
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidannot.ash
import vidannot.chunker
from vidannot.ash import AshConfig, Masklet, MaskletEntry
from vidannot.assoc import AssocConfig, Track
from vidannot.backends import (
    Detection,
    DetectionNoise,
    PropagationDegradation,
    SyntheticDetector,
    SyntheticPropagator,
    SyntheticWorldConfig,
    generate_synthetic_sequence,
)
from vidannot.chunker import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    ChunkerConfig,
    ProcessingBudgetExceeded,
    find_optimal_frame,
    load_checkpoint,
    merge_chunk_overlap,
    next_chunk,
    run_sequence,
    save_checkpoint,
)
from vidannot.geometry import BBox, BinaryMask, Polygon, iou_mask, mask_to_polygon

from helpers import inject_append_fault, plan_chunks, rect_mask


class TestChunkSequence:
    def test_recurrence_120_50_10(self):
        # A density peak at each nominal boundary gives the fixed-stride
        # recurrence: every chunk starts omega frames before the previous end.
        counts = [1] * 120
        counts[49] = counts[88] = 5
        chunks = plan_chunks(counts, ChunkerConfig(chi=50, omega=10))
        assert chunks == ((0, 49), (39, 88), (78, 119))

    def test_short_sequence_single_chunk(self):
        assert plan_chunks([1] * 30, ChunkerConfig()) == ((0, 29),)

    def test_exact_fit_single_chunk(self):
        assert plan_chunks([1] * 50, ChunkerConfig()) == ((0, 49),)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks([1] * 10, ChunkerConfig(chi=3, omega=2))
        with pytest.raises(ValueError):
            ChunkerConfig(chi=50, omega=50)

    @given(
        st.data(),
        st.integers(1, 400),
        st.integers(2, 60),
        st.integers(0, 30),
    )
    @settings(max_examples=1000, deadline=None)
    def test_coverage_and_overlap(self, data, num_frames, chi, omega):
        if omega >= chi:
            return
        if num_frames > chi and chi - omega < 2:
            return
        counts = data.draw(st.lists(st.integers(0, 5), min_size=num_frames, max_size=num_frames))
        chunks = plan_chunks(counts, ChunkerConfig(chi=chi, omega=omega))
        assert chunks[0][0] == 0
        assert chunks[-1][1] == num_frames - 1
        for s, e in chunks:
            assert 0 <= e - s < chi
        # Every chunk moves forward and starts at or before the previous end,
        # so the plan covers each frame and each seed window holds a frame;
        # a start pulled back toward dense frames stays within the search
        # window plus the overlap.
        for (s1, e1), (s2, e2) in zip(chunks, chunks[1:]):
            assert s1 < s2 <= e1
            assert e1 < e2
            assert e1 - s2 + 1 <= 2 * omega + 1


class RecordedCounts(Sequence):
    """Per-frame counts that note each frame read."""

    def __init__(self, counts: list[int]) -> None:
        self.counts = counts
        self.read: set[int] = set()

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, t: int) -> int:
        self.read.add(t)
        return self.counts[t]


class TestNextChunk:
    @given(
        st.data(),
        st.integers(1, 400),
        st.integers(2, 60),
        st.integers(0, 30),
    )
    @settings(max_examples=1000, deadline=None)
    def test_reads_only_the_search_window(self, data, num_frames, chi, omega):
        if omega >= chi or (num_frames > chi and chi - omega < 2):
            return
        cfg = ChunkerConfig(chi=chi, omega=omega)
        counts = data.draw(st.lists(st.integers(0, 5), min_size=num_frames, max_size=num_frames))
        chunks = plan_chunks(counts, cfg)
        first = RecordedCounts(counts)
        assert next_chunk(first, -1, cfg) == chunks[0] and not first.read
        for (_, prev_end), following in zip(chunks, chunks[1:]):
            lo = prev_end + 1 - omega
            hi = prev_end + 1 + omega
            # Counts outside the window do not matter, and are not read.
            changed = [c if lo <= t <= hi else 9 - c for t, c in enumerate(counts)]
            recorded = RecordedCounts(changed)
            assert next_chunk(recorded, prev_end, cfg) == following
            assert recorded.read and all(lo <= t <= hi for t in recorded.read)


class TestFindOptimalFrame:
    def test_argmax_in_window(self):
        counts = [0] * 10 + [3, 5, 4]
        assert find_optimal_frame(counts, 11, 1) == 11

    def test_uniform_ties_to_lowest(self):
        assert find_optimal_frame([2] * 20, 10, 3) == 7

    def test_zero_window(self):
        assert find_optimal_frame([1, 2, 3], 1, 0) == 1

    def test_clipped_to_range(self):
        assert find_optimal_frame([5, 1, 1], 0, 2) == 0


def masklet_with(object_id: int, frames: dict[int, tuple[int, int, int, int] | None], w=24, h=24):
    m = Masklet(object_id, "object")
    for f in sorted(frames):
        spec = frames[f]
        if spec is None:
            mask = rect_mask(0, 0, 0, 0, w, h)
            mask = type(mask)(np.zeros((h, w), dtype=bool))
            m.entries[f] = MaskletEntry(mask, None, 0.9)
        else:
            x1, y1, x2, y2 = spec
            mask = rect_mask(x1, y1, x2, y2, w, h)
            m.entries[f] = MaskletEntry(mask, mask_to_polygon(mask), 0.9)
    return m


class TestMergeChunkOverlap:
    def test_appends_extend_existing_ids_in_frame_order_and_add_new_ids(self):
        a = masklet_with(0, {7: (2, 2, 10, 10), 8: (2, 2, 10, 10)})
        b = masklet_with(1, {8: (12, 12, 20, 20)})
        cont = masklet_with(0, {9: (3, 2, 11, 10), 10: (4, 2, 12, 10)})
        new = masklet_with(5, {10: (14, 2, 20, 8)})
        masklets = [a, b]
        out = merge_chunk_overlap(masklets, [cont, new])
        assert out is masklets
        assert [m.object_id for m in out] == [0, 1, 5]
        assert list(a.entries) == [7, 8, 9, 10]
        assert a.entries[9] is cont.entries[9] and a.entries[10] is cont.entries[10]
        assert list(b.entries) == [8]
        assert out[2] is new


def small_checkpoint(seq="s", frame=5) -> Checkpoint:
    """Object 0, seen at frames 0 and 1, and its track."""
    m = masklet_with(0, {0: (1, 1, 9, 9), 1: (2, 1, 10, 9)})
    tracks = [Track(0, BBox(2, 1, 10.5, 9), 4)]
    return Checkpoint(seq, frame, [m], tracks, (0, 199), (24, 24), 200)


_GROWN_ENTRIES = []


def grown_checkpoint(frame: int, seq="s", chunk=(0, 199), size=(24, 24)) -> Checkpoint:
    """The state after `frame` of `chunk` of a run whose masklets grow only
    at their tail: object 0 is seen from frame 0 on, object 1 from frame 15
    on."""
    if not _GROWN_ENTRIES:
        _GROWN_ENTRIES.extend(masklet_with(0, {x: (x, 1, x + 8, 9) for x in range(10)}).entries.values())
    masklets = [
        Masklet(oid, "object", {f: _GROWN_ENTRIES[(f + oid) % 10] for f in range(first, frame + 1)})
        for oid, first in ((0, 0), (1, 15))
        if first <= frame
    ]
    return Checkpoint(seq, frame, masklets, [], chunk, size, 200)


def state_signature(ckpt: Checkpoint):
    return (
        ckpt.sequence_id,
        ckpt.last_completed_frame,
        ckpt.chunk,
        ckpt.tracks,
        [
            (
                m.object_id,
                m.class_label,
                [
                    (f, e.mask, e.polygon, e.bbox, e.confidence)
                    for f, e in sorted(m.entries.items())
                ],
            )
            for m in ckpt.masklets
        ],
    )


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def padded_bits(pad) -> str:
    """The base64 bits of a 9x9 foreground crop padded by empty rows and
    columns as `np.pad` takes them."""
    return _b64(np.packbits(np.pad(np.ones((9, 9), dtype=bool), pad)).tobytes())


def log_payloads(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_log(path: Path, *payloads: dict) -> None:
    path.write_text("".join(json.dumps(p) + "\n" for p in payloads))


def edit_line(path: Path, n: int, edit) -> None:
    """Apply `edit` to the payload of line `n` of the log at `path`."""
    payloads = log_payloads(path)
    edit(payloads[n - 1])
    write_log(path, *payloads)


def malformed_lines() -> list[str]:
    texts = ["[]", "3", '"text"', '{"schema_version": 5}']
    for entries in ([5], {"0": []}, {"0": {"box": 3}}, {"x": {}}):
        payload = small_checkpoint().to_payload()
        payload["masklets"][0]["entries"] = entries
        texts.append(json.dumps(payload))
    return texts


class TestCheckpointProtocol:
    def test_roundtrip_bit_exact(self, tmp_path):
        ck = small_checkpoint()
        path = tmp_path / "a.jsonl"
        save_checkpoint(ck, path)
        back, valid = load_checkpoint(path)
        assert back.to_payload() == ck.to_payload()
        assert valid == path.stat().st_size

    def test_stores_packed_crop_bits_and_packed_outline_vertices(self, tmp_path):
        path = tmp_path / "a.jsonl"
        save_checkpoint(small_checkpoint(), path)
        payload = json.loads(path.read_text())
        # Nothing derivable: the next object id follows from the object ids,
        # and the last frame associated is the last completed one.
        assert set(payload) == {
            "schema_version", "sequence_id", "last_completed_frame", "chunk", "header", "tracks",
            "masklets",
        }
        assert payload["schema_version"] == 7
        assert payload["tracks"] == [{"id": 0, "box": [2, 1, 10.5, 9], "age": 4}]
        assert payload["header"] == {"width": 24, "height": 24, "num_frames": 200}
        assert payload["chunk"] == [0, 199]
        entry = payload["masklets"][0]["entries"]["0"]
        assert set(entry) == {"box", "bits", "polygon", "confidence"}
        # rect (1, 1)-(9, 9): a 9x9 crop at (1, 1), all foreground. Its 81
        # pixels fill 10 bytes and the high bit of an 11th.
        assert entry["box"] == [1, 1, 9, 9]
        bits = base64.b64decode(entry["bits"], validate=True)
        assert bits == b"\xff" * 10 + b"\x80"
        crop = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=81).reshape(9, 9)
        assert np.array_equal(crop, rect_mask(1, 1, 9, 9, 24, 24).crop)
        # Its outline's x, y pairs, two little-endian bytes each on a 24x24 frame.
        outline = base64.b64decode(entry["polygon"], validate=True)
        assert outline == np.array([1, 1, 9, 1, 9, 9, 1, 9], dtype="<u2").tobytes()
        assert np.frombuffer(outline, dtype="<u2").tolist() == [1, 1, 9, 1, 9, 9, 1, 9]

    @pytest.mark.parametrize("width, coordinate_bytes", [(65536, 2), (70_000, 4)])
    def test_a_frame_wider_than_two_bytes_round_trips(self, tmp_path, width, coordinate_bytes):
        # The outline's last vertex has x = width - 1: 65535 fits two bytes,
        # 69999 takes four.
        m = masklet_with(0, {0: (width - 9, 0, width - 1, 3)}, w=width, h=4)
        ck = Checkpoint("s", 0, [m], [], (0, 9), (width, 4), 10)
        path = tmp_path / "w.jsonl"
        save_checkpoint(ck, path)
        outline = log_payloads(path)[0]["masklets"][0]["entries"]["0"]["polygon"]
        assert len(base64.b64decode(outline)) == 4 * 2 * coordinate_bytes
        back, _ = load_checkpoint(path)
        assert state_signature(back) == state_signature(ck)
        assert back.masklets[0].entries[0].polygon.vertices.max() == width - 1

    def test_non_integer_outline_raises_on_save(self, tmp_path):
        ck = small_checkpoint()
        e = ck.masklets[0].entries[0]
        polygon = Polygon(((1.0, 1.0), (9.5, 1.0), (9.0, 9.0)))
        ck.masklets[0].entries[0] = MaskletEntry(e.mask, polygon, e.confidence)
        with pytest.raises(ValueError, match="9.5"):
            save_checkpoint(ck, tmp_path / "a.jsonl")

    @pytest.mark.parametrize("x", [-1.0, 65536.0, 1e20])
    def test_outline_outside_its_vertex_type_raises_on_save(self, tmp_path, x):
        # Two-byte vertices of a 24x24 frame hold 0..65535; a cast would
        # wrap any other value.
        ck = small_checkpoint()
        e = ck.masklets[0].entries[0]
        polygon = Polygon(((1.0, 1.0), (x, 1.0), (9.0, 9.0)))
        ck.masklets[0].entries[0] = MaskletEntry(e.mask, polygon, e.confidence)
        with pytest.raises(ValueError, match="outside 0..65535"):
            save_checkpoint(ck, tmp_path / "a.jsonl")

    def test_directory_synced_when_the_log_is_created(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "d.jsonl"
        save_checkpoint(small_checkpoint(frame=1), path)
        assert synced == [(False, path.stat().st_ino), (True, tmp_path.stat().st_ino)]
        synced.clear()
        save_checkpoint(small_checkpoint(frame=2), path)
        assert synced == [(False, path.stat().st_ino)]

    def test_missing_returns_sentinel(self, tmp_path):
        assert load_checkpoint(tmp_path / "none.jsonl") == (None, 0)

    def test_fault_injection_every_phase(self, tmp_path, monkeypatch):
        # The append fails with its line cut short, or at the fsync of the
        # log or, for the save that creates the log, of its directory. The
        # log then loads the state before the save or the one it saved.
        for phase in ("write", "fsync", "directory fsync"):
            store = CheckpointStore(tmp_path / phase, "s")
            before = None
            if phase != "directory fsync":
                store.save(grown_checkpoint(10))
                before = state_signature(grown_checkpoint(10))
            with monkeypatch.context() as m:
                inject_append_fault(m, phase)
                with pytest.raises(OSError, match="injected"):
                    store.save(grown_checkpoint(20))
            loaded = CheckpointStore(tmp_path / phase, "s").load_latest()
            after = state_signature(grown_checkpoint(20))
            assert (loaded and state_signature(loaded)) in (before, after)

    def test_corrupt_file_names_recovery(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path, "s")
        for f in (10, 20):
            store.save(grown_checkpoint(f))
        with open(store.path, "a") as fh:
            fh.write("{ not json\n")
        with caplog.at_level(logging.WARNING, logger="vidannot.chunker"):
            loaded = CheckpointStore(tmp_path, "s").load_latest()
        assert state_signature(loaded) == state_signature(grown_checkpoint(20))
        assert f"checkpoint {store.path} line 3 unreadable" in caplog.text

    def test_version_mismatch_rejected(self, tmp_path):
        # Schema v1 held each mask as full-frame runs, v2 named the file
        # before it, v3 held a mode in place of the chunk, v4 lacked the
        # entries a chunk's end trimmed, v5 held masks as run lengths and
        # outlines as integer lists, and v6 stored the next object id and the
        # last frame associated; only v7 loads.
        for version in (99, 1, 2, 3, 4, 5, 6):
            path = tmp_path / f"v{version}.jsonl"
            payload = small_checkpoint().to_payload()
            payload["schema_version"] = version
            write_log(path, payload)
            with pytest.raises(CheckpointError, match=f"version {version} is not 7"):
                load_checkpoint(path)

    def test_tracks_round_trip(self, tmp_path):
        # Tracks of fractional boxes and ages above 0, in the order the pass
        # holds them, load as they were saved.
        masklets = [masklet_with(i, {0: (4 * i, 0, 4 * i + 2, 2)}) for i in range(3)]
        tracks = [Track(2, BBox(8.25, 0, 10, 2.5), 0), Track(0, BBox(0, 0, 2, 2), 7)]
        ck = Checkpoint("s", 3, masklets, tracks, (0, 9), (24, 24), 10)
        path = tmp_path / "t.jsonl"
        save_checkpoint(ck, path)
        back, _ = load_checkpoint(path)
        assert back.tracks == tracks
        assert back.to_payload() == ck.to_payload()

    def test_older_track_keys_ignored(self, tmp_path):
        # Tracks once also held a last-seen frame and a class label; a line
        # whose tracks hold them loads the tracks without them.
        payload = small_checkpoint().to_payload()
        payload["tracks"][0].update(last_seen_frame=1, class_label="object")
        path = tmp_path / "o.jsonl"
        write_log(path, payload)
        back, _ = load_checkpoint(path)
        assert back.tracks == small_checkpoint().tracks
        assert back.to_payload() == small_checkpoint().to_payload()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bits", "not base64"),
            ("bits", [0, 81]),  # the run lengths of schema v5
            ("box", [1, 2, 3]),
            ("box", [20, 20, 9, 9]),  # the crop leaves the 24x24 frame
            ("polygon", [0, 0, 1, 1]),
            ("polygon", [1, 1, 9, 1, 9.5, 9]),
            # Each once loaded. A string id or confidence then failed the
            # sequence with a raw TypeError; a label of 7, a confidence of
            # 7.5 and an entry past the last frame were written out.
            ("object_id", "0"),
            ("object_id", True),
            ("object_id", -1),
            ("class_label", 7),
            ("confidence", "high"),
            ("confidence", 7.5),
            ("confidence", True),
            ("frame", 200),  # of a 200-frame sequence
            ("frame", -1),
            ("chunk frame", 6),  # after the end of chunk (0, 5)
            # Each once loaded: "00" in place of frame 0's entry, "+1" in
            # place of frame 1's, and " 1" and "1_0" as frames 1 and 10.
            ("key", "00"),
            ("key", "+1"),
            ("key", " 1"),
            ("key", "1_0"),
            # The 9x9 crop's 81 pixels take 11 bytes, all but the high bit of
            # the last one padding.
            pytest.param("bits", "/w==", id="bits-one byte"),
            pytest.param("bits", _b64(b"\xff" * 10), id="bits-a byte short"),
            pytest.param("bits", _b64(b"\xff" * 10 + b"\x81"), id="bits-a padding bit set"),
            ("bits", None),
            pytest.param("polygon", _b64(np.array([1, 1, 9, 1], dtype="<u2").tobytes()),
                         id="polygon-2 vertices"),
            pytest.param("polygon", _b64(np.array([1, 1, 9, 1, 9, 9, 1], dtype="<u2").tobytes()),
                         id="polygon-a half vertex"),
            pytest.param("polygon", "AQABAAkAAQAJAAkA!", id="polygon-not base64"),
            pytest.param("polygon", "AQABAAkAAQAJAAk", id="polygon-cut short of its padding"),
            # Crops that are not tight, each once loaded trimmed and so moved:
            # the 9x9 crop at (1, 1) with an empty column before it or an
            # empty row after it, and an empty crop off (0, 0).
            pytest.param("crop", ([0, 1, 10, 9], padded_bits(((0, 0), (1, 0)))),
                         id="crop-an empty first column"),
            pytest.param("crop", ([1, 1, 9, 10], padded_bits(((0, 1), (0, 0)))),
                         id="crop-an empty last row"),
            pytest.param("crop", ([3, 3, 0, 0], ""), id="crop-empty off the origin"),
        ],
    )
    def test_invalid_v2_payload_is_corruption(self, tmp_path, field, value):
        path = tmp_path / "p.jsonl"
        payload = small_checkpoint().to_payload()
        masklet = payload["masklets"][0]
        if field in ("object_id", "class_label"):
            masklet[field] = value
        elif field == "key":
            masklet["entries"][value] = masklet["entries"]["0"]
        elif field == "crop":
            masklet["entries"]["0"].update(box=value[0], bits=value[1])
        elif field.endswith("frame"):
            masklet["entries"][str(value)] = masklet["entries"]["0"]
            if field.startswith("chunk"):
                payload.update(chunk=[0, 5])
        else:
            masklet["entries"]["0"][field] = value
        write_log(path, payload)
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"width": 0, "height": 24, "num_frames": 200},
            {"width": 24, "height": 24, "num_frames": 5},  # last completed frame 5
            {"width": 24.0, "height": 24, "num_frames": 200},
            {"width": 24, "height": 24},
        ],
    )
    def test_invalid_v2_header_is_corruption(self, tmp_path, header):
        path = tmp_path / "h.jsonl"
        payload = small_checkpoint().to_payload()
        payload["header"] = header
        write_log(path, payload)
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"tracks": {}},
            {"tracks": None},
            {"tracks": [3]},
            {"tracks": [{"id": 0}]},
            {"tracks": [{"id": 0, "box": [1, 1, 5], "age": 0}]},
            {"tracks": [{"id": "0", "box": [1, 1, 5, 5], "age": 0}]},
            {"tracks": [{"id": True, "box": [1, 1, 5, 5], "age": 0}]},
            {"tracks": [{"id": 0, "box": [1, 1, 5, 5], "age": 0.0}]},
            {"tracks": [{"id": 0, "box": [1, 1, "5", 5], "age": 0}]},
            {"tracks": [{"id": 0, "box": [5, 1, 1, 5], "age": 0}]},  # inverted
            {"tracks": [{"id": 0, "box": [1, 1, float("inf"), 5], "age": 0}]},
            {"tracks": [{"id": 0, "box": [1, 1, float("nan"), 5], "age": 0}]},
            # The masklet holds object 0 alone: a track of object 1 would let
            # a resume give id 1 to a new object too.
            {"tracks": [{"id": 1, "box": [1, 1, 5, 5], "age": 0}]},
            {"tracks": [{"id": 0, "box": [1, 1, 5, 5], "age": 0},
                        {"id": 0, "box": [9, 1, 13, 5], "age": 1}]},
        ],
        ids=["no tracks", "a dict", "null", "a number", "no box or age", "a 3-number box",
             "a string id", "a boolean id", "a float age", "a string coordinate",
             "an inverted box", "an infinite coordinate", "a NaN coordinate",
             "a track of no object", "a track id repeated"],
    )
    def test_malformed_full_mode_tracks_are_corruption(self, tmp_path, fields):
        path = tmp_path / "a.jsonl"
        payload = small_checkpoint().to_payload()
        del payload["tracks"]
        payload.update(fields)
        write_log(path, payload)
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text",
        malformed_lines(),
        ids=["list", "number", "string", "no fields", "entries list", "entry list", "box number",
             "frame name"],
    )
    def test_any_malformed_line_is_corruption(self, tmp_path, text):
        # JSON of any shape that is not a valid line raises a CheckpointError,
        # never another exception.
        path = tmp_path / "m.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(CheckpointError, match="line 1 unreadable"):
            load_checkpoint(path)


class TestCheckpointStore:
    def test_latest_is_the_last_whole_line(self, tmp_path):
        # The save of the sequence's final frame is the log's last line; cut
        # short, the newest frame before it is the checkpoint.
        store = CheckpointStore(tmp_path, "s")
        store.save(grown_checkpoint(10))
        store.save(grown_checkpoint(20))
        assert store.load_latest().last_completed_frame == 20
        store.save(grown_checkpoint(199))
        assert store.load_latest().last_completed_frame == 199
        with open(store.path, "rb+") as fh:
            fh.truncate(store.path.stat().st_size - 1)
        assert state_signature(store.load_latest()) == state_signature(grown_checkpoint(20))

    def test_empty_dir_sentinel(self, tmp_path):
        assert CheckpointStore(tmp_path, "s").load_latest() is None

    def test_bad_mask_bits_fall_back_to_older(self, tmp_path):
        store = CheckpointStore(tmp_path, "s")
        store.save(grown_checkpoint(10))
        store.save(grown_checkpoint(20))

        def drop_a_byte(payload):
            entry = payload["masklets"][0]["entries"]["11"]
            entry["bits"] = _b64(base64.b64decode(entry["bits"])[:-1])

        edit_line(store.path, 2, drop_a_byte)
        assert state_signature(store.load_latest()) == state_signature(grown_checkpoint(10))

    def test_save_appends_only_entries_no_earlier_line_holds(self, tmp_path):
        store = CheckpointStore(tmp_path, "s")
        for f in (10, 20, 30):
            assert store.save(grown_checkpoint(f)) == tmp_path / "s_ckpt.jsonl"
        payloads = log_payloads(store.path)
        assert [p["last_completed_frame"] for p in payloads] == [10, 20, 30]
        assert not any("base" in p for p in payloads)
        frames = [
            {m["object_id"]: sorted(map(int, m["entries"])) for m in p["masklets"]}
            for p in payloads
        ]
        assert frames == [
            {0: list(range(11))},
            {0: list(range(11, 21)), 1: list(range(15, 21))},
            {0: list(range(21, 31)), 1: list(range(21, 31))},
        ]
        loaded = CheckpointStore(tmp_path, "s").load_latest()
        assert state_signature(loaded) == state_signature(grown_checkpoint(30))
        assert (loaded.frame_size, loaded.num_frames) == ((24, 24), 200)

    def test_load_cuts_a_torn_last_line_off_the_log(self, tmp_path):
        # A resume cuts the torn line 3 off the log before it appends; other
        # sequences' logs are left alone.
        store = CheckpointStore(tmp_path, "s")
        for f in (10, 20, 30):
            store.save(grown_checkpoint(f))
        lines = store.path.read_bytes().splitlines(keepends=True)
        store.path.write_bytes(b"".join(lines[:2]) + lines[2][:-5])
        (tmp_path / "t_ckpt.jsonl").write_text("{}\n")
        resumed = CheckpointStore(tmp_path, "s")
        assert state_signature(resumed.load_latest()) == state_signature(grown_checkpoint(20))
        assert store.path.read_bytes() == b"".join(lines[:2])
        resumed.save(grown_checkpoint(40))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s_ckpt.jsonl", "t_ckpt.jsonl"]
        assert [p["last_completed_frame"] for p in log_payloads(store.path)] == [10, 20, 40]
        assert state_signature(resumed.load_latest()) == state_signature(grown_checkpoint(40))

    def test_restart_starts_a_new_log(self, tmp_path):
        store = CheckpointStore(tmp_path, "s")
        store.save(grown_checkpoint(10))
        store.restart()
        path = store.save(grown_checkpoint(20, chunk=(0, 29)))
        assert [p["chunk"] for p in log_payloads(path)] == [[0, 29]]
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert state_signature(store.load_latest()) == state_signature(grown_checkpoint(20, chunk=(0, 29)))


def repeat_first_frame(payload: dict) -> None:
    entries = payload["masklets"][0]["entries"]
    first = min(map(int, entries))
    entries[str(first - 1)] = entries[str(first)]


def repeat_a_track(payload: dict) -> None:
    track = {"id": 0, "box": [1, 1, 5, 5], "age": 0}
    payload["tracks"] = [track, track]


def entry_past_the_last_frame(payload: dict) -> None:
    entries = payload["masklets"][0]["entries"]
    entries[str(payload["header"]["num_frames"])] = entries[max(entries, key=int)]


# How a line of a log is damaged: a function of the line's text, newline
# included, or of its payload.
LINE_DAMAGE = {
    "corrupt": lambda text: "{ not json\n",
    "without its newline": lambda text: text[:-1],
    "of another sequence": lambda p: p.update(sequence_id="t"),
    # Every line of the log is inside chunk (0, 199), so the next must be of it too.
    "of another chunk": lambda p: p.update(chunk=[0, 99]),
    "with a chunk past the last frame": lambda p: p.update(chunk=[0, 200]),
    "of another frame size": lambda p: p["header"].update(width=32),
    "of another frame count": lambda p: p["header"].update(num_frames=300),
    "repeating earlier frames": repeat_first_frame,
    "ten frames earlier": lambda p: p.update(last_completed_frame=p["last_completed_frame"] - 10),
    # Objects 0 and 1 are the only ones of lines 1 to 3.
    "with a track of no object": lambda p: p.update(tracks=[{"id": 7, "box": [1, 1, 5, 5], "age": 0}]),
    "with a track id repeated": repeat_a_track,
    "with a string object id": lambda p: p["masklets"][0].update(object_id="0"),
    "with a confidence above 1": lambda p: next(iter(p["masklets"][0]["entries"].values())).update(
        confidence=7.5
    ),
    "with an entry past the last frame": entry_past_the_last_frame,
}
TEXT_DAMAGE = {"corrupt", "without its newline"}


class TestDamagedLog:
    """A log of the lines of frames 10, 20 and 30, one of them damaged. Cut
    short, it ends in the middle of that line. A damaged line 2 or 3 loads
    the lines before it and is cut off the log with the lines after it (a
    line 2 without its newline runs into line 3, so neither loads); a bad
    line 1 raises a CheckpointError naming the file."""

    @staticmethod
    def damaged(tmp_path, line: int, damage: str) -> tuple[CheckpointStore, list[str]]:
        store = CheckpointStore(tmp_path, "s")
        for f in (10, 20, 30):
            store.save(grown_checkpoint(f))
        lines = store.path.read_text().splitlines(keepends=True)
        text = lines[line - 1]
        if damage == "cut short":
            damaged = lines[: line - 1] + [text[: len(text) // 2]]
        elif damage in TEXT_DAMAGE:
            damaged = lines[: line - 1] + [LINE_DAMAGE[damage](text)] + lines[line:]
        else:
            payload = json.loads(text)
            LINE_DAMAGE[damage](payload)
            damaged = lines[: line - 1] + [json.dumps(payload) + "\n"] + lines[line:]
        store.path.write_text("".join(damaged))
        return store, lines

    def check(self, tmp_path, line: int, damage: str) -> None:
        store, lines = self.damaged(tmp_path, line, damage)
        loaded = CheckpointStore(tmp_path, "s").load_latest()
        assert state_signature(loaded) == state_signature(grown_checkpoint(10 * (line - 1)))
        assert store.path.read_text() == "".join(lines[: line - 1])

    @pytest.mark.parametrize(
        "line, damage", [(line, damage) for line in (2, 3) for damage in ["cut short", *LINE_DAMAGE]]
    )
    def test_damaged_line_loads_the_lines_before_it(self, tmp_path, line, damage):
        self.check(tmp_path, line, damage)

    @pytest.mark.parametrize(
        "damage",
        [
            "corrupt",
            "without its newline",
            "of another sequence",
            "with a chunk past the last frame",
            "with a track of no object",
            "with a track id repeated",
            "with a string object id",
            "with a confidence above 1",
            "with an entry past the last frame",
        ],
    )
    def test_bad_first_line_raises_naming_the_file(self, tmp_path, damage):
        store, _ = self.damaged(tmp_path, 1, damage)
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {store.path} line 1")):
            CheckpointStore(tmp_path, "s").load_latest()

    def test_first_line_cut_short_is_no_checkpoint(self, tmp_path):
        # A crash during a log's first save leaves no whole line: the run
        # starts over, as it would had the crash come before the save.
        store, _ = self.damaged(tmp_path, 1, "cut short")
        assert CheckpointStore(tmp_path, "s").load_latest() is None
        assert store.path.read_bytes() == b""


def build_sequence(num_frames=60, n=3, seed=14, size=(320, 240)):
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(
            frame_width=size[0],
            frame_height=size[1],
            num_objects=n,
            num_frames=num_frames,
            velocities=tuple(((-1) ** i * 0.3, 0.2 * (i % 2)) for i in range(n)),
            rng_seed=seed,
            occlusion_enabled=False,
        )
    )
    det = SyntheticDetector(gt, DetectionNoise())
    prop = SyntheticPropagator(gt)
    dets = [det.detect(t) for t in range(num_frames)]
    return gt, det, prop, dets


def noisy_sequence(num_frames=60, seed=3):
    """A W2-style sequence: occlusion, missed, spurious and jittered
    detections, and 5 % propagation dropout, so covered detections are
    common."""
    gt = generate_synthetic_sequence(
        SyntheticWorldConfig(
            num_objects=6, num_frames=num_frames, rng_seed=seed, occlusion_enabled=True
        )
    )
    det = SyntheticDetector(
        gt, DetectionNoise(miss_rate=0.3, fp_rate=2.0, jitter_sigma=1.0, rng_seed=5)
    )
    prop = SyntheticPropagator(gt, PropagationDegradation(dropout_rate=0.05, rng_seed=6))
    dets = [det.detect(t) for t in range(num_frames)]
    return gt, det, prop, dets


def masklets_signature(masklets):
    return {
        m.object_id: [
            (f, m.entries[f].mask, m.entries[f].confidence)
            for f in m.frames()
        ]
        for m in masklets
    }


RUN_KW = dict(assoc_cfg=AssocConfig(), ash_cfg=AshConfig(alpha=1.0))


def late_birth_sequence():
    """A 60-frame sequence whose object 2 goes undetected before frame 12,
    and a factory of propagators that fail on any request of more than 20
    frames from frame 10 on, each recording its requests' frames in the
    list it is given."""
    gt, det, prop, dets = build_sequence(num_frames=60)
    dets = [[d for d in ds if t >= 12 or d.box != gt[t].objects[2].box] for t, ds in enumerate(dets)]

    def span_limited(requests=None):
        class SpanLimited:
            def propagate(self, box, start, frames):
                if requests is not None:
                    requests.append(list(frames))
                if start >= 10 and len(frames) > 20:
                    raise RuntimeError("request longer than a chunk")
                return prop.propagate(box, start, frames)

        return SpanLimited()

    return dets, span_limited, det.frame_size


def postprocess(masklets, num_frames):
    return vidannot.ash.postprocess_masklets(masklets, range(num_frames), RUN_KW["ash_cfg"])


class RecordedStarts:
    """A propagator that records each request as (start frame, frames), and
    gives the object whose request starts at `start` with box `box` the
    masks of `masks`, {frame: mask}, at those frames in place of its own."""

    def __init__(self, inner, start=None, box=None, masks=None):
        self.inner, self.requests = inner, []
        self.script = (start, box, masks or {})

    @property
    def starts(self) -> list[int]:
        return [start for start, _ in self.requests]

    def propagate(self, box, start, frames):
        self.requests.append((start, list(frames)))
        masks = self.inner.propagate(box, start, frames)
        script_start, script_box, script_masks = self.script
        if (start, box) == (script_start, script_box):
            masks = [script_masks.get(f, mask) for f, mask in zip(frames, masks)]
        return masks


def ids_holding(masklets, gt, identity, frames):
    """The ids of the masklets whose mask holds ground-truth object
    `identity` (mask IoU above 0.5) at some frame of `frames`."""
    return {
        m.object_id
        for m in masklets
        for f, e in m.entries.items()
        if f in frames and iou_mask(e.mask, gt[f].objects[identity].mask) > 0.5
    }


class TestCoveredDetections:
    """A detection that a live masklet's mask covers is that object seen
    again: it starts no propagation."""

    @pytest.mark.parametrize("mode", ["full", "chunk"])
    def test_a_second_box_of_a_live_object_starts_no_propagation(self, mode):
        # Object 0 gets a second box, shifted by (3, 2) px, at frame 10: its
        # IoU with the object's own box is about 0.6. Its masklet loses
        # frame 20, which a duplicate propagated from frame 10 would fill
        # under an id of its own.
        gt, det, prop, dets = build_sequence(num_frames=40)
        b = gt[10].objects[0].box
        dets[10] = [*dets[10], Detection(BBox(b.x1 + 3, b.y1 + 2, b.x2 + 3, b.y2 + 2), "object", 0.8)]
        recorded = RecordedStarts(prop, 0, gt[0].objects[0].box, {20: BinaryMask.zeros(320, 240)})
        out = run_sequence(
            dets, recorded, det.frame_size, chunk_cfg=ChunkerConfig(chi=30, omega=5),
            mode=mode, **RUN_KW
        )
        # Chunk (20, 39) continues the three objects from their masks at frame 29.
        assert recorded.starts == ([0, 0, 0] if mode == "full" else [0, 0, 0, 29, 29, 29])
        assert sorted(m.object_id for m in out) == [0, 1, 2]

    def test_a_covered_detection_moves_its_unmatched_track(self, tmp_path):
        # Object 0 moves 2 px a frame and goes undetected over frames 5-9, so
        # its frame-10 box has IoU 1/3 with the box its track last took, at
        # frame 4: no track matches it. Its masklet covers it, so the track
        # takes the box and is matched from then on; a track left unmatched
        # would be retired after 20 more frames.
        gt = generate_synthetic_sequence(
            SyntheticWorldConfig(
                num_objects=3, num_frames=30, velocities=((2.0, 0.0), (0.3, 0.2), (-0.3, 0.0)),
                rng_seed=14, occlusion_enabled=False,
            )
        )
        det = SyntheticDetector(gt, DetectionNoise())
        dets = [det.detect(t) for t in range(30)]
        for t in range(5, 10):
            dets[t] = [d for d in dets[t] if d.box != gt[t].objects[0].box]
        recorded = RecordedStarts(SyntheticPropagator(gt))
        run_sequence(
            dets, recorded, det.frame_size, chunk_cfg=ChunkerConfig(), mode="full",
            checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW
        )
        assert recorded.starts == [0, 0, 0]
        state, _ = load_checkpoint(tmp_path / "s_ckpt.jsonl")
        box = gt[29].objects[0].box
        assert Track(0, box, 0) in state.tracks


class TestChunksContinueLiveObjects:
    """Each chunk after the first continues the objects whose masks are live
    in its seed window, [start, previous chunk's end], under their own ids,
    and tracks only the frames after the previous chunk's end. Chunks (0,
    29) and (20, 39)."""

    CFG = ChunkerConfig(chi=30, omega=5)

    def test_an_object_first_detected_inside_the_seed_window_keeps_its_id(self):
        # Object 2 is first detected at frame 22. Object 0's propagation from
        # frame 0 strays onto object 2 over frames 22-24 and covers its
        # detections there, so the first chunk opens object 2 at frame 25.
        # A chunk that tracked frames 20-29 again would open it at frame 22.
        gt, det, prop, dets = build_sequence(num_frames=40)
        dets = [[d for d in ds if t >= 22 or d.box != gt[t].objects[2].box] for t, ds in enumerate(dets)]
        strayed = {f: gt[f].objects[2].mask for f in (22, 23, 24)}
        recorded = RecordedStarts(prop, 0, gt[0].objects[0].box, strayed)
        out = run_sequence(
            dets, recorded, det.frame_size, chunk_cfg=self.CFG, mode="chunk", **RUN_KW
        )
        assert plan_chunks([len(d) for d in dets], self.CFG) == ((0, 29), (20, 39))
        assert len(ids_holding(out, gt, 2, range(25, 40))) == 1
        assert 25 in recorded.starts and 22 not in recorded.starts

    def test_an_object_empty_at_the_previous_end_keeps_its_id(self):
        # Object 0's masks from frame 0 are empty over frames 26-29, so the
        # first chunk's masklet ends at frame 25; it seeds the second chunk
        # from there.
        gt, det, prop, dets = build_sequence(num_frames=40)
        empty = {f: BinaryMask.zeros(320, 240) for f in range(26, 30)}
        recorded = RecordedStarts(prop, 0, gt[0].objects[0].box, empty)
        out = run_sequence(
            dets, recorded, det.frame_size, chunk_cfg=self.CFG, mode="chunk", **RUN_KW
        )
        assert ids_holding(out, gt, 0, range(40)) == {0}
        assert recorded.starts == [0, 0, 0, 25, 29, 29]

    def test_a_chunk_keeps_a_tail_entry_at_or_below_the_mask_floor(self):
        # Object 0's masks from frame 0 are a 3-pixel L, at epsilon_mask,
        # over frames 28-29, the first chunk's last frames; it is live again
        # in the second chunk, seeded from frame 27. The L is outlined, so
        # it is written, in chunk mode as in full mode.
        gt, det, prop, dets = build_sequence(num_frames=40)
        script = {}
        for f in (28, 29):
            x, y = int(gt[f].objects[0].box.x1), int(gt[f].objects[0].box.y1)
            data = np.zeros((240, 320), dtype=bool)
            data[y, x] = data[y, x + 1] = data[y + 1, x] = True
            script[f] = BinaryMask(data)
        outputs = {}
        for mode in ("full", "chunk"):
            recorded = RecordedStarts(prop, 0, gt[0].objects[0].box, script)
            out = run_sequence(
                dets, recorded, det.frame_size, chunk_cfg=self.CFG, mode=mode, **RUN_KW
            )
            outputs[mode] = next(m for m in out if m.object_id == 0)
        assert RUN_KW["ash_cfg"].epsilon_mask == 3
        for m in outputs.values():
            assert m.frames() == list(range(40))
            assert all(m.entries[f].mask.count == 3 for f in (28, 29))
            assert all(m.entries[f].polygon is not None for f in (28, 29))

    def test_the_scans_per_frame_do_not_grow_with_the_sequence(self, monkeypatch):
        # The one masklet list keeps every object born so far, most of them
        # short-lived false positives here; the live and seed scans read only
        # the chunk's masklets, so their reads per frame stay flat. Scanning
        # the whole list read about 100 masks a frame at 90 frames and 400 at
        # 360; the chunk's masklets, about 35 at both.
        reads = []
        real_live_box = vidannot.chunker._live_box

        def counted(e, epsilon_mask):
            reads.append(e)
            return real_live_box(e, epsilon_mask)

        monkeypatch.setattr(vidannot.chunker, "_live_box", counted)
        per_frame = []
        for num_frames in (90, 360):
            reads.clear()
            gt, det, prop, dets = noisy_sequence(num_frames=num_frames)
            run_sequence(dets, prop, det.frame_size, chunk_cfg=self.CFG, mode="chunk", **RUN_KW)
            per_frame.append(len(reads) / num_frames)
        assert per_frame[1] < 1.5 * per_frame[0]

    def test_no_request_holds_a_frame_a_chunk_before_tracked(self):
        gt, det, prop, dets = noisy_sequence(num_frames=90)
        recorded = RecordedStarts(prop)
        run_sequence(dets, recorded, det.frame_size, chunk_cfg=self.CFG, mode="chunk", **RUN_KW)
        ends = [end for _, end in plan_chunks([len(d) for d in dets], self.CFG)]
        tracked = [range(prev_end + 1, end + 1) for prev_end, end in zip([-1, *ends], ends)]
        for _, frames in recorded.requests:
            chunk = next(r for r in tracked if frames[0] in r)
            assert frames == list(range(frames[0], chunk.stop))
        # Seeds propagate from their frame in the window, before the frames.
        assert any(start < frames[0] for start, frames in recorded.requests)


class TestRunSequence:
    def test_full_and_chunk_agree(self):
        gt, det, prop, dets = build_sequence(num_frames=120)
        cfg = ChunkerConfig(chi=50, omega=10)
        full = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="full", **RUN_KW)
        chunk = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="chunk", **RUN_KW)
        fm = {m.object_id: m for m in full}
        cm = {m.object_id: m for m in chunk}
        assert set(fm) == set(cm)
        for oid in fm:
            assert fm[oid].frames() == cm[oid].frames()
            for f in fm[oid].frames():
                assert iou_mask(fm[oid].entries[f].mask, cm[oid].entries[f].mask) >= 0.99

    def test_propagation_failure_falls_back(self):
        gt, det, prop, dets = build_sequence(num_frames=120)

        class SpanLimited:
            def propagate(self, box, start, frames):
                if len(frames) > 100:
                    raise RuntimeError("simulated resource exhaustion")
                return prop.propagate(box, start, frames)

        cfg = ChunkerConfig(chi=50, omega=10)
        out = run_sequence(dets, SpanLimited(), det.frame_size, chunk_cfg=cfg, mode="auto", **RUN_KW)
        assert sorted(m.object_id for m in out) == [0, 1, 2]
        all_frames = {f for m in out for f in m.frames()}
        assert max(all_frames) == 119

    def test_budget_triggers_fallback(self):
        gt, det, prop, dets = build_sequence(num_frames=60)
        cfg = ChunkerConfig(chi=30, omega=5, full_budget=100)
        out = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="auto", **RUN_KW)
        assert sorted(m.object_id for m in out) == [0, 1, 2]

    def test_full_mode_failure_raises(self):
        gt, det, prop, dets = build_sequence(num_frames=60)
        cfg = ChunkerConfig(full_budget=10)
        with pytest.raises(ProcessingBudgetExceeded):
            run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="full", **RUN_KW)

    def test_both_modes_failing_reports_checkpoint(self, tmp_path):
        gt, det, prop, dets = build_sequence(num_frames=60)

        class Broken:
            def propagate(self, box, start, frames):
                raise RuntimeError("always fails")

        cfg = ChunkerConfig(chi=30, omega=5)
        with pytest.raises(RuntimeError) as err:
            run_sequence(
                dets, Broken(), det.frame_size, chunk_cfg=cfg, mode="auto",
                checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW
            )
        assert "both processing modes failed" in str(err.value)

    def test_chunk_mode_failure_names_only_chunk_mode(self, tmp_path):
        # Chunks (0, 29) and (25, 54): the second chunk's births fail after
        # the first chunk's line is written.
        gt, det, prop, dets = build_sequence(num_frames=60)

        class FailsLate:
            def propagate(self, box, start, frames):
                if frames[-1] >= 40:
                    raise RuntimeError("fails late")
                return prop.propagate(box, start, frames)

        cfg = ChunkerConfig(chi=30, omega=5)
        with pytest.raises(RuntimeError) as err:
            run_sequence(
                dets, FailsLate(), det.frame_size, chunk_cfg=cfg, mode="chunk",
                checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW
            )
        message = str(err.value)
        assert message.startswith("chunk mode failed: FailsLate.propagate failed for object")
        assert message.endswith(f"; last checkpoint: {tmp_path / 's_ckpt.jsonl'}")

    @pytest.mark.parametrize("kill_at", [9, 27, 45])
    @pytest.mark.parametrize("build", [build_sequence, noisy_sequence], ids=["oracle", "noisy"])
    def test_kill_and_resume_bit_identical_full(self, tmp_path, kill_at, build):
        """Under noise, a resume covers detections by the masks the log
        restored, as the uninterrupted run covered them."""
        gt, det, prop, dets = build(num_frames=60)
        cfg = ChunkerConfig(checkpoint_interval=10)
        ref = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="full", **RUN_KW)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == kill_at:
                raise Killed()

        ckdir = tmp_path / f"k{kill_at}"
        with pytest.raises(Killed):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode="full",
                checkpoint_dir=ckdir, sequence_id="s", on_frame=bomb, **RUN_KW
            )
        resumed = run_sequence(
            dets, prop, det.frame_size, chunk_cfg=cfg, mode="full",
            checkpoint_dir=ckdir, sequence_id="s", resume=True, **RUN_KW
        )
        assert masklets_signature(resumed) == masklets_signature(ref)

    @pytest.mark.parametrize("kill", ["after a boundary", "mid-chunk"])
    @pytest.mark.parametrize("build", [build_sequence, noisy_sequence], ids=["oracle", "noisy"])
    def test_kill_and_resume_chunk_mode(self, tmp_path, kill, build):
        """The resume seeds its chunk from the masklets the log restored, as
        the uninterrupted run seeded it from the masklets it held. Killed
        mid-chunk, it continues the chunk after its last save there, and
        propagates fewer frames than a resume from the chunk's start."""
        gt, det, prop, dets = build(num_frames=90)
        cfg = ChunkerConfig(chi=30, omega=5, checkpoint_interval=10)
        ref = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="chunk", **RUN_KW)
        ends = [end for _, end in plan_chunks([len(d) for d in dets], cfg)]
        # Mid-chunk, the kill comes after a save inside the third chunk.
        kill_at = ends[1] + (1 if kill == "after a boundary" else 12)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == kill_at:
                raise Killed()

        ckdir = tmp_path / "c"
        with pytest.raises(Killed):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode="chunk",
                checkpoint_dir=ckdir, sequence_id="s", on_frame=bomb, **RUN_KW
            )
        log = ckdir / "s_ckpt.jsonl"
        saves = [t for t in range(kill_at) if t in ends or (t + 1) % 10 == 0]
        assert [p["last_completed_frame"] for p in log_payloads(log)] == saves
        assert (saves[-1] > ends[1]) == (kill == "mid-chunk")
        # The same log cut back to the second chunk's end.
        cut = tmp_path / "cut"
        cut.mkdir()
        lines = log.read_text().splitlines(keepends=True)
        (cut / log.name).write_text("".join(lines[: saves.index(ends[1]) + 1]))
        propagated = []
        for ckpt_dir in (ckdir, cut):
            recorded = RecordedStarts(prop)
            resumed = run_sequence(
                dets, recorded, det.frame_size, chunk_cfg=cfg, mode="chunk",
                checkpoint_dir=ckpt_dir, sequence_id="s", resume=True, **RUN_KW
            )
            assert masklets_signature(resumed) == masklets_signature(ref)
            propagated.append(sum(len(frames) for _, frames in recorded.requests))
        if kill == "mid-chunk":
            assert propagated[0] < propagated[1]
        else:
            assert propagated[0] == propagated[1]

    def test_fresh_run_ignores_an_older_runs_checkpoints(self, tmp_path):
        # Run A completes; run B starts fresh in the same directory under the
        # same sequence id and is killed after its frame-29 checkpoint. The
        # resume must continue B, not load A's final checkpoint.
        cfg = ChunkerConfig(checkpoint_interval=10)
        _, det_a, prop_a, dets_a = build_sequence(num_frames=50, seed=14)
        run_sequence(
            dets_a, prop_a, det_a.frame_size, chunk_cfg=cfg, mode="full",
            checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW
        )
        _, det, prop, dets = build_sequence(num_frames=50, n=2, seed=21)
        ref = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode="full", **RUN_KW)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == 30:
                raise Killed()

        with pytest.raises(Killed):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode="full",
                checkpoint_dir=tmp_path, sequence_id="s", on_frame=bomb, **RUN_KW
            )
        resumed = run_sequence(
            dets, prop, det.frame_size, chunk_cfg=cfg, mode="full",
            checkpoint_dir=tmp_path, sequence_id="s", resume=True, **RUN_KW
        )
        assert masklets_signature(resumed) == masklets_signature(ref)

    @pytest.mark.parametrize("seq", ["s", "s[1]"])
    def test_fresh_run_deletes_only_its_own_sequence_files(self, tmp_path, seq):
        # Glob metacharacters in a sequence id match literally: "s[1]" must
        # not reach "s1"'s files.
        # The log, and files of the file-per-save format older versions wrote.
        own = [f"{seq}_ckpt.jsonl", f"{seq}_ckpt_final.json", f"{seq}_ckpt_final.json.bak"]
        own.append(f"{seq}_ckpt_frame_0049.json.tmp")
        others = ["notes.txt", "s1_ckpt.jsonl", "s1_ckpt_final.json", "s2_ckpt_final.json"]
        # The log of a sequence whose id begins with this one's.
        others.append(f"{seq}_ckpt_x_ckpt.jsonl")
        for name in own + others:
            (tmp_path / name).write_text("{}")
        _, det, prop, dets = build_sequence(num_frames=12)
        run_sequence(
            dets, prop, det.frame_size, chunk_cfg=ChunkerConfig(checkpoint_interval=100),
            mode="full", checkpoint_dir=tmp_path, sequence_id=seq, **RUN_KW
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(others + [own[0]])
        assert CheckpointStore(tmp_path, seq).load_latest().last_completed_frame == 11

    def test_outlines_traced_at_most_once_per_output_entry(self, monkeypatch):
        # A W2-style world: occlusion, missed, spurious and jittered
        # detections, and propagation dropout, so merging, stitching and
        # pruning discard many propagated entries.
        gt = generate_synthetic_sequence(
            SyntheticWorldConfig(num_objects=5, num_frames=80, rng_seed=2, occlusion_enabled=True)
        )
        det = SyntheticDetector(
            gt, DetectionNoise(miss_rate=0.3, fp_rate=2.0, jitter_sigma=1.0, rng_seed=7)
        )
        prop = SyntheticPropagator(gt, PropagationDegradation(dropout_rate=0.05, rng_seed=8))
        dets = [det.detect(t) for t in range(80)]
        traced, propagated = [], []
        real_trace, real_propagate = vidannot.ash.mask_to_polygon, vidannot.chunker.propagate_batch

        def counted_trace(mask, *args, **kwargs):
            traced.append(mask)
            return real_trace(mask, *args, **kwargs)

        def counted_propagate(*args):
            made = real_propagate(*args)
            propagated.extend(e for m in made for e in m.entries.values())
            return made

        monkeypatch.setattr(vidannot.ash, "mask_to_polygon", counted_trace)
        monkeypatch.setattr(vidannot.chunker, "propagate_batch", counted_propagate)
        out = run_sequence(
            dets, prop, det.frame_size, chunk_cfg=ChunkerConfig(chi=30, omega=5),
            mode="chunk", **RUN_KW
        )
        kept = sum(len(m.entries) for m in out)
        assert len(propagated) > 2 * kept  # the scene does discard entries
        assert 0 < len(traced) <= kept

    @pytest.mark.parametrize("mode", ["full", "chunk"])
    def test_on_frame_once_per_frame(self, mode):
        gt, det, prop, dets = build_sequence(num_frames=120)
        seen = []
        run_sequence(
            dets, prop, det.frame_size, chunk_cfg=ChunkerConfig(chi=50, omega=10),
            mode=mode, on_frame=seen.append, **RUN_KW
        )
        assert seen == list(range(120))

    @pytest.mark.parametrize("mode", ["full", "chunk"])
    @pytest.mark.parametrize("build", [build_sequence, noisy_sequence], ids=["oracle", "noisy"])
    def test_every_save_holds_the_whole_state_once(self, tmp_path, mode, build, monkeypatch):
        # The writer appends only each masklet's frames after its last saved
        # one; that holds the whole state only because a masklet grows at its
        # tail alone, under noise too. A save comes every 10 frames and at
        # each chunk's end.
        gt, det, prop, dets = build(num_frames=90)
        cfg = ChunkerConfig(chi=30, omega=5, checkpoint_interval=10)
        real_save = CheckpointStore.save
        checked = []

        def save(store, ckpt):
            path = real_save(store, ckpt)
            loaded = CheckpointStore(store.directory, store.sequence_id).load_latest()
            assert state_signature(loaded) == state_signature(ckpt)
            checked.append(path)
            return path

        monkeypatch.setattr(CheckpointStore, "save", save)
        out = run_sequence(
            dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode,
            checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW
        )
        chunks = plan_chunks([len(d) for d in dets], cfg) if mode == "chunk" else ((0, 89),)
        assert len(checked) == len({*range(9, 90, 10), *(end for _, end in chunks)})
        assert [p.name for p in tmp_path.iterdir()] == ["s_ckpt.jsonl"]
        written = log_payloads(tmp_path / "s_ckpt.jsonl")
        assert len(written) == len(checked)
        final = CheckpointStore(tmp_path, "s").load_latest()
        # Each masklet frame is in exactly one line, and the lines hold no
        # entry that the final state lacks.
        held = Counter((m["object_id"], f) for p in written for m in p["masklets"] for f in m["entries"])
        assert set(held.values()) == {1}
        kept = {(m.object_id, str(f)) for m in final.masklets for f in m.entries}
        assert kept == set(held)
        assert masklets_signature(out) == masklets_signature(
            postprocess(final.masklets, 90)
        )

    @pytest.mark.parametrize("mode", ["full", "chunk"])
    @pytest.mark.parametrize("case", ["frame size", "frame count"])
    def test_resume_rejects_a_checkpoint_of_other_geometry(self, tmp_path, mode, case):
        # The checkpoint is of a 320x240, 60-frame sequence; the resume runs
        # under the same id on a 256x192 or a 30-frame one.
        cfg = ChunkerConfig(chi=40, omega=5, checkpoint_interval=10)
        _, det, prop, dets = build_sequence(num_frames=60)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == 50:
                raise Killed()

        with pytest.raises(Killed):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode,
                checkpoint_dir=tmp_path, sequence_id="s", on_frame=bomb, **RUN_KW
            )
        if case == "frame size":
            _, det, prop, dets = build_sequence(num_frames=60, size=(256, 192))
            expected = "320x240.*256x192"
        else:
            _, det, prop, dets = build_sequence(num_frames=30)
            expected = "60 frames.* 30"
        with pytest.raises(CheckpointError, match=expected):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode,
                checkpoint_dir=tmp_path, sequence_id="s", resume=True, **RUN_KW
            )

    @pytest.mark.parametrize("mode", ["full", "chunk", "auto"])
    def test_resume_over_a_v1_file_raises_naming_it(self, tmp_path, mode):
        # Schema v1 stored each mask as full-frame runs, v3 a mode in place
        # of the chunk, v4 lacked the entries a chunk's end trimmed, v5
        # stored run lengths and integer lists, and v6 the associator's
        # next_id and last frame; none loads any more. A run that does not
        # resume deletes each with the sequence's other files.
        _, det, prop, dets = build_sequence(num_frames=30)
        v1 = tmp_path / "s_ckpt_frame_0009.json"
        log = tmp_path / "s_ckpt.jsonl"
        state = {"next_id": 0, "last_frame": 9, "tracks": []}
        logged = "chunk" if mode == "chunk" else "full"
        old_files = [
            (v1, {"schema_version": 1, "mode": logged, "chunk_index": 0}),
            (log, {"schema_version": 3, "mode": logged,
                   "header": {"width": 320, "height": 240, "num_frames": 30}}),
            (log, {"schema_version": 4, "chunk": [0, 9] if mode == "chunk" else [0, 29],
                   "header": {"width": 320, "height": 240, "num_frames": 30, "epsilon_mask": 3}}),
            (log, {"schema_version": 5, "chunk": [0, 9] if mode == "chunk" else [0, 29],
                   "header": {"width": 320, "height": 240, "num_frames": 30}}),
            (log, {"schema_version": 6, "chunk": [0, 9] if mode == "chunk" else [0, 29],
                   "header": {"width": 320, "height": 240, "num_frames": 30}}),
        ]
        kw = dict(
            chunk_cfg=ChunkerConfig(chi=10, omega=2), mode=mode, checkpoint_dir=tmp_path,
            sequence_id="s",
        )
        for path, fields in old_files:
            path.write_text(json.dumps({
                "sequence_id": "s", "last_completed_frame": 9, "assoc_state": state,
                "masklets": [], **fields,
            }) + "\n")
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                run_sequence(dets, prop, det.frame_size, resume=True, **kw, **RUN_KW)
            run_sequence(dets, prop, det.frame_size, **kw, **RUN_KW)
            assert [p.name for p in tmp_path.iterdir()] == ["s_ckpt.jsonl"]
            assert {p["schema_version"] for p in log_payloads(log)} == {7}

    def test_full_checkpoint_invalid_for_chunk_mode(self, tmp_path, caplog):
        # A chunk-mode resume over a finished full-mode log starts over, and
        # so does a full-mode resume over the chunk-mode log it leaves.
        gt, det, prop, dets = build_sequence(num_frames=60)
        cfg = ChunkerConfig(chi=30, omega=5, checkpoint_interval=10)
        kw = dict(chunk_cfg=cfg, checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW)
        run_sequence(dets, prop, det.frame_size, mode="full", **kw)
        log = tmp_path / "s_ckpt.jsonl"
        for logged, mode in [("full", "chunk"), ("chunk", "full")]:
            fresh = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode, **RUN_KW)
            seen = []
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="vidannot.chunker"):
                out = run_sequence(
                    dets, prop, det.frame_size, mode=mode, resume=True, on_frame=seen.append, **kw
                )
            assert seen == list(range(60))
            assert masklets_signature(out) == masklets_signature(fresh)
            assert [r.getMessage() for r in caplog.records] == [
                f"checkpoint {log} is of {logged} mode; {mode} mode starts over"
            ]
            assert {p["chunk"] == [0, 59] for p in log_payloads(log)} == {mode == "full"}

    def test_auto_resume_continues_a_fallback_chunk_log(self, tmp_path):
        # Object 2 is first detected at frame 12, and requests of more than
        # a chunk fail from frame 10 on, so full mode writes its frame-9 line
        # and falls back. Chunks (0, 19), (12, 31), (24, 43), (36, 55) and
        # (48, 59), saved every 10 frames and at their ends: the kill at
        # frame 50 leaves the lines up to frame 49, and the resume tracks
        # chunk (36, 55) from frame 50 on.
        dets, span_limited, frame_size = late_birth_sequence()
        cfg = ChunkerConfig(chi=20, omega=4, checkpoint_interval=10)
        ref = run_sequence(dets, span_limited(), frame_size, chunk_cfg=cfg, mode="auto", **RUN_KW)
        kw = dict(chunk_cfg=cfg, mode="auto", checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == 50:
                raise Killed()

        with pytest.raises(Killed):
            run_sequence(dets, span_limited(), frame_size, on_frame=bomb, **kw)
        log = tmp_path / "s_ckpt.jsonl"
        before = log_payloads(log)
        assert [(p["chunk"], p["last_completed_frame"]) for p in before] == [
            ([0, 19], 9), ([0, 19], 19), ([12, 31], 29), ([12, 31], 31), ([24, 43], 39),
            ([24, 43], 43), ([36, 55], 49),
        ]
        requests, seen = [], []
        resumed = run_sequence(
            dets, span_limited(requests), frame_size, resume=True, on_frame=seen.append, **kw
        )
        assert max(len(frames) for frames in requests) <= cfg.chi
        assert min(frames[0] for frames in requests) > 49
        assert seen == list(range(50, 60))
        after = log_payloads(log)
        assert after[:7] == before
        assert [(p["chunk"], p["last_completed_frame"]) for p in after[7:]] == [
            ([36, 55], 55), ([48, 59], 59)
        ]
        assert masklets_signature(resumed) == masklets_signature(ref)

    def test_auto_resume_reads_the_log_once(self, tmp_path, monkeypatch):
        # The resumed full attempt fails again at frame 12; its fallback
        # starts chunk mode over without reading the log a second time.
        dets, span_limited, frame_size = late_birth_sequence()
        cfg = ChunkerConfig(chi=20, omega=4, checkpoint_interval=10)
        ref = run_sequence(dets, span_limited(), frame_size, chunk_cfg=cfg, mode="auto", **RUN_KW)
        kw = dict(chunk_cfg=cfg, mode="auto", checkpoint_dir=tmp_path, sequence_id="s", **RUN_KW)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == 10:
                raise Killed()

        with pytest.raises(Killed):
            run_sequence(dets, span_limited(), frame_size, on_frame=bomb, **kw)
        log = tmp_path / "s_ckpt.jsonl"
        assert [(p["chunk"], p["last_completed_frame"]) for p in log_payloads(log)] == [([0, 59], 9)]
        loaded = []
        real_load = vidannot.chunker.load_checkpoint

        def load(path):
            loaded.append(path)
            return real_load(path)

        monkeypatch.setattr(vidannot.chunker, "load_checkpoint", load)
        resumed = run_sequence(dets, span_limited(), frame_size, resume=True, **kw)
        assert loaded == [log]
        assert masklets_signature(resumed) == masklets_signature(ref)

    def resume_past_bad_tracks(self, tmp_path, mode, cfg, bad_line, tracks):
        """Kill a 30-frame run at frame 25, replace the tracks of line
        `bad_line` of its log by `tracks` and resume. Returns the
        uninterrupted run's masklets, the resumed run's, and the frame of the
        state the resume starts from."""
        gt, det, prop, dets = build_sequence(num_frames=30)
        ref = run_sequence(dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode, **RUN_KW)

        class Killed(Exception):
            pass

        def bomb(t):
            if t == 25:
                raise Killed()

        ckdir = tmp_path / "k"
        with pytest.raises(Killed):
            run_sequence(
                dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode,
                checkpoint_dir=ckdir, sequence_id="s", on_frame=bomb, **RUN_KW
            )
        edit_line(ckdir / "s_ckpt.jsonl", bad_line, lambda p: p.update(tracks=tracks))
        head = CheckpointStore(ckdir, "s").load_latest().last_completed_frame
        resumed = run_sequence(
            dets, prop, det.frame_size, chunk_cfg=cfg, mode=mode,
            checkpoint_dir=ckdir, sequence_id="s", resume=True, **RUN_KW
        )
        return ref, resumed, head

    def test_full_resume_passes_over_malformed_tracks(self, tmp_path):
        # Lines of frames 9 and 19.
        ref, resumed, head = self.resume_past_bad_tracks(
            tmp_path, "full", ChunkerConfig(checkpoint_interval=10), 2, [{"id": 0}],
        )
        assert head == 9
        assert masklets_signature(resumed) == masklets_signature(ref)

    @pytest.mark.parametrize("tracks", [{}, [3]])
    def test_chunk_resume_passes_over_malformed_tracks(self, tmp_path, tracks):
        # Chunks (0, 9), (6, 15), (12, 21), (18, 27), ...: the kill at frame
        # 25 leaves the lines of frames 9, 15 and 21.
        ref, resumed, head = self.resume_past_bad_tracks(
            tmp_path, "chunk", ChunkerConfig(chi=10, omega=2), 3, tracks,
        )
        assert head == 15
        assert masklets_signature(resumed) == masklets_signature(ref)


class TestCheckpointFaultProperties:
    FRAMES = (10, 20, 30, 40)

    @staticmethod
    @functools.cache
    def log_lines() -> list[bytes]:
        """The lines a store appends for the saves of FRAMES."""
        with tempfile.TemporaryDirectory() as d:
            store = CheckpointStore(d, "s")
            for f in TestCheckpointFaultProperties.FRAMES:
                store.save(grown_checkpoint(f))
            return store.path.read_bytes().splitlines(keepends=True)

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=1000, deadline=None)
    def test_some_checkpoint_always_loadable(self, whole, data):
        # A crash in the middle of an append: a log of `whole` lines and the
        # first k bytes of the next loads the state of its whole lines, and
        # the next save yields a log that loads whole.
        lines = self.log_lines()
        k = data.draw(st.integers(0, len(lines[whole])))
        kept = whole + (k == len(lines[whole]))
        with tempfile.TemporaryDirectory() as d:
            store = CheckpointStore(d, "s")
            store.path.write_bytes(b"".join(lines[:whole]) + lines[whole][:k])
            loaded = store.load_latest()
            if kept:
                expected = grown_checkpoint(self.FRAMES[kept - 1])
                assert state_signature(loaded) == state_signature(expected)
            else:
                assert loaded is None
            assert store.path.read_bytes() == b"".join(lines[:kept])
            store.save(grown_checkpoint(45))
            assert load_checkpoint(store.path)[1] == store.path.stat().st_size
            reloaded = CheckpointStore(d, "s").load_latest()
            assert state_signature(reloaded) == state_signature(grown_checkpoint(45))


class TestChunkStartsNearDenseFrames:
    def test_uniform_counts_pull_starts_back(self):
        chunks = plan_chunks([4] * 120, ChunkerConfig(chi=50, omega=10))
        # Ties resolve to the lowest frame in the search window, so each
        # chunk start lands 2*omega before the nominal boundary.
        assert chunks[0] == (0, 49)
        assert chunks[1][0] == 30
        covered = set()
        for s, e in chunks:
            covered.update(range(s, e + 1))
        assert covered == set(range(120))

    def test_dense_region_attracts_start(self):
        counts = [2] * 120
        counts[55] = 9  # density peak just after the first nominal boundary
        chunks = plan_chunks(counts, ChunkerConfig(chi=50, omega=10))
        assert chunks[1][0] == 45  # peak frame minus omega
        covered = set()
        for s, e in chunks:
            covered.update(range(s, e + 1))
        assert covered == set(range(120))

    def test_peak_at_window_edge_keeps_overlap(self):
        # The densest frame is the right edge of the search window around
        # frame 50; its start, peak minus omega, would be frame 50 itself and
        # share no frame with chunk (0, 49).
        counts = [2] * 120
        counts[60] = 9
        chunks = plan_chunks(counts, ChunkerConfig(chi=50, omega=10))
        assert chunks == ((0, 49), (49, 98), (79, 119))

    def test_short_sequence_one_chunk(self):
        assert plan_chunks([1] * 20, ChunkerConfig()) == ((0, 19),)
