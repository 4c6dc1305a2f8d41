from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.assoc import (
    AssocConfig,
    Track,
    associate_frame,
    rescale_confidence,
    validate_box,
)
from vidannot.backends import Detection
from vidannot.geometry import BBox, iou_box

CFG = AssocConfig()


def det(x1, y1, x2, y2, conf=0.9):
    return Detection(BBox(x1, y1, x2, y2), "object", conf)


def chained(frames):
    """Each frame's result of `associate_frame` over `frames` of detections
    in turn, with no live masks, each frame given the tracks and next id of
    the one before, as the chunk pass gives them."""
    tracks, next_id, results = [], 0, []
    for f, dets in enumerate(frames):
        r = associate_frame(tracks, dets, [], f, CFG, next_id)
        tracks, next_id = r.tracks, r.next_id
        results.append(r)
    return results


def matched(result, tracks):
    """Id -> new box of each of `tracks` that `result` matched to a
    detection: a matched track's age is reset to 0, an unmatched one's grows."""
    ids = {t.id for t in tracks}
    return {t.id: t.last_box for t in result.tracks if t.id in ids and t.age == 0}


class TestValidateBox:
    def test_too_small(self):
        ok, reason = validate_box(BBox(50, 50, 55, 55), 640, 480, CFG)
        assert not ok and "size" in reason

    def test_bad_aspect(self):
        ok, reason = validate_box(BBox(50, 50, 110, 60), 640, 480, CFG)
        assert not ok and "aspect" in reason

    def test_interior_accepted(self):
        ok, reason = validate_box(BBox(100, 100, 200, 200), 640, 480, CFG)
        assert ok and reason is None

    def test_margin(self):
        ok, reason = validate_box(BBox(0, 100, 100, 200), 640, 480, CFG)
        assert not ok and "margin" in reason
        ok, _ = validate_box(BBox(0.5, 100, 100, 200), 640, 480, CFG)
        assert ok

    def test_too_large(self):
        ok, reason = validate_box(BBox(0.5, 0.5, 1500, 400), 2000, 500, CFG)
        assert not ok and "size" in reason


class TestRescaleConfidence:
    def test_affine_map_endpoints(self):
        assert rescale_confidence([0.1, 0.5, 0.9]) == pytest.approx([0.7, 0.825, 0.95])

    def test_constant_maps_to_midpoint(self):
        assert rescale_confidence([0.4, 0.4]) == pytest.approx([0.825, 0.825])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rescale_confidence([])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=1000, deadline=None)
    def test_range_and_order(self, scores):
        out = rescale_confidence(scores)
        assert all(0.7 - 1e-12 <= v <= 0.95 + 1e-12 for v in out)
        for i in range(len(scores)):
            for j in range(len(scores)):
                if scores[i] < scores[j]:
                    assert out[i] <= out[j]


class TestAssociateFrame:
    def test_first_frame_all_new(self):
        dets = [det(0, 0, 20, 20), det(50, 0, 70, 20), det(100, 0, 120, 20)]
        r = associate_frame([], dets, [], 0, CFG, next_id=0)
        assert [n.object_id for n in r.new_objects] == [0, 1, 2]
        assert [t.id for t in r.tracks] == [0, 1, 2]
        assert r.next_id == 3

    def test_exact_match(self):
        track = Track(0, BBox(0, 0, 10, 10), 3)
        r = associate_frame([track], [det(0, 0, 10, 10)], [], 1, CFG, next_id=1)
        assert matched(r, [track]) == {0: BBox(0, 0, 10, 10)}
        assert r.new_objects == []
        assert r.tracks == [Track(0, BBox(0, 0, 10, 10), 0)]

    def test_low_iou_spawns_new_object(self):
        # boxes (0,0,10,10) vs (6,0,16,10): IoU 40/160 = 0.25 < 0.5
        assert iou_box(BBox(0, 0, 10, 10), BBox(6, 0, 16, 10)) == pytest.approx(0.25)
        track = Track(0, BBox(0, 0, 10, 10), 0)
        r = associate_frame([track], [det(6, 0, 16, 10)], [], 1, CFG, next_id=1)
        assert matched(r, [track]) == {}
        assert [n.object_id for n in r.new_objects] == [1]
        aged = next(t for t in r.tracks if t.id == 0)
        assert aged.age == 1

    def test_track_claimed_once(self):
        track = Track(0, BBox(0, 0, 10, 10), 0)
        dets = [det(0, 0, 10, 10), det(0, 0, 10, 9)]
        r = associate_frame([track], dets, [], 1, CFG, next_id=1)
        assert matched(r, [track]) == {0: BBox(0, 0, 10, 10)}
        assert len(r.new_objects) == 1

    def test_retirement_after_buffer(self):
        cfg = AssocConfig(track_buffer=2)
        tracks = [Track(0, BBox(0, 0, 10, 10), 0)]
        for f in range(1, 4):
            r = associate_frame(tracks, [], [], f, cfg, next_id=1)
            tracks = r.tracks
        assert tracks == []

    def test_covered_detection_moves_its_unmatched_track(self):
        # The detection misses track 0's last box (IoU 1/3) but lies on the
        # object's live mask box.
        track = Track(0, BBox(0, 0, 20, 20), 3)
        d = det(10, 0, 30, 20)
        r = associate_frame([track], [d], [(0, BBox(9, 0, 29, 20))], 1, CFG, next_id=1)
        assert r.new_objects == [] and r.next_id == 1
        assert r.tracks == [Track(0, d.box, 0)]

    def test_covered_detection_without_an_unmatched_track_is_dropped(self):
        # Track 0 takes the first detection; the second, and one covered by
        # object 5, which has no track, open nothing.
        track = Track(0, BBox(0, 0, 20, 20), 0)
        dets = [det(0, 0, 20, 20), det(2, 2, 22, 22), det(100, 100, 120, 120)]
        live = [(0, BBox(0, 0, 20, 20)), (5, BBox(101, 100, 121, 120))]
        r = associate_frame([track], dets, live, 1, CFG, next_id=6)
        assert r.new_objects == [] and r.next_id == 6
        assert r.tracks == [Track(0, BBox(0, 0, 20, 20), 0)]

    def test_covering_object_is_the_best_live_box_then_the_lower_id(self):
        tracks = [Track(1, BBox(200, 200, 220, 220), 2), Track(2, BBox(300, 300, 320, 320), 2)]
        d = det(10, 0, 30, 20)
        best = associate_frame(tracks, [d], [(1, BBox(5, 0, 25, 20)), (2, d.box)], 1, CFG, 3)
        assert [t.age for t in best.tracks] == [3, 0]
        tie = associate_frame(tracks, [d], [(2, d.box), (1, d.box)], 1, CFG, 3)
        assert [t.age for t in tie.tracks] == [0, 3]

    def test_tie_breaks_to_lowest_track_id(self):
        shared = BBox(0, 0, 10, 10)
        tracks = [Track(3, shared, 0), Track(1, shared, 0)]
        r = associate_frame(tracks, [det(0, 0, 10, 10)], [], 1, CFG, next_id=4)
        assert matched(r, tracks) == {1: shared}


@st.composite
def frame_scenario(draw):
    """Tracks, detections, and live (object id, box) pairs. A live box is
    often a detection's box shifted by a few pixels, so detections are often
    covered; its id may be a track's or one that has no track."""
    n_tracks = draw(st.integers(0, 6))
    n_dets = draw(st.integers(0, 6))
    tracks = []
    for i in range(n_tracks):
        x = draw(st.floats(0, 400))
        y = draw(st.floats(0, 400))
        tracks.append(Track(i, BBox(x, y, x + 20, y + 20), 0))
    dets = []
    for _ in range(n_dets):
        x = draw(st.floats(0, 400))
        y = draw(st.floats(0, 400))
        dets.append(det(x, y, x + 20, y + 20))
    live = []
    for i in draw(st.lists(st.integers(0, n_tracks + 1), unique=True, max_size=4)):
        if dets and draw(st.booleans()):
            b = draw(st.sampled_from(dets)).box
            x, y = b.x1 + draw(st.floats(-5, 5)), b.y1 + draw(st.floats(-5, 5))
        else:
            x, y = draw(st.floats(0, 400)), draw(st.floats(0, 400))
        live.append((i, BBox(x, y, x + 20, y + 20)))
    return tracks, dets, live


class TestInvariants:
    @given(frame_scenario())
    @settings(max_examples=1000, deadline=None)
    def test_matched_tracks_take_distinct_detections(self, scenario):
        tracks, dets, live = scenario
        r = associate_frame(tracks, dets, live, 1, CFG, next_id=len(tracks) + 2)
        taken = Counter(matched(r, tracks).values())
        assert not taken - Counter(d.box for d in dets)

    @given(frame_scenario())
    @settings(max_examples=1000, deadline=None)
    def test_every_detection_matched_new_or_covered(self, scenario):
        tracks, dets, live = scenario
        r = associate_frame(tracks, dets, live, 1, CFG, next_id=len(tracks) + 2)
        new_ids = {n.object_id for n in r.new_objects}
        assert not (new_ids & {t.id for t in tracks} | new_ids & {i for i, _ in live})
        used = Counter(matched(r, tracks).values()) + Counter(n.detection.box for n in r.new_objects)
        assert not used - Counter(d.box for d in dets)

        def covered(box):
            return any(iou_box(box, b) > CFG.tau_track_det for _, b in live)

        # A detection no track takes is new exactly when no live mask covers it.
        assert not any(covered(n.detection.box) for n in r.new_objects)
        assert all(covered(box) for box in (Counter(d.box for d in dets) - used).elements())
        if not live:
            assert len(matched(r, tracks)) + len(new_ids) == len(dets)

    @given(st.lists(frame_scenario(), min_size=1, max_size=5))
    @settings(max_examples=1000, deadline=None)
    def test_ids_never_repeat(self, scenarios):
        seen: set[int] = set()
        for r in chained([dets for _, dets, _ in scenarios]):
            for n in r.new_objects:
                assert n.object_id not in seen
                seen.add(n.object_id)

    def test_static_scene_zero_new_after_first(self):
        dets = [det(10, 10, 40, 40), det(100, 100, 130, 130)]
        first, *rest = results = chained([dets] * 10)
        assert len(first.new_objects) == 2
        for before, r in zip(results, rest):
            assert r.new_objects == []
            assert set(matched(r, before.tracks)) == {0, 1}

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=6, unique=True), st.integers(2, 6))
    @settings(max_examples=1000, deadline=None)
    def test_random_static_scene_zero_new_after_first(self, cells, frames):
        dets = [det(40 * x, 40 * y, 40 * x + 25, 40 * y + 25) for x, y in cells]
        first, *rest = chained([dets] * frames)
        assert len(first.new_objects) == len(dets)
        assert all(r.new_objects == [] for r in rest)


class TestAssocConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AssocConfig(tau_track_det=0.0)
        with pytest.raises(ValueError):
            AssocConfig(lambda_min=100, lambda_max=100)

    @pytest.mark.parametrize(
        "field, value",
        [("aspect_range", (5.0, 0.2)), ("aspect_range", (0.0, 5.0)), ("track_buffer", -1)],
    )
    def test_aspect_range_and_track_buffer_validated(self, field, value):
        # An aspect range (5, 0.2) once rejected every box, and the run wrote
        # empty annotations without an error.
        with pytest.raises(ValueError, match=field):
            AssocConfig(**{field: value})
        assert AssocConfig(aspect_range=(1.0, 1.0), track_buffer=0).track_buffer == 0
