"""One greedy matcher serves association and evaluation.
Each caller is checked against the claim loop it carried before, kept in
helpers as an oracle, on inputs drawn from a few values so that ties and
threshold boundaries are common."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.assoc import AssocConfig, Track, associate_frame
from vidannot.backends import Detection
from vidannot.geometry import BBox, greedy_match
from vidannot.metrics import match_frame

from helpers import loop_associate_frame, loop_match_frame

# Corners and sides from a few values give many equal IoUs, including the
# exact 1/3, 1/2 and 1 that the thresholds below sit on.
boxes = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h),
    st.sampled_from([0, 10, 20]),
    st.sampled_from([0, 10]),
    st.sampled_from([10, 20]),
    st.sampled_from([10, 20]),
)
thresholds = st.sampled_from([1 / 3, 0.5, 0.75, 1.0])
ids = st.lists(st.integers(0, 12), unique=True, max_size=5)  # in no particular order


class TestGreedyMatch:
    def test_descending_score_one_to_one(self):
        claimed = greedy_match([(0.5, 0, 0), (0.9, 0, 1), (0.7, 1, 1), (0.6, 1, 0)])
        assert claimed == [(0.9, 0, 1), (0.6, 1, 0)]

    def test_ties_go_to_the_lower_row_then_the_lower_column(self):
        assert greedy_match([(0.5, 2, 0), (0.5, 1, 1), (0.5, 1, 0)]) == [(0.5, 1, 0)]
        assert greedy_match([(0.5, 1, 3), (0.5, 1, 2), (0.5, 0, 3)]) == [
            (0.5, 0, 3),
            (0.5, 1, 2),
        ]

    def test_no_candidates(self):
        assert greedy_match([]) == []


@settings(max_examples=1000, deadline=None)
@given(
    track_ids=ids,
    ages=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    track_boxes=st.lists(boxes, min_size=5, max_size=5),
    det_boxes=st.lists(boxes, max_size=5),
    live_ids=ids,
    live_boxes=st.lists(boxes, min_size=5, max_size=5),
    tau=thresholds,
    track_buffer=st.integers(0, 3),
)
def test_association_matches_its_claim_loop(
    track_ids, ages, track_boxes, det_boxes, live_ids, live_boxes, tau, track_buffer
):
    """Live objects are drawn from the same ids as tracks, so a covering
    object may have a track, matched or not, or none."""
    tracks = [Track(i, b, a) for i, b, a in zip(track_ids, track_boxes, ages)]
    dets = [Detection(b, "object", 0.9) for b in det_boxes]
    live = list(zip(live_ids, live_boxes))
    cfg = AssocConfig(tau_track_det=tau, track_buffer=track_buffer)
    got = associate_frame(tracks, dets, live, 7, cfg, next_id=13)
    assert got == loop_associate_frame(tracks, dets, live, 7, cfg, next_id=13)


@settings(max_examples=1000, deadline=None)
@given(
    predictions=st.lists(boxes, max_size=5),
    ground_truth=st.lists(boxes, max_size=5),
    threshold=st.sampled_from([0.0, 1 / 3, 0.5, 1.0]),
)
def test_frame_matching_matches_its_claim_loop(predictions, ground_truth, threshold):
    got = match_frame(predictions, ground_truth, threshold)
    assert got == loop_match_frame(predictions, ground_truth, threshold)
