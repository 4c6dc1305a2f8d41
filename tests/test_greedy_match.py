"""One greedy matcher serves association, evaluation and chunk stitching.
Each caller is checked against the claim loop it carried before, kept in
helpers as an oracle, on inputs drawn from a few values so that ties and
threshold boundaries are common."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vidannot.ash import Masklet, MaskletEntry
from vidannot.assoc import AssocConfig, Track, associate_frame
from vidannot.backends import Detection
from vidannot.chunker import merge_chunk_overlap
from vidannot.geometry import BBox, BinaryMask, greedy_match
from vidannot.metrics import match_frame

from helpers import loop_associate_frame, loop_match_frame, loop_merge_chunk_overlap

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


def _rect(x: int, y: int, w: int, h: int) -> BinaryMask:
    grid = np.zeros((12, 12), dtype=bool)
    grid[y : y + h, x : x + w] = True
    return BinaryMask(grid)


# None is a frame without an entry; an empty mask is an entry with nothing in it.
masks = st.sampled_from(
    [None, _rect(0, 0, 0, 0), _rect(0, 0, 4, 4), _rect(0, 0, 4, 8), _rect(4, 0, 4, 4),
     _rect(2, 2, 6, 4)]
)


@st.composite
def masklets(draw, frames: int):
    out = []
    for i in draw(ids):
        drawn = draw(st.lists(masks, min_size=frames, max_size=frames))
        entries = {f: MaskletEntry(m, None, 0.9) for f, m in enumerate(drawn) if m is not None}
        out.append(Masklet(i, "object", entries))
    return out


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), frames=st.integers(1, 3), tau=st.sampled_from([0.25, 0.5, 0.7]))
def test_stitching_matches_its_claim_loop(data, frames, tau):
    prev = data.draw(masklets(frames))
    nxt = data.draw(masklets(frames))
    overlap = list(range(frames))
    got = merge_chunk_overlap(prev, nxt, overlap, tau)
    assert got == loop_merge_chunk_overlap(prev, nxt, overlap, tau)
