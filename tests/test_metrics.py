from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from vidannot.geometry import BBox, iou_box
from vidannot.metrics import LabeledBox, _max_idtp, evaluate, evaluate_dataset, match_frame


def box(x, y=0, w=10, h=10):
    return BBox(x, y, x + w, y + h)


# --- independent oracle: IDF1 by exhaustive permutation assignment ---------


def brute_idf1(predictions, ground_truth, iou_threshold=0.5):
    gt_ids = sorted({b.track_id for boxes in ground_truth.values() for b in boxes})
    pred_ids = sorted({b.track_id for boxes in predictions.values() for b in boxes})
    overlap = {}
    total_gt = 0
    total_pred = 0
    for f in ground_truth:
        total_gt += len(ground_truth[f])
        total_pred += len(predictions[f])
        for g in ground_truth[f]:
            for p in predictions[f]:
                if iou_box(g.box, p.box) >= iou_threshold:
                    overlap[(g.track_id, p.track_id)] = overlap.get((g.track_id, p.track_id), 0) + 1
    best = 0
    small, large = (gt_ids, pred_ids) if len(gt_ids) <= len(pred_ids) else (pred_ids, gt_ids)
    for perm in itertools.permutations(large, len(small)):
        total = 0
        for s, l in zip(small, perm):
            key = (s, l) if small is gt_ids else (l, s)
            total += overlap.get(key, 0)
        best = max(best, total)
    denom = total_gt + total_pred
    return 2 * best / denom if denom else 1.0


def brute_max_idtp(idtp):
    """Best one-to-one assignment total, by trying every injection of the
    shorter side into the longer one."""
    if idtp.shape[0] > idtp.shape[1]:
        idtp = idtp.T
    rows, cols = idtp.shape
    best = 0
    for perm in itertools.permutations(range(cols), rows):
        best = max(best, sum(int(idtp[r, c]) for r, c in enumerate(perm)))
    return best


idtp_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 20), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda values: np.array(values, dtype=np.int64).reshape(shape))
)


class TestMatchFrame:
    def test_identical_sets(self):
        boxes = [box(0), box(50)]
        matches, fps, fns = match_frame(boxes, boxes)
        assert len(matches) == 2 and not fps and not fns

    def test_empty_predictions(self):
        matches, fps, fns = match_frame([], [box(0), box(20), box(40)])
        assert matches == [] and fps == [] and fns == [0, 1, 2]

    def test_greedy_prefers_higher_iou(self):
        preds = [BBox(0, 0, 10, 9), BBox(0, 0, 10, 8)]  # IoUs 0.9 and 0.8
        matches, fps, fns = match_frame(preds, [BBox(0, 0, 10, 10)])
        assert matches == [(0, 0, pytest.approx(0.9))]
        assert fps == [1] and fns == []


class TestEvaluate:
    def test_perfect(self):
        gt = {f: [LabeledBox(0, box(0)), LabeledBox(1, box(50))] for f in range(5)}
        s = evaluate(gt, gt)
        assert (s.mota, s.idf1, s.idsw) == (1.0, 1.0, 0)

    def test_mota_three_quarters(self):
        # 2 objects x 2 frames, one missed detection, nothing else.
        gt = {f: [LabeledBox(0, box(0)), LabeledBox(1, box(50))] for f in range(2)}
        pred = {0: list(gt[0]), 1: [LabeledBox(0, box(0))]}
        s = evaluate(pred, gt)
        assert s.mota == pytest.approx(0.75)
        assert (s.fn, s.fp, s.idsw) == (1, 0, 0)

    def test_one_idsw_idf1_half(self):
        gt = {f: [LabeledBox(7, box(0))] for f in range(10)}
        pred = {f: [LabeledBox(1 if f < 5 else 2, box(0))] for f in range(10)}
        s = evaluate(pred, gt)
        assert s.idsw == 1
        assert s.idf1 == pytest.approx(brute_idf1(pred, gt)) == pytest.approx(0.5)

    def test_misaligned_frames_error(self):
        gt = {0: [], 1: []}
        pred = {0: []}
        with pytest.raises(ValueError):
            evaluate(pred, gt)

    def test_idf1_uses_spatial_overlap_not_matching(self):
        # Two GT, two preds with crossed ids; matched pairs flip every frame
        # but the optimal global assignment is consistent.
        gt = {f: [LabeledBox(0, box(0)), LabeledBox(1, box(30))] for f in range(4)}
        pred = {f: [LabeledBox(5, box(0)), LabeledBox(6, box(30))] for f in range(4)}
        s = evaluate(pred, gt)
        assert s.idf1 == 1.0


@st.composite
def tracking_scenario(draw):
    num_frames = draw(st.integers(1, 6))
    n_gt = draw(st.integers(0, 3))
    n_pred = draw(st.integers(0, 3))
    gt = {}
    pred = {}
    for f in range(num_frames):
        gt[f] = [
            LabeledBox(i, box(draw(st.integers(0, 8)) * 15, 0))
            for i in range(n_gt)
        ]
        pred[f] = [
            LabeledBox(100 + i, box(draw(st.integers(0, 8)) * 15, 0))
            for i in range(n_pred)
        ]
    return pred, gt


class TestInvariants:
    @given(tracking_scenario())
    @settings(max_examples=1000, deadline=None)
    def test_self_evaluation_perfect(self, scenario):
        _, gt = scenario
        s = evaluate(gt, gt)
        assert s.mota == 1.0 and s.idf1 == 1.0 and s.idsw == 0

    @given(tracking_scenario(), st.integers(0, 10_000))
    @settings(max_examples=1000, deadline=None)
    def test_relabeling_invariance(self, scenario, seed):
        pred, gt = scenario
        ids = sorted({b.track_id for boxes in pred.values() for b in boxes})
        rng = np.random.default_rng(seed)
        perm = dict(zip(ids, rng.permutation(np.array(ids) + 1000).tolist()))
        relabeled = {
            f: [LabeledBox(perm[b.track_id], b.box) for b in boxes]
            for f, boxes in pred.items()
        }
        a = evaluate(pred, gt)
        b = evaluate(relabeled, gt)
        assert a.mota == b.mota
        assert a.idf1 == pytest.approx(b.idf1)

    @given(idtp_matrices)
    @settings(max_examples=1000, deadline=None)
    def test_max_idtp_matches_permutation_oracle(self, idtp):
        assert _max_idtp(idtp) == brute_max_idtp(idtp)

    @given(
        st.tuples(st.integers(1, 15), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
    )
    @settings(max_examples=1000, deadline=None)
    def test_max_idtp_matches_scipy_on_larger_matrices(self, case):
        rows, cols, transpose, seed = case
        rng = np.random.default_rng(seed)
        top = int(rng.choice([1, 3, 30, 5000]))
        idtp = rng.integers(0, top + 1, (rows, cols)) * (rng.random((rows, cols)) < rng.random())
        if transpose:
            idtp = idtp.T
        r, c = linear_sum_assignment(-idtp)
        assert _max_idtp(idtp) == int(idtp[r, c].sum())

    @given(tracking_scenario())
    @settings(max_examples=1000, deadline=None)
    def test_idf1_matches_permutation_oracle(self, scenario):
        pred, gt = scenario
        s = evaluate(pred, gt)
        assert s.idf1 == pytest.approx(brute_idf1(pred, gt), abs=1e-12)

    @given(tracking_scenario())
    @settings(max_examples=1000, deadline=None)
    def test_pure_fp_track_hurts(self, scenario):
        pred, gt = scenario
        if not any(gt.values()):
            return
        base = evaluate(pred, gt)
        # A far-away track no GT box can reach.
        spiked = {
            f: list(boxes) + [LabeledBox(999, box(5000, 5000))]
            for f, boxes in pred.items()
        }
        spiked_scores = evaluate(spiked, gt)
        assert spiked_scores.mota < base.mota
        assert spiked_scores.idf1 <= base.idf1


class TestDataset:
    def test_aggregate_and_per_class(self):
        gt_a = {0: [LabeledBox(0, box(0), "car"), LabeledBox(1, box(40), "person")]}
        pred_a = {0: [LabeledBox(0, box(0), "car")]}
        report = evaluate_dataset({"a": (pred_a, gt_a)})
        assert report.aggregate.fn == 1
        assert report.per_class["car"].recall == 1.0
        assert report.per_class["person"].recall == 0.0
        rows = report.to_csv_rows()
        assert ("a", "MOTA", pytest.approx(0.5)) in [
            (s, m, v) for s, m, v in rows if m == "MOTA" and s == "a"
        ]
        text = report.format_text()
        assert "ALL" in text and "class:car" in text

    def test_report_layout(self):
        # Sequences in name order, then ALL, then classes in name order; the
        # values are those recorded before both layouts came from one list.
        gt_b = {0: [LabeledBox(0, box(0), "person"), LabeledBox(1, box(40), "car")],
                1: [LabeledBox(0, box(2), "person"), LabeledBox(1, box(42), "car")]}
        pred_b = {0: [LabeledBox(5, box(0), "person"), LabeledBox(6, box(80), "car")],
                  1: [LabeledBox(7, box(2), "person"), LabeledBox(6, box(43), "car")]}
        gt_a = {0: [LabeledBox(0, box(0), "car")], 1: [LabeledBox(0, box(1), "car")]}
        pred_a = {0: [LabeledBox(0, box(0), "car")], 1: []}
        report = evaluate_dataset({"b": (pred_b, gt_b), "a": (pred_a, gt_a)})
        metrics = ("TP", "FP", "FN", "IDSW", "precision", "recall", "MOTA", "IDF1")
        values = {
            "a": (1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5, 0.6666666666666666),
            "b": (3.0, 1.0, 1.0, 1.0, 0.75, 0.75, 0.25, 0.5),
            "ALL": (4.0, 1.0, 2.0, 1.0, 0.8, 0.6666666666666666, 0.33333333333333337,
                    0.5454545454545454),
            "class:car": (2.0, 1.0, 2.0, 0.0, 0.6666666666666666, 0.5, 0.25, 0.5714285714285714),
            "class:person": (2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5),
        }
        assert report.to_csv_rows() == [
            (name, metric, value)
            for name, row in values.items()
            for metric, value in zip(metrics, row)
        ]
        assert report.format_text() == (
            "sequence             TP     FP     FN  IDSW    prec  recall    MOTA    IDF1\n"
            "a                     1      0      1     0   1.000   0.500   0.500   0.667\n"
            "b                     3      1      1     1   0.750   0.750   0.250   0.500\n"
            "ALL                   4      1      2     1   0.800   0.667   0.333   0.545\n"
            "class:car             2      1      2     0   0.667   0.500   0.250   0.571\n"
            "class:person          2      0      0     1   1.000   1.000   0.500   0.500"
        )

    def test_empty_gt_scores(self):
        s = evaluate({0: []}, {0: []})
        assert s.mota == 1.0 and s.idf1 == 1.0
        assert s.precision == 0.0 and s.recall == 0.0
