"""Tracking evaluation: frame-level matching, precision/recall, MOTA, IDF1.

IDF1's optimal identity assignment is solved exactly by the Hungarian method
(Kuhn 1955) with shortest augmenting paths, on integer counts.

All functions are pure; per-sequence evaluation can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .geometry import BBox, greedy_match, iou_box


@dataclass(frozen=True)
class LabeledBox:
    track_id: int
    box: BBox
    class_label: str | None = None


@dataclass
class SequenceScores:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    gt_total: int = 0
    idtp: int = 0
    pred_total: int = 0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def mota(self) -> float:
        if self.gt_total == 0:
            return 1.0 if (self.fp + self.fn + self.idsw) == 0 else float("-inf")
        return 1.0 - (self.fp + self.fn + self.idsw) / self.gt_total

    @property
    def idf1(self) -> float:
        d = self.pred_total + self.gt_total
        return 2.0 * self.idtp / d if d else 1.0


@dataclass
class EvalReport:
    aggregate: SequenceScores
    sequences: dict[str, SequenceScores] = field(default_factory=dict)
    per_class: dict[str, SequenceScores] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, SequenceScores]]:
        """The report's rows in order: each sequence, then ALL, then each class."""
        return [
            *((name, self.sequences[name]) for name in sorted(self.sequences)),
            ("ALL", self.aggregate),
            *((f"class:{label}", self.per_class[label]) for label in sorted(self.per_class)),
        ]

    def to_csv_rows(self) -> list[tuple[str, str, float]]:
        return [
            (name, metric, float(value))
            for name, s in self.rows()
            for metric, value in (
                ("TP", s.tp), ("FP", s.fp), ("FN", s.fn), ("IDSW", s.idsw),
                ("precision", s.precision), ("recall", s.recall), ("MOTA", s.mota),
                ("IDF1", s.idf1),
            )
        ]

    def format_text(self) -> str:
        lines = [f"{'sequence':<16} {'TP':>6} {'FP':>6} {'FN':>6} {'IDSW':>5} "
                 f"{'prec':>7} {'recall':>7} {'MOTA':>7} {'IDF1':>7}"]
        for name, s in self.rows():
            lines.append(
                f"{name:<16} {s.tp:>6} {s.fp:>6} {s.fn:>6} {s.idsw:>5} "
                f"{s.precision:>7.3f} {s.recall:>7.3f} {s.mota:>7.3f} {s.idf1:>7.3f}"
            )
        return "\n".join(lines)


def _check_iou_threshold(iou_threshold: float) -> None:
    """The threshold must be in (0, 1]: at 0 disjoint boxes would match."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1]: {iou_threshold}")


def _overlaps(
    predictions: Sequence[BBox], ground_truth: Sequence[BBox], iou_threshold: float
) -> list[tuple[float, int, int]]:
    """(iou, pred_idx, gt_idx) for every pair with IoU at or above the
    threshold."""
    pairs = []
    for pi, pb in enumerate(predictions):
        for gi, gb in enumerate(ground_truth):
            v = iou_box(pb, gb)
            if v >= iou_threshold:
                pairs.append((v, pi, gi))
    return pairs


def match_frame(
    predictions: Sequence[BBox],
    ground_truth: Sequence[BBox],
    iou_threshold: float = 0.5,
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy descending-IoU bipartite matching at the given threshold.

    Returns (matches as (pred_idx, gt_idx, iou), unmatched pred indices,
    unmatched gt indices).
    """
    _check_iou_threshold(iou_threshold)
    claimed = greedy_match(_overlaps(predictions, ground_truth, iou_threshold))
    matches = [(pi, gi, v) for v, pi, gi in claimed]
    used_p = {pi for pi, _, _ in matches}
    used_g = {gi for _, gi, _ in matches}
    fps = [i for i in range(len(predictions)) if i not in used_p]
    fns = [i for i in range(len(ground_truth)) if i not in used_g]
    return matches, fps, fns


def _max_idtp(idtp: np.ndarray) -> int:
    """The largest total of a one-to-one assignment between the rows and the
    columns of a non-negative integer matrix.

    Each row of the narrower side is added by a shortest augmenting path
    over reduced costs, with dual potentials u (rows) and v (columns) kept
    such that every assigned pair is tight; minimising the negated counts
    maximises their total.
    """
    if idtp.size == 0:
        return 0
    cost = -(idtp if idtp.shape[0] <= idtp.shape[1] else idtp.T).astype(np.int64)
    n, m = cost.shape
    unset = np.iinfo(np.int64).max
    u = np.zeros(n, dtype=np.int64)
    # Column m is the path's virtual root; owner[j] is column j's row, -1 if free.
    v = np.zeros(m + 1, dtype=np.int64)
    owner = np.full(m + 1, -1)
    for row in range(n):
        owner[m] = row
        col = m
        dist = np.full(m, unset, dtype=np.int64)
        via = np.full(m, m)  # the column before each column on its shortest path
        done = np.zeros(m + 1, dtype=bool)
        while owner[col] != -1:
            done[col] = True
            i = owner[col]
            reduced = cost[i] - u[i] - v[:m]
            closer = ~done[:m] & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = col
            nearest = int(np.where(done[:m], unset, dist).argmin())
            step = dist[nearest]
            u[owner[done]] += step
            v[done] -= step
            dist[~done[:m]] -= step
            col = nearest
        while col != m:  # flip the path's pairs back to its root
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    assigned = np.flatnonzero(owner[:m] >= 0)
    return int(-cost[owner[assigned], assigned].sum())


def _frame_union(preds: Mapping[int, Sequence[LabeledBox]], gts: Mapping[int, Sequence[LabeledBox]]) -> list[int]:
    if set(preds.keys()) != set(gts.keys()):
        missing = sorted(set(gts) ^ set(preds))
        raise ValueError(f"prediction and ground-truth frames misaligned at {missing[:5]}")
    return sorted(gts.keys())


def evaluate(
    predictions: Mapping[int, Sequence[LabeledBox]],
    ground_truth: Mapping[int, Sequence[LabeledBox]],
    iou_threshold: float = 0.5,
) -> SequenceScores:
    """Score one frame-aligned sequence.

    MOTA counts frame-level matching errors; IDSW increments when a ground
    truth identity's matched prediction id changes between its consecutive
    matched frames; IDF1 uses an exact optimal global identity assignment.
    The threshold is checked before any frame, so it is checked on a
    sequence of no frames too.
    """
    _check_iou_threshold(iou_threshold)
    frames = _frame_union(predictions, ground_truth)
    scores = SequenceScores()
    last_match: dict[int, int] = {}  # gt id -> last matched pred id
    pred_ids: dict[int, int] = {}  # pred id -> dense index
    gt_ids: dict[int, int] = {}
    overlap_counts: dict[tuple[int, int], int] = {}
    for f in frames:
        preds = list(predictions[f])
        gts = list(ground_truth[f])
        scores.gt_total += len(gts)
        scores.pred_total += len(preds)
        # One IoU per pair feeds both the frame matching and the global
        # identity assignment.
        overlaps = _overlaps([p.box for p in preds], [g.box for g in gts], iou_threshold)
        matches = greedy_match(overlaps)
        scores.tp += len(matches)
        scores.fp += len(preds) - len(matches)
        scores.fn += len(gts) - len(matches)
        for _, pi, gi in matches:
            pid = preds[pi].track_id
            gid = gts[gi].track_id
            if gid in last_match and last_match[gid] != pid:
                scores.idsw += 1
            last_match[gid] = pid
        for p in preds:
            pred_ids.setdefault(p.track_id, len(pred_ids))
        for g in gts:
            gt_ids.setdefault(g.track_id, len(gt_ids))
        for _, pi, gi in overlaps:
            key = (gt_ids[gts[gi].track_id], pred_ids[preds[pi].track_id])
            overlap_counts[key] = overlap_counts.get(key, 0) + 1
    idtp = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for (gi, pi), c in overlap_counts.items():
        idtp[gi, pi] = c
    scores.idtp = _max_idtp(idtp)
    return scores


def _merge(into: SequenceScores, other: SequenceScores) -> None:
    for f in fields(SequenceScores):
        setattr(into, f.name, getattr(into, f.name) + getattr(other, f.name))


def _filter_class(
    frames: Mapping[int, Sequence[LabeledBox]], label: str
) -> dict[int, list[LabeledBox]]:
    return {f: [b for b in boxes if b.class_label == label] for f, boxes in frames.items()}


def evaluate_dataset(
    sequences: Mapping[
        str, tuple[Mapping[int, Sequence[LabeledBox]], Mapping[int, Sequence[LabeledBox]]]
    ],
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Per-sequence and aggregate scores, with a per-class breakdown when the
    ground truth carries class labels."""
    report = EvalReport(aggregate=SequenceScores())
    labels: set[str] = set()
    for name, (preds, gts) in sequences.items():
        s = evaluate(preds, gts, iou_threshold)
        report.sequences[name] = s
        _merge(report.aggregate, s)
        for boxes in gts.values():
            for b in boxes:
                if b.class_label is not None:
                    labels.add(b.class_label)
    for label in sorted(labels):
        class_scores = SequenceScores()
        for preds, gts in sequences.values():
            class_scores_seq = evaluate(
                _filter_class(preds, label), _filter_class(gts, label), iou_threshold
            )
            _merge(class_scores, class_scores_seq)
        report.per_class[label] = class_scores
    return report
