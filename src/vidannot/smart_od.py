"""Detection verification stage: area filtering, ROI clustering, dynamic
confidence thresholding, and sliced re-verification with a dual accept rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .backends import Detection, DetectorBackend
from .geometry import BBox, iou_box

logger = logging.getLogger(__name__)

THRESHOLD_METHODS = ("mean_std", "kmeans", "kmeans_mean_std", "double_kmeans")


@dataclass(frozen=True)
class SmartOdConfig:
    theta_n: float = 0.1  # NMS threshold for merged slice predictions
    theta_v: float = 0.03  # verification IoU threshold
    theta_min_area: float = 0.0008
    theta_max_area: float = 0.20
    epsilon_dbscan: float = 100.0  # px, between box centers
    mu_dbscan: int = 1
    theta_min: float = 0.1  # dynamic-threshold floor
    threshold_method: str = "kmeans_mean_std"
    slice_size: int = 256
    slice_overlap: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_v < 1.0:
            raise ValueError(f"theta_v out of [0,1): {self.theta_v}")
        for name in ("theta_n", "theta_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {getattr(self, name)}")
        if self.slice_size < 1:
            raise ValueError(f"slice_size must be >= 1: {self.slice_size}")
        if not 0.0 <= self.theta_min_area < self.theta_max_area <= 1.0:
            raise ValueError(
                f"need 0 <= theta_min_area < theta_max_area <= 1, "
                f"got {self.theta_min_area}, {self.theta_max_area}"
            )
        if self.epsilon_dbscan <= 0:
            raise ValueError(f"epsilon_dbscan must be > 0: {self.epsilon_dbscan}")
        if self.mu_dbscan < 1:
            raise ValueError(f"mu_dbscan must be >= 1: {self.mu_dbscan}")
        if not 0.0 <= self.slice_overlap < 1.0:
            raise ValueError(f"slice_overlap out of [0,1): {self.slice_overlap}")
        if self.threshold_method not in THRESHOLD_METHODS:
            raise ValueError(
                f"threshold_method must be one of {THRESHOLD_METHODS}, "
                f"got {self.threshold_method!r}"
            )


@dataclass(frozen=True)
class Roi:
    """Envelope box over one cluster of detections, with member indices."""

    box: BBox
    member_indices: tuple[int, ...]


def filter_area_ratio(
    dets: list[Detection], frame_area: float, cfg: SmartOdConfig
) -> list[Detection]:
    """Keep detections whose area ratio lies strictly inside the configured band."""
    if frame_area <= 0:
        raise ValueError(f"frame_area must be > 0: {frame_area}")
    out = []
    for d in dets:
        ratio = d.box.area / frame_area
        if cfg.theta_min_area < ratio < cfg.theta_max_area:
            out.append(d)
    return out


def _dbscan_1cluster(points: list[tuple[float, float]], eps: float, mu: int) -> list[list[int]]:
    """Plain DBSCAN over 2-D points; returns clusters of indices, noise dropped.

    Core points have >= mu neighbors within eps (self included); border points
    join the first core cluster that reaches them, in index order.
    """
    n = len(points)
    neighbors: list[list[int]] = []
    for i in range(n):
        xi, yi = points[i]
        nb = [
            j
            for j in range(n)
            if math.hypot(points[j][0] - xi, points[j][1] - yi) <= eps
        ]
        neighbors.append(nb)
    core = [len(neighbors[i]) >= mu for i in range(n)]
    label = [-1] * n
    cluster_id = 0
    for i in range(n):
        if label[i] != -1 or not core[i]:
            continue
        label[i] = cluster_id
        queue = list(neighbors[i])
        while queue:
            j = queue.pop(0)
            if label[j] == -1:
                label[j] = cluster_id
                if core[j]:
                    queue.extend(neighbors[j])
        cluster_id += 1
    clusters: list[list[int]] = [[] for _ in range(cluster_id)]
    for i in range(n):
        if label[i] != -1:
            clusters[label[i]].append(i)
    return clusters


def cluster_and_build_rois(dets: list[Detection], cfg: SmartOdConfig) -> list[Roi]:
    """DBSCAN over box centers, one envelope ROI per cluster.

    With mu_dbscan = 1 every detection is a core point, so no detection is
    lost to noise; with larger mu, noise detections end up in no ROI.
    """
    if not dets:
        return []
    centers = [d.box.center for d in dets]
    clusters = _dbscan_1cluster(centers, cfg.epsilon_dbscan, cfg.mu_dbscan)
    rois = []
    for members in clusters:
        boxes = [dets[i].box for i in members]
        env = BBox(
            min(b.x1 for b in boxes),
            min(b.y1 for b in boxes),
            max(b.x2 for b in boxes),
            max(b.y2 for b in boxes),
        )
        rois.append(Roi(env, tuple(members)))
    return rois


def kmeans_1d(values: list[float], k: int) -> list[list[float]]:
    """Exact 1-D k-means via dynamic programming over the sorted values.

    The optimal 1-D k-means partition is contiguous in sorted order, so a DP
    over split points finds the global optimum deterministically; clusters are
    returned in ascending order. Requires len(values) >= k.
    """
    n = len(values)
    if n < k:
        raise ValueError(f"need at least {k} values, got {n}")
    xs = sorted(values)
    prefix = [0.0] * (n + 1)
    prefix_sq = [0.0] * (n + 1)
    for i, v in enumerate(xs):
        prefix[i + 1] = prefix[i] + v
        prefix_sq[i + 1] = prefix_sq[i] + v * v

    def sse(i: int, j: int) -> float:
        # within-cluster sum of squares for xs[i:j]
        cnt = j - i
        s = prefix[j] - prefix[i]
        sq = prefix_sq[j] - prefix_sq[i]
        return sq - s * s / cnt

    INF = float("inf")
    # cost[m][j]: best SSE splitting xs[:j] into m clusters
    cost = [[INF] * (n + 1) for _ in range(k + 1)]
    split = [[0] * (n + 1) for _ in range(k + 1)]
    cost[0][0] = 0.0
    for m in range(1, k + 1):
        for j in range(m, n + 1):
            best = INF
            best_i = m - 1
            for i in range(m - 1, j):
                c = cost[m - 1][i] + sse(i, j)
                if c < best:
                    best = c
                    best_i = i
            cost[m][j] = best
            split[m][j] = best_i
    bounds = [n]
    j = n
    for m in range(k, 0, -1):
        j = split[m][j]
        bounds.append(j)
    bounds.reverse()
    return [xs[bounds[m] : bounds[m + 1]] for m in range(k)]


def _population_std(values: list[float]) -> float:
    mu = sum(values) / len(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def _mean_std_threshold(scores: list[float]) -> float:
    mu = sum(scores) / len(scores)
    return mu - _population_std(scores)


def dynamic_threshold(scores: list[float], method: str, theta_min: float) -> float:
    """Per-frame confidence cutoff derived from the score distribution.

    Methods:
      mean_std         mean minus population standard deviation
      kmeans           minimum score in the top two of three 1-D clusters
      kmeans_mean_std  mean + 2*std over the lowest of three clusters
      double_kmeans    2-way split, re-split the lower cluster, max of the
                       lowest sub-cluster
    The result is clamped from below by theta_min. Score sets smaller than the
    method's cluster count fall back to mean_std.
    """
    if not scores:
        raise ValueError("scores must be nonempty")
    if method not in THRESHOLD_METHODS:
        raise ValueError(f"unknown threshold method: {method!r}")

    needed = {"mean_std": 1, "kmeans": 3, "kmeans_mean_std": 3, "double_kmeans": 2}[method]
    if len(scores) < needed:
        logger.info(
            "dynamic_threshold: %d scores < %d clusters for %s, falling back to mean_std",
            len(scores),
            needed,
            method,
        )
        method = "mean_std"

    if method == "mean_std":
        theta = _mean_std_threshold(scores)
    elif method == "kmeans":
        clusters = kmeans_1d(scores, 3)
        theta = min(clusters[1] + clusters[2])
    elif method == "kmeans_mean_std":
        low = kmeans_1d(scores, 3)[0]
        theta = sum(low) / len(low) + 2.0 * _population_std(low)
    else:  # double_kmeans
        low = kmeans_1d(scores, 2)[0]
        if len(low) >= 2:
            low = kmeans_1d(low, 2)[0]
        theta = max(low)
    return min(1.0, max(theta, theta_min))


def nms_detections(dets: list[Detection], iou_thresh: float) -> list[Detection]:
    """Greedy NMS by descending confidence; ties keep the earlier detection."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept: list[Detection] = []
    for i in order:
        if all(iou_box(dets[i].box, k.box) <= iou_thresh for k in kept):
            kept.append(dets[i])
    return kept


def slice_tiles(box: BBox, slice_size: int, overlap: float) -> list[BBox]:
    """Cover a box with slice_size tiles at the given fractional overlap.

    Tiles are clipped to the box; the rightmost/bottom tiles are aligned to
    the box edges so the union always covers the box exactly.
    """
    step = max(1.0, slice_size * (1.0 - overlap))

    def starts(lo: float, hi: float) -> list[float]:
        span = hi - lo
        if span <= slice_size:
            return [lo]
        out = []
        s = lo
        while True:
            if s + slice_size >= hi:
                out.append(hi - slice_size)
                break
            out.append(s)
            s += step
        return out

    tiles = []
    for y in starts(box.y1, box.y2):
        for x in starts(box.x1, box.x2):
            tiles.append(
                BBox(x, y, min(x + slice_size, box.x2), min(y + slice_size, box.y2))
            )
    return tiles


def verify_roi(
    dets: list[Detection],
    sliced_predictions: list[Detection],
    theta_final: float,
    cfg: SmartOdConfig,
) -> list[Detection]:
    """Dual-criterion accept rule for one ROI's member detections.

    A detection is kept when it overlaps some sliced prediction above the
    verification IoU threshold and its confidence reaches the dynamic
    threshold. Never fabricates: output is a subset of the input.
    """
    accepted = []
    for d in dets:
        best = 0.0
        for p in sliced_predictions:
            v = iou_box(d.box, p.box)
            if v > best:
                best = v
        if best > cfg.theta_v and d.confidence >= theta_final:
            accepted.append(d)
    return accepted


def _detections(
    detector: DetectorBackend, call: str, frame_index: int, *args
) -> list[Detection]:
    """`detector.<call>(frame_index, *args)` when it gives a list of
    Detection. An exception the call raises, or anything else it gives, is
    an error naming the backend, the call and the frame."""
    where = f"{type(detector).__name__}.{call}"
    try:
        dets = getattr(detector, call)(frame_index, *args)
    except Exception as exc:
        raise RuntimeError(f"{where} raised at frame {frame_index}: {exc}") from exc
    if not isinstance(dets, list):
        fault = f"a {type(dets).__name__}"
    else:
        bad = next((d for d in dets if not isinstance(d, Detection)), None)
        if bad is None:
            return dets
        fault = f"a list holding a {type(bad).__name__}"
    raise TypeError(f"{where} gave {fault} at frame {frame_index}, not a list of Detection")


def run_smart_od(
    frame_index: int, detector: DetectorBackend, cfg: SmartOdConfig
) -> list[Detection]:
    """Full verification pass for one frame.

    detect -> area filter -> ROI clustering -> one dynamic threshold over all
    surviving confidences -> per-ROI sliced re-detection merged by NMS ->
    dual-criterion acceptance. Returns accepted detections with their
    original confidences.
    """
    w, h = detector.frame_size
    dets = _detections(detector, "detect", frame_index)
    dets = filter_area_ratio(dets, float(w * h), cfg)
    if not dets:
        return []
    rois = cluster_and_build_rois(dets, cfg)
    theta_final = dynamic_threshold(
        [d.confidence for d in dets], cfg.threshold_method, cfg.theta_min
    )
    accepted: list[Detection] = []
    for roi in rois:
        members = [dets[i] for i in roi.member_indices]
        predictions: list[Detection] = []
        for tile in slice_tiles(roi.box, cfg.slice_size, cfg.slice_overlap):
            predictions.extend(_detections(detector, "detect_region", frame_index, tile))
        predictions = nms_detections(predictions, cfg.theta_n)
        accepted.extend(verify_roi(members, predictions, theta_final, cfg))
    return accepted
