"""Outside-in tracing of the annotation pipeline.

Every layer is timed from outside, at the calls into its public functions:
the detector and propagator backends are replaced by wrapping backends, and
the names each consuming module looks up at call time (for example
`vidannot.ash.mask_to_polygon` or `vidannot.chunker.save_checkpoint`) are
rebound to timing wrappers for the duration of a traced operation. Nothing in
the program itself changes.

Each traced call becomes a span (id, parent id, name, start, end, thread).
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its direct children, which run
in the same thread and so never overlap each other.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Sequence

import vidannot.ash
import vidannot.assoc
import vidannot.chunker
import vidannot.pipeline
import vidannot.smart_od
from vidannot.geometry import BinaryMask

# Per-layer metrics of a traced run: (name, unit). Times and counts are per
# operation; ratios are taken over the same per-operation totals.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("backends.world_s", "s"),
    ("backends.propagate_calls", "count"),
    ("backends.propagate_frames", "count"),
    ("backends.propagate_s", "s"),
    ("backends.detect_calls", "count"),
    ("backends.detect_region_calls", "count"),
    ("backends.detect_s", "s"),
    ("smart_od.s", "s"),
    ("smart_od.self_s", "s"),
    ("smart_od.threshold_s", "s"),
    ("smart_od.raw_dets", "count"),
    ("smart_od.area_kept", "count"),
    ("smart_od.accepted", "count"),
    ("smart_od.accept_ratio", "ratio"),
    ("smart_od.calls_per_frame", "ratio"),
    ("assoc.s", "s"),
    ("assoc.births", "count"),
    ("assoc.births_per_gt_track", "ratio"),
    ("assoc.reject_size", "count"),
    ("assoc.reject_margin", "count"),
    ("assoc.reject_aspect", "count"),
    ("ash.propagate_self_s", "s"),
    ("ash.entries", "count"),
    ("ash.kept_entry_ratio", "ratio"),
    ("ash.contour_s", "s"),
    ("ash.contour_calls", "count"),
    ("ash.smooth_s", "s"),
    ("ash.rasterize_s", "s"),
    ("ash.rasterize_calls", "count"),
    ("ash.merge_s", "s"),
    ("ash.prune_s", "s"),
    ("chunker.run_s", "s"),
    ("chunker.self_s", "s"),
    ("chunker.stitch_s", "s"),
    ("chunker.ckpt_saves", "count"),
    ("chunker.ckpt_save_s", "s"),
    ("chunker.ckpt_bytes", "bytes"),
    ("chunker.ckpt_load_s", "s"),
    ("chunker.fallbacks", "count"),
    ("geometry.iou_mask_calls", "count"),
    ("geometry.iou_mask_s", "s"),
    ("geometry.mask_px", "px"),
    ("io.write_s", "s"),
    ("io.out_bytes", "bytes"),
    ("pipeline.qa_s", "s"),
    ("pipeline.search_s", "s"),
    ("pipeline.seq_s_max", "s"),
    ("pipeline.seq_s_median", "s"),
    ("pipeline.parallel_eff", "ratio"),
    ("trace.frames_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
)

# Layer times that read exactly 0 on every run of a workload that never calls
# the layer: rasterizing on w2 and hd, stitching on w1 and hd, checkpoints on
# w1 and w2, deploy's search on w1 and hd. A time that never changes looks
# unmeasured, so the result line leaves these out; the report lines and the
# result record keep them.
REPORT_ONLY = frozenset(
    {"ash.rasterize_s", "chunker.stitch_s", "chunker.ckpt_save_s", "chunker.ckpt_load_s",
     "pipeline.search_s"}
)


class Tracer:
    """Span and counter store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str | None, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` recorded as a span named `name`; `after(result, *args)` may count.

        With `name` None the call is only counted, not timed.
        """
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result, *args, **kwargs)
                return result

            return counted

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent (-1 for none), name, start, end, thread."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class TracedDetector:
    """DetectorBackend that times and counts the calls into the wrapped one."""

    def __init__(self, inner, tracer: Tracer) -> None:
        def detected(dets, *_) -> None:
            tracer.count("backends.detect_calls")
            tracer.count("smart_od.raw_dets", len(dets))

        self._inner = inner
        self.detect = tracer.wrap("backends.detect", inner.detect, detected)
        self.detect_region = tracer.wrap(
            "backends.detect",
            inner.detect_region,
            lambda *_: tracer.count("backends.detect_region_calls"),
        )

    @property
    def frame_size(self) -> tuple[int, int]:
        return self._inner.frame_size


class TracedPropagator:
    """PropagatorBackend that times and counts the calls into the wrapped one."""

    def __init__(self, inner, tracer: Tracer) -> None:
        def propagated(masks, box, start_frame, frames) -> None:
            tracer.count("backends.propagate_calls")
            tracer.count("backends.propagate_frames", len(frames))

        self.propagate = tracer.wrap("backends.propagate", inner.propagate, propagated)


# validate_box reason prefixes, by criterion.
_REJECT_KINDS = (
    ("size", "assoc.reject_size"),
    ("zero height", "assoc.reject_size"),
    ("box not inside margins", "assoc.reject_margin"),
    ("aspect", "assoc.reject_aspect"),
)


def _entries(masklets) -> int:
    return sum(len(m.entries) for m in masklets)


def _rebindings(tracer: Tracer) -> list[tuple[object, str, str | None, Callable | None]]:
    """(module, public name, span name, counter hook) for every traced call site."""
    count = tracer.count

    def verified(dets, *_) -> None:
        count("smart_od.calls")
        count("smart_od.accepted", len(dets))

    def iou_px(result, a: BinaryMask, b: BinaryMask) -> None:
        count("geometry.iou_mask_calls")
        count("geometry.mask_px", a.width * a.height + b.width * b.height)

    def contour_px(result, m: BinaryMask, *_, **__) -> None:
        count("ash.contour_calls")
        count("geometry.mask_px", m.width * m.height)

    def raster_px(result, p, width: int, height: int) -> None:
        count("ash.rasterize_calls")
        count("geometry.mask_px", width * height)

    def written(result, payload, path) -> None:
        count("io.out_bytes", os.path.getsize(path))

    def saved(result, ckpt, path) -> None:
        count("chunker.ckpt_saves")
        count("chunker.ckpt_bytes", os.path.getsize(path))

    def rejected(result, *_) -> None:
        ok, reason = result
        if not ok:
            count(next((k for p, k in _REJECT_KINDS if reason.startswith(p)), "assoc.reject_other"))

    pipe, chunk, ash, sod, assoc = (
        vidannot.pipeline,
        vidannot.chunker,
        vidannot.ash,
        vidannot.smart_od,
        vidannot.assoc,
    )
    return [
        (pipe, "run_smart_od", "smart_od", verified),
        (sod, "run_smart_od", "smart_od", verified),
        (pipe, "run_sequence", "chunker.run", None),
        (chunk, "run_sequence", "chunker.run", None),
        (pipe, "qa_score", "pipeline.qa", None),
        (pipe, "optimize_parameters", "pipeline.search", None),
        (pipe, "sequence_precision_recall", "pipeline.search", None),
        # The unit of work run_dataset hands to its thread pool; no public
        # name covers one whole sequence.
        (pipe, "_process_sequence", "pipeline.sequence", None),
        (pipe, "write_annotations", "io.write", written),
        (pipe, "write_mot", "io.write", written),
        (pipe, "iou_mask", "geometry.iou_mask", iou_px),
        (sod, "dynamic_threshold", "smart_od.threshold", None),
        # Counted only: area filtering is smart_od's own work, part of its self time.
        (sod, "filter_area_ratio", None,
         lambda kept, *_: count("smart_od.area_kept", len(kept))),
        (assoc, "associate_frame", "assoc",
         lambda result, *_: count("assoc.births", len(result.new_objects))),
        (chunk, "validate_box", None, rejected),
        (chunk, "propagate_batch", "ash.propagate",
         lambda made, *_: count("ash.entries", _entries(made))),
        (chunk, "postprocess_masklets", "ash.postprocess",
         lambda kept, *_: count("ash.out_entries", _entries(kept))),
        (chunk, "remove_trailing_empty", "ash.prune", None),
        (chunk, "merge_chunk_overlap", "chunker.stitch", None),
        (chunk, "save_checkpoint", "chunker.ckpt_save", saved),
        (chunk, "load_checkpoint", "chunker.ckpt_load", None),
        (chunk, "iou_mask", "geometry.iou_mask", iou_px),
        (ash, "mask_to_polygon", "ash.contour", contour_px),
        (ash, "smooth_polygons", "ash.smooth", None),
        (ash, "rasterize_polygon", "ash.rasterize", raster_px),
        (ash, "merge_redundant_frame", "ash.merge", None),
        (ash, "remove_trailing_empty", "ash.prune", None),
        (ash, "iou_mask", "geometry.iou_mask", iou_px),
    ]


class _FallbackCounter(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self._tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back to chunk mode" in record.getMessage():
            self._tracer.count("chunker.fallbacks")


class Instrumented:
    """Context manager that rebinds the traced names and restores them on exit.

    Names missing from the program are listed in `missing`: their metrics
    would read 0, so a run that finds any reports each as a failed check.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _FallbackCounter(tracer)
        self.missing = sorted(
            {f"{m.__name__}.{attr}" for m, attr, _, _ in _rebindings(tracer) if not hasattr(m, attr)}
        )

    def __enter__(self) -> Instrumented:
        tracer = self._tracer
        for module, attr, span_name, after in _rebindings(tracer):
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original, after))
        logging.getLogger("vidannot.chunker").addHandler(self._handler)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger("vidannot.chunker").removeHandler(self._handler)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    ops: int,
    frames: int,
    seconds: float,
    untraced_seconds: float,
    gt_tracks: int,
    workers: int,
    world_s: float,
) -> dict[str, float]:
    """Per-operation layer metrics from the spans and counters of `ops` traced
    operations, which annotated `frames` frames in `seconds` seconds over
    `gt_tracks` ground-truth tracks. The same operations took
    `untraced_seconds` when run untraced."""
    duration: dict[int, float] = {}
    children: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, _ in tracer.spans:
        duration[sid] = end - start
        if parent >= 0:
            children[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    seq_times = []
    for sid, _, name, _, _, _ in tracer.spans:
        total[name] += duration[sid]
        own[name] += duration[sid] - children[sid]
        if name == "pipeline.sequence":
            seq_times.append(duration[sid])
    c = tracer.counts

    def per_op(v: float) -> float:
        return v / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "backends.world_s": world_s,
        "backends.propagate_calls": per_op(c["backends.propagate_calls"]),
        "backends.propagate_frames": per_op(c["backends.propagate_frames"]),
        "backends.propagate_s": per_op(total["backends.propagate"]),
        "backends.detect_calls": per_op(c["backends.detect_calls"]),
        "backends.detect_region_calls": per_op(c["backends.detect_region_calls"]),
        "backends.detect_s": per_op(total["backends.detect"]),
        "smart_od.s": per_op(total["smart_od"]),
        "smart_od.self_s": per_op(own["smart_od"]),
        "smart_od.threshold_s": per_op(total["smart_od.threshold"]),
        "smart_od.raw_dets": per_op(c["smart_od.raw_dets"]),
        "smart_od.area_kept": per_op(c["smart_od.area_kept"]),
        "smart_od.accepted": per_op(c["smart_od.accepted"]),
        "smart_od.accept_ratio": ratio(c["smart_od.accepted"], c["smart_od.raw_dets"]),
        "smart_od.calls_per_frame": ratio(c["smart_od.calls"], frames),
        "assoc.s": per_op(total["assoc"]),
        "assoc.births": per_op(c["assoc.births"]),
        "assoc.births_per_gt_track": ratio(c["assoc.births"], gt_tracks),
        "assoc.reject_size": per_op(c["assoc.reject_size"]),
        "assoc.reject_margin": per_op(c["assoc.reject_margin"]),
        "assoc.reject_aspect": per_op(c["assoc.reject_aspect"]),
        "ash.propagate_self_s": per_op(own["ash.propagate"]),
        "ash.entries": per_op(c["ash.entries"]),
        "ash.kept_entry_ratio": ratio(c["ash.out_entries"], c["ash.entries"]),
        "ash.contour_s": per_op(total["ash.contour"]),
        "ash.contour_calls": per_op(c["ash.contour_calls"]),
        "ash.smooth_s": per_op(total["ash.smooth"]),
        "ash.rasterize_s": per_op(total["ash.rasterize"]),
        "ash.rasterize_calls": per_op(c["ash.rasterize_calls"]),
        "ash.merge_s": per_op(total["ash.merge"]),
        "ash.prune_s": per_op(total["ash.prune"]),
        "chunker.run_s": per_op(total["chunker.run"]),
        "chunker.self_s": per_op(own["chunker.run"]),
        "chunker.stitch_s": per_op(total["chunker.stitch"]),
        "chunker.ckpt_saves": per_op(c["chunker.ckpt_saves"]),
        "chunker.ckpt_save_s": per_op(total["chunker.ckpt_save"]),
        "chunker.ckpt_bytes": per_op(c["chunker.ckpt_bytes"]),
        "chunker.ckpt_load_s": per_op(total["chunker.ckpt_load"]),
        "chunker.fallbacks": per_op(c["chunker.fallbacks"]),
        "geometry.iou_mask_calls": per_op(c["geometry.iou_mask_calls"]),
        "geometry.iou_mask_s": per_op(total["geometry.iou_mask"]),
        "geometry.mask_px": per_op(c["geometry.mask_px"]),
        "io.write_s": per_op(total["io.write"]),
        "io.out_bytes": per_op(c["io.out_bytes"]),
        "pipeline.qa_s": per_op(total["pipeline.qa"]),
        "pipeline.search_s": per_op(total["pipeline.search"]),
        "pipeline.seq_s_max": max(seq_times, default=0.0),
        "pipeline.seq_s_median": _median(seq_times),
        "pipeline.parallel_eff": ratio(sum(seq_times), workers * seconds),
        "trace.frames_per_s": ratio(frames, seconds),
        "trace.slowdown": ratio(seconds, untraced_seconds),
    }
