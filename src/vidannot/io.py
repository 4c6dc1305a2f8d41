"""File formats: MOT-style detection/track CSV, line-delimited polygon
annotations, and the pipeline configuration file.

All writers are byte-deterministic given identical input; readers invert them
on the value level.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .ash import Masklet, MaskletEntry
from .config import DeploymentConfig, PipelineConfig
from .geometry import BBox, Polygon
from .smart_od import SmartOdConfig

ANNOTATION_SCHEMA_VERSION = 1


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class MotRecord:
    """One row of the 9-column MOT CSV layout (frame is 1-based)."""

    frame: int
    track_id: int  # -1 for raw detections
    x: float
    y: float
    w: float
    h: float
    conf: float
    class_id: int = 1
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1: {self.frame}")
        values = (self.x, self.y, self.w, self.h, self.conf)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"x, y, w, h and conf must be finite: {values}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive: {self.w}x{self.h}")

    @property
    def box(self) -> BBox:
        return BBox(self.x, self.y, self.x + self.w, self.y + self.h)

    @classmethod
    def from_box(
        cls, frame: int, track_id: int, box: BBox, conf: float, visibility: float = 1.0
    ) -> MotRecord:
        """The row of `box`, a zero width or height widened to 1e-6."""
        w, h = max(box.width, 1e-6), max(box.height, 1e-6)
        return cls(frame, track_id, box.x1, box.y1, w, h, conf, visibility=visibility)


def read_mot(path: str | Path) -> dict[int, list[MotRecord]]:
    """Parse a MOT CSV into records grouped by frame, preserving line order."""
    out: dict[int, list[MotRecord]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise FormatError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
            try:
                rec = MotRecord(
                    frame=int(parts[0]),
                    track_id=int(parts[1]),
                    x=float(parts[2]),
                    y=float(parts[3]),
                    w=float(parts[4]),
                    h=float(parts[5]),
                    conf=float(parts[6]),
                    class_id=int(parts[7]),
                    visibility=float(parts[8]),
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            out.setdefault(rec.frame, []).append(rec)
    return out


def write_mot(records: Iterable[MotRecord], path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(
                f"{r.frame},{r.track_id},{r.x:.6f},{r.y:.6f},{r.w:.6f},{r.h:.6f},"
                f"{r.conf:.6f},{r.class_id},{r.visibility:.6f}\n"
            )


@dataclass(frozen=True)
class AnnotationEntry:
    track_id: int
    class_label: str
    confidence: float
    polygon: Polygon
    bbox: BBox


@dataclass
class AnnotationDocument:
    sequence_id: str
    frame_width: int
    frame_height: int
    frames: dict[int, list[AnnotationEntry]] = field(default_factory=dict)
    schema_version: int = ANNOTATION_SCHEMA_VERSION


def _round6_rows(vertices: np.ndarray) -> list[list[float]]:
    """`[[round(x, 6), round(y, 6)], ...]` for an (n, 2) array, with the
    rounding done as one array op.

    Python's round is correctly rounded: it rounds the exact product
    v * 10**6 half to even, then returns the float nearest to that whole
    number / 10**6. np.rint(v * 1e6) / 1e6 does the same whenever the float
    product v * 1e6 rounds to the same whole number as the exact one, since
    dividing a whole float by 1e6 is correctly rounded. The float product is
    off the exact one by at most 2**-52 of its size, so it can round
    differently only within that distance of a half-integer. Where the float
    product lies within max(|product|, 1) * 2**-48 of a half-integer, or is
    not below 2**47 in size, the coordinate is rounded by round instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = vertices * 1e6
        size = np.abs(scaled)
        unsure = ~(size < 2.0**47) | (
            np.abs(scaled - np.floor(scaled) - 0.5) <= 2.0**-48 * np.maximum(size, 1.0)
        )
    rows = (np.rint(scaled) / 1e6).tolist()
    for i, j in zip(*np.nonzero(unsure)):
        rows[i][j] = round(float(vertices[i, j]), 6)
    return rows


def write_annotations(doc: AnnotationDocument, path: str | Path) -> None:
    """Line-delimited output: a header line, then one frame object per line."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema_version": doc.schema_version,
        "sequence_id": doc.sequence_id,
        "frame_width": doc.frame_width,
        "frame_height": doc.frame_height,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for f in sorted(doc.frames):
            objects = [
                {
                    "track_id": e.track_id,
                    "class_label": e.class_label,
                    "confidence": round(e.confidence, 6),
                    "polygon": _round6_rows(e.polygon.vertices),
                    "bbox": [round(v, 6) for v in (e.bbox.x1, e.bbox.y1, e.bbox.x2, e.bbox.y2)],
                }
                for e in doc.frames[f]
            ]
            fh.write(
                json.dumps({"frame": f, "objects": objects}, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def read_annotations(path: str | Path) -> AnnotationDocument:
    """Invert write_annotations; any malformed file raises a FormatError that
    names `path`."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise FormatError(f"{path}: empty annotation file")
    try:
        header = json.loads(lines[0])
        doc = AnnotationDocument(
            sequence_id=header["sequence_id"],
            frame_width=header["frame_width"],
            frame_height=header["frame_height"],
            schema_version=header["schema_version"],
        )
        for line in lines[1:]:
            payload = json.loads(line)
            entries = [
                AnnotationEntry(
                    track_id=o["track_id"],
                    class_label=o["class_label"],
                    confidence=o["confidence"],
                    polygon=Polygon(o["polygon"]),
                    bbox=BBox(*o["bbox"]),
                )
                for o in payload["objects"]
            ]
            doc.frames[payload["frame"]] = entries
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed annotation file: {exc!r}") from exc
    return doc


def _outlined_entries(masklets: list[Masklet]) -> list[tuple[int, Masklet, MaskletEntry]]:
    """(frame, masklet, entry) for every entry with an outline, by frame and
    then by object id."""
    rows = [(f, m, e) for m in masklets for f, e in m.entries.items() if e.polygon is not None]
    return sorted(rows, key=lambda r: (r[0], r[1].object_id))


def masklets_to_mot(masklets: list[Masklet]) -> list[MotRecord]:
    """Track records for every nonempty masklet entry, frame-major order."""
    return [
        MotRecord.from_box(f + 1, m.object_id, e.bbox, e.confidence)
        for f, m, e in _outlined_entries(masklets)
    ]


def masklets_to_document(
    masklets: list[Masklet], sequence_id: str, frame_width: int, frame_height: int
) -> AnnotationDocument:
    doc = AnnotationDocument(sequence_id, frame_width, frame_height)
    for f, m, e in _outlined_entries(masklets):
        entry = AnnotationEntry(m.object_id, m.class_label, e.confidence, e.polygon, e.bbox)
        doc.frames.setdefault(f, []).append(entry)
    return doc


def _typed(value, hint, name: str):
    """`value` as a value of the annotation `hint`, with JSON lists made
    tuples where a tuple is declared; a FormatError naming `name` when it is
    not one. An int is a float too, but a bool is neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _typed(value, hint, name)
    if origin is tuple:
        if args[-1] is Ellipsis and isinstance(value, list):
            return tuple(_typed(v, args[0], name) for v in value)
        if isinstance(value, list) and len(value) == len(args):
            return tuple(_typed(v, a, name) for v, a in zip(value, args))
    elif origin is dict:
        if isinstance(value, dict) and all(type(k) is str for k in value):
            return {k: _typed(v, args[1], f"{name}['{k}']") for k, v in value.items()}
    elif type(value) is hint or (hint is float and type(value) is int):
        return value
    shown = hint.__name__ if typing.get_origin(hint) is None else hint
    raise FormatError(f"{name} must be of type {shown}, got {value!r}")


def _build_section(name: str, cls: type, payload: Mapping):
    if not isinstance(payload, Mapping):
        raise FormatError(f"config section '{name}' must be an object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise FormatError(f"unknown field(s) in '{name}': {', '.join(unknown)}")
    kwargs = {key: _typed(value, hints[key], f"{name}.{key}") for key, value in payload.items()}
    try:
        section = cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid '{name}' config: {exc}") from exc
    if cls is DeploymentConfig:
        # Grid values stand in for smart_od fields; keys are checked above.
        grid_hints = typing.get_type_hints(SmartOdConfig)
        for key, values in section.parameter_grid.items():
            for v in values:
                _typed(v, grid_hints[key], f"{name}.parameter_grid['{key}']")
    return section


def parse_config(payload: dict) -> PipelineConfig:
    """Build a PipelineConfig from a plain dict; missing fields take defaults,
    unknown fields are rejected by name, and every value is checked against
    its field's annotation. A null section takes its defaults."""
    hints = typing.get_type_hints(PipelineConfig)
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise FormatError(f"unknown config section(s): {', '.join(unknown)}")
    kwargs = {}
    for name, value in payload.items():
        # A field whose annotation is a dataclass is a section.
        if not dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _typed(value, hints[name], name)
        elif value is not None:
            kwargs[name] = _build_section(name, hints[name], value)
    return PipelineConfig(**kwargs)


def read_config(path: str | Path) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: config root must be an object")
    return parse_config(payload)
