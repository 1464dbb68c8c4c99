"""Per-video expert artifact bundles and their on-disk JSON format.

A bundle gathers everything query-independent about one video: embedding
score tables (one row per known query), transcript segments, and per-frame
text detections. Object-detection scores stay outside the bundle in their
own per-query source file because they are recomputed per query and never
cached. Bundles are immutable after construction and round-trip losslessly
through a canonical JSON serialization.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import BundleFormatError, InconsistentLengthError, parse_json, read_text
from ..tree import ExpertKind

FORMAT_VERSION = 1

_BUNDLE_KEYS = {
    "video_id",
    "T",
    "frame_rate",
    "format_version",
    "clip_table",
    "clap_table",
    "transcript",
    "ocr",
    "meta",
}


def _check_values(values, what) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise BundleFormatError(f"{what}: values must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise BundleFormatError(f"{what}: values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScoreTable:
    """Per-query score rows for one embedding-style expert on one video."""

    expert: ExpertKind
    video_id: str
    rows: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        rows = []
        for query, values in self.rows:
            if not isinstance(query, str) or not query.strip():
                raise BundleFormatError("score-table row query must be nonempty text")
            rows.append((query, _check_values(values, f"row {query!r}")))
        object.__setattr__(self, "rows", tuple(rows))

    def lookup(self, query: str) -> np.ndarray | None:
        """Row values for a case-insensitive exact query match, else None."""
        wanted = query.strip().casefold()
        for row_query, values in self.rows:
            if row_query.strip().casefold() == wanted:
                return values
        return None


@dataclass(frozen=True)
class TranscriptSegment:
    """One timestamped span of recognized speech."""

    start: float
    end: float
    text: str

    def __post_init__(self):
        if not (
            math.isfinite(self.start)
            and math.isfinite(self.end)
            and 0.0 <= self.start < self.end
        ):
            raise BundleFormatError(
                f"segment must satisfy 0 <= start < end, got [{self.start}, {self.end}]"
            )
        if not isinstance(self.text, str):
            raise BundleFormatError("segment text must be a string")


@dataclass(frozen=True)
class OcrFrameText:
    """Text strings detected on one frame."""

    frame: int
    detections: tuple[str, ...]

    def __post_init__(self):
        if self.frame < 0:
            raise BundleFormatError(f"ocr frame index must be >= 0, got {self.frame}")
        object.__setattr__(self, "detections", tuple(str(d) for d in self.detections))


@dataclass(frozen=True)
class ExpertBundle:
    """Immutable query-independent artifacts for one video."""

    video_id: str
    num_frames: int
    frame_rate: float
    clip_table: ScoreTable | None = None
    clap_table: ScoreTable | None = None
    transcript: tuple[TranscriptSegment, ...] | None = None
    ocr: tuple[OcrFrameText, ...] | None = None
    meta: dict | None = field(default=None)

    def __post_init__(self):
        if not isinstance(self.video_id, str) or not self.video_id:
            raise BundleFormatError("video_id must be nonempty text")
        if self.num_frames < 1:
            raise BundleFormatError(f"frame count must be >= 1, got {self.num_frames}")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise BundleFormatError(f"frame_rate must be > 0, got {self.frame_rate}")
        for table, name in ((self.clip_table, "clip"), (self.clap_table, "clap")):
            if table is None:
                continue
            for query, values in table.rows:
                if values.shape[0] != self.num_frames:
                    raise InconsistentLengthError(
                        f"{name} row {query!r} has {values.shape[0]} values, "
                        f"bundle declares {self.num_frames} frames"
                    )
        if self.transcript is not None:
            segments = tuple(sorted(self.transcript, key=lambda s: (s.start, s.end)))
            object.__setattr__(self, "transcript", segments)
        if self.ocr is not None:
            entries = tuple(self.ocr)
            for entry in entries:
                if entry.frame >= self.num_frames:
                    raise InconsistentLengthError(
                        f"ocr entry at frame {entry.frame} is outside "
                        f"[0, {self.num_frames})"
                    )
            object.__setattr__(self, "ocr", entries)


@dataclass(frozen=True)
class OvdSource:
    """Per-query detection-confidence rows for one video.

    Looked up by query-variant set at scoring time; absent queries score
    zero everywhere, so this source never raises for unknown queries.
    """

    video_id: str
    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        entries = []
        for query, values in self.entries:
            if not isinstance(query, str) or not query.strip():
                raise BundleFormatError("detection entry query must be nonempty text")
            entries.append((query, _check_values(values, f"entry {query!r}")))
        object.__setattr__(self, "entries", tuple(entries))

    def max_over(self, variants, num_frames: int) -> np.ndarray:
        """Per-frame max confidence over entries matching any variant."""
        wanted = {v.strip().casefold() for v in variants}
        out = np.zeros(num_frames, dtype=np.float64)
        for query, values in self.entries:
            if query.strip().casefold() in wanted:
                if values.shape[0] != num_frames:
                    raise InconsistentLengthError(
                        f"detection entry {query!r} has {values.shape[0]} values, "
                        f"expected {num_frames}"
                    )
                np.maximum(out, values, out=out)
        return out


# --- JSON (de)serialization ---------------------------------------------------

def _table_to_obj(table: ScoreTable | None):
    if table is None:
        return None
    return [{"query": q, "values": [float(v) for v in vals]} for q, vals in table.rows]


def bundle_to_obj(bundle: ExpertBundle) -> dict:
    """Plain-JSON form of a bundle, keys in canonical order."""
    obj = {
        "video_id": bundle.video_id,
        "T": bundle.num_frames,
        "frame_rate": bundle.frame_rate,
        "format_version": FORMAT_VERSION,
    }
    if bundle.clip_table is not None:
        obj["clip_table"] = _table_to_obj(bundle.clip_table)
    if bundle.clap_table is not None:
        obj["clap_table"] = _table_to_obj(bundle.clap_table)
    if bundle.transcript is not None:
        obj["transcript"] = [
            {"start": s.start, "end": s.end, "text": s.text} for s in bundle.transcript
        ]
    if bundle.ocr is not None:
        obj["ocr"] = [
            {"frame": e.frame, "detections": list(e.detections)} for e in bundle.ocr
        ]
    if bundle.meta is not None:
        obj["meta"] = bundle.meta
    return obj


_CANONICAL_JSON = {"indent": 2, "ensure_ascii": False}


def dumps_bundle(bundle: ExpertBundle) -> str:
    """Canonical text form: fixed key order, 2-space indent, repr floats.

    Floats use Python's shortest round-trip decimal form, so values survive
    save/load byte-identically.
    """
    return json.dumps(bundle_to_obj(bundle), **_CANONICAL_JSON) + "\n"


def _want(obj: dict, key: str, kinds, what: str):
    if key not in obj:
        raise BundleFormatError(f"{what} is missing required key {key!r}")
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise BundleFormatError(f"{what} key {key!r} has the wrong type")
    return value


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BundleFormatError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise BundleFormatError(f"{what} is out of range") from None


def _rows_from_obj(entries, what: str):
    if not isinstance(entries, list):
        raise BundleFormatError(f"{what} must be a list of rows")
    rows = []
    for row in entries:
        if not isinstance(row, dict) or set(row) != {"query", "values"}:
            raise BundleFormatError(f"{what} rows must be {{query, values}} objects")
        if not isinstance(row["values"], (list, np.ndarray)):
            raise BundleFormatError(f"{what} row values must be a list")
        rows.append((row["query"], row["values"]))
    return rows


def bundle_from_obj(obj) -> ExpertBundle:
    """Validate a parsed JSON document into an ExpertBundle.

    Table row values may also be numpy arrays, as the disk cache passes
    them; they go through the same checks as lists.
    """
    if not isinstance(obj, dict):
        raise BundleFormatError("bundle document must be a JSON object")
    unknown = set(obj) - _BUNDLE_KEYS
    if unknown:
        raise BundleFormatError(f"bundle has unknown keys: {sorted(unknown)}")
    version = _want(obj, "format_version", int, "bundle")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported bundle format_version {version}, expected {FORMAT_VERSION}"
        )
    video_id = _want(obj, "video_id", str, "bundle")
    num_frames = _want(obj, "T", int, "bundle")
    frame_rate = _number(_want(obj, "frame_rate", (int, float), "bundle"), "frame_rate")

    clip_table = clap_table = None
    if "clip_table" in obj:
        clip_table = ScoreTable(
            ExpertKind.CLIP, video_id, tuple(_rows_from_obj(obj["clip_table"], "clip_table"))
        )
    if "clap_table" in obj:
        clap_table = ScoreTable(
            ExpertKind.CLAP, video_id, tuple(_rows_from_obj(obj["clap_table"], "clap_table"))
        )

    transcript = None
    if "transcript" in obj:
        if not isinstance(obj["transcript"], list):
            raise BundleFormatError("transcript must be a list")
        segments = []
        for seg in obj["transcript"]:
            if not isinstance(seg, dict) or set(seg) != {"start", "end", "text"}:
                raise BundleFormatError("transcript entries must be {start, end, text}")
            segments.append(TranscriptSegment(
                _number(seg["start"], "segment start"),
                _number(seg["end"], "segment end"),
                str(seg["text"]),
            ))
        transcript = tuple(segments)

    ocr = None
    if "ocr" in obj:
        if not isinstance(obj["ocr"], list):
            raise BundleFormatError("ocr must be a list")
        entries = []
        for entry in obj["ocr"]:
            if not isinstance(entry, dict) or set(entry) != {"frame", "detections"}:
                raise BundleFormatError("ocr entries must be {frame, detections}")
            frame = entry["frame"]
            if not isinstance(frame, int) or isinstance(frame, bool):
                raise BundleFormatError("ocr frame must be an integer")
            if not isinstance(entry["detections"], list):
                raise BundleFormatError("ocr detections must be a list")
            entries.append(OcrFrameText(frame, tuple(entry["detections"])))
        ocr = tuple(entries)

    meta = None
    if "meta" in obj:
        if not isinstance(obj["meta"], dict):
            raise BundleFormatError("meta must be an object")
        meta = obj["meta"]

    return ExpertBundle(
        video_id=video_id,
        num_frames=num_frames,
        frame_rate=frame_rate,
        clip_table=clip_table,
        clap_table=clap_table,
        transcript=transcript,
        ocr=ocr,
        meta=meta,
    )


def loads_bundle(text: str) -> ExpertBundle:
    return bundle_from_obj(parse_json(text, BundleFormatError, "bundle"))


def load_bundle(path) -> ExpertBundle:
    return loads_bundle(read_text(path, BundleFormatError, "bundle"))


@contextmanager
def atomic_file(path, mode: str = "w"):
    """Open ``<path>.tmp.<pid>`` for writing and move it to ``path`` on success.

    Text modes write UTF-8. If the body or the move fails, the temporary
    file is removed, so a failed write leaves no file behind.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_bundle(bundle: ExpertBundle, path) -> None:
    """Write ``dumps_bundle`` text atomically.

    The text is streamed to the file rather than built in memory first, so
    saving a large bundle adds little to the process's peak memory.
    """
    obj = bundle_to_obj(bundle)
    with atomic_file(path) as fh:
        json.dump(obj, fh, **_CANONICAL_JSON)
        fh.write("\n")


def bundle_digest(bundle: ExpertBundle) -> str:
    """Content-addressed identity: SHA-256 of the canonical serialization."""
    return hashlib.sha256(dumps_bundle(bundle).encode("utf-8")).hexdigest()


# --- OVD source files ----------------------------------------------------------

def ovd_to_obj(source: OvdSource) -> dict:
    return {
        "video_id": source.video_id,
        "format_version": FORMAT_VERSION,
        "entries": [
            {"query": q, "values": [float(v) for v in vals]} for q, vals in source.entries
        ],
    }


def dumps_ovd(source: OvdSource) -> str:
    return json.dumps(ovd_to_obj(source), indent=2, ensure_ascii=False) + "\n"


def ovd_from_obj(obj) -> OvdSource:
    if not isinstance(obj, dict):
        raise BundleFormatError("detection source must be a JSON object")
    unknown = set(obj) - {"video_id", "entries", "format_version"}
    if unknown:
        raise BundleFormatError(f"detection source has unknown keys: {sorted(unknown)}")
    if "format_version" in obj and obj["format_version"] != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported detection-source format_version {obj['format_version']}"
        )
    video_id = _want(obj, "video_id", str, "detection source")
    rows = _rows_from_obj(_want(obj, "entries", list, "detection source"), "entries")
    return OvdSource(video_id, tuple(rows))


def load_ovd_source(path) -> OvdSource:
    text = read_text(path, BundleFormatError, "detection source")
    return ovd_from_obj(parse_json(text, BundleFormatError, "detection source"))


def save_ovd_source(source: OvdSource, path) -> None:
    with atomic_file(path) as fh:
        fh.write(dumps_ovd(source))
