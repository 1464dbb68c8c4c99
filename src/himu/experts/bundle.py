"""Per-video expert artifact bundles and their on-disk JSON format.

A bundle gathers everything query-independent about one video: embedding
score tables (one row per known query), transcript segments, and per-frame
text detections. Object-detection scores stay outside the bundle, in a
per-video detection source file of their own (``OvdSource``). ``himu
select`` caches both files, each keyed by its own bytes (``himu.cache``).
Bundles are immutable after construction and round-trip losslessly
through a canonical JSON serialization.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import jsonio
from ..errors import BundleFormatError, InconsistentLengthError
from ..tree import ExpertKind
from .matching import TextIndex, query_key, text_index

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
_NUMBER_TYPES = {int, float}


def _check_rows(rows, what) -> tuple[tuple[str, np.ndarray], ...]:
    """(query, values) rows with nonempty query text and checked values."""
    checked = []
    for query, values in rows:
        if not isinstance(query, str) or not query.strip():
            raise BundleFormatError(f"{what} query must be nonempty text")
        checked.append((query, _check_values(values, f"{what} {query!r}")))
    return tuple(checked)


def _check_values(values, what) -> np.ndarray:
    """A nonempty, finite 1-D float64 row, read-only.

    A JSON list may hold numbers only: a string, bool or null element is
    rejected rather than cast, and so is an integer no float can hold. An
    array a caller passes in is copied, so the row never shares memory
    with it; a list's new array and a loader's ``jsonio._Loaded`` row are
    not.
    """
    if isinstance(values, list) and not set(map(type, values)) <= _NUMBER_TYPES:
        raise BundleFormatError(f"{what}: values must be numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise BundleFormatError(f"{what}: values are out of range") from None
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise BundleFormatError(f"{what}: values must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise BundleFormatError(f"{what}: values must be finite")
    if isinstance(values, np.ndarray) and type(values) is not jsonio._Loaded:
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
        object.__setattr__(self, "rows", _check_rows(self.rows, "score-table row"))

    def lookup(self, query: str) -> np.ndarray | None:
        """Values of the first row with the query's ``query_key``, else None."""
        wanted = query_key(query)
        for row_query, values in self.rows:
            if query_key(row_query) == wanted:
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
        object.__setattr__(self, "detections", tuple(self.detections))


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

    # Built on the first text leaf and kept for every later one; a
    # cached_property stores into the instance dict, which a frozen
    # dataclass does not guard.
    @cached_property
    def transcript_index(self) -> TextIndex:
        """The text index of the transcript, text i for segment i."""
        return text_index([segment.text for segment in self.transcript])

    @cached_property
    def ocr_index(self) -> TextIndex:
        """The text index of every OCR detection, with the frame of each."""
        texts = [text for entry in self.ocr for text in entry.detections]
        frames = np.repeat(
            np.array([entry.frame for entry in self.ocr], dtype=np.intp),
            [len(entry.detections) for entry in self.ocr],
        )
        return text_index(texts, frames)


@dataclass(frozen=True)
class OvdSource:
    """Per-query detection-confidence rows for one video.

    Looked up by query-variant set at scoring time; absent queries score
    zero everywhere, so this source never raises for unknown queries.
    """

    video_id: str
    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_rows(self.entries, "detection entry"))

    def max_over(self, variants, num_frames: int) -> np.ndarray:
        """Per-frame max confidence over entries with a variant's ``query_key``."""
        wanted = {query_key(v) for v in variants}
        out = np.zeros(num_frames, dtype=np.float64)
        for query, values in self.entries:
            if query_key(query) in wanted:
                if values.shape[0] != num_frames:
                    raise InconsistentLengthError(
                        f"detection entry {query!r} has {values.shape[0]} values, "
                        f"expected {num_frames}"
                    )
                np.maximum(out, values, out=out)
        return out


# --- JSON (de)serialization ---------------------------------------------------

def _table_to_obj(table: ScoreTable):
    return [{"query": q, "values": vals} for q, vals in table.rows]


def bundle_to_obj(bundle: ExpertBundle) -> dict:
    """Document form of a bundle, keys in canonical order: plain JSON
    values, except that each row's ``"values"`` is its read-only float64
    array, which ``himu.jsonio`` writes as the list of its values."""
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


def _restore_lists(meta) -> None:
    """Give the rows that ``jsonio.parse_json_rows`` made float64 inside
    free-form ``meta`` back the lists they were parsed from; ``tolist``
    returns the same floats.
    """
    stack = [meta] if isinstance(meta, (dict, list)) else []
    while stack:  # no recursion: meta may nest as deep as the parser allows
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(value, np.ndarray):
                node[key] = value.tolist()
            elif isinstance(value, (dict, list)):
                stack.append(value)


def _rows_from_obj(entries, what: str):
    rows = []
    for row in jsonio.array(entries, BundleFormatError, what):
        if not isinstance(row, dict) or set(row) != {"query", "values"}:
            raise BundleFormatError(f"{what} rows must be {{query, values}} objects")
        if not isinstance(row["values"], (list, np.ndarray)):
            raise BundleFormatError(f"{what} row values must be a list")
        rows.append((row["query"], row["values"]))
    return rows


def bundle_from_obj(obj) -> ExpertBundle:
    """Validate a parsed JSON document into an ExpertBundle.

    Table row values may also be numpy arrays, as ``loads_bundle`` and the
    disk cache pass them; they go through the same checks as lists. The
    rows the loaders build are kept as they are; any other array is copied.
    """
    err = BundleFormatError
    jsonio.mapping(obj, err, "bundle document")
    jsonio.known_keys(obj, _BUNDLE_KEYS, err, "bundle")
    version = jsonio.field(obj, "format_version", jsonio.integer, err, "bundle")
    if version != FORMAT_VERSION:
        raise err(f"unsupported bundle format_version {version}, expected {FORMAT_VERSION}")
    video_id = jsonio.field(obj, "video_id", jsonio.string, err, "bundle")
    num_frames = jsonio.field(obj, "T", jsonio.integer, err, "bundle")
    frame_rate = jsonio.field(obj, "frame_rate", jsonio.number, err, "bundle")

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
        segments = []
        for seg in jsonio.array(obj["transcript"], err, "transcript"):
            if not isinstance(seg, dict) or set(seg) != {"start", "end", "text"}:
                raise err("transcript entries must be {start, end, text}")
            segments.append(TranscriptSegment(
                jsonio.number(seg["start"], err, "segment start"),
                jsonio.number(seg["end"], err, "segment end"),
                jsonio.string(seg["text"], err, "segment text"),
            ))
        transcript = tuple(segments)

    ocr = None
    if "ocr" in obj:
        entries = []
        for entry in jsonio.array(obj["ocr"], err, "ocr"):
            if not isinstance(entry, dict) or set(entry) != {"frame", "detections"}:
                raise err("ocr entries must be {frame, detections}")
            entries.append(OcrFrameText(
                jsonio.integer(entry["frame"], err, "ocr frame"),
                tuple(jsonio.array(entry["detections"], err, "ocr detections", jsonio.string)),
            ))
        ocr = tuple(entries)

    meta = None
    if "meta" in obj:
        meta = jsonio.mapping(obj["meta"], err, "meta")

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


def loads_bundle(data) -> ExpertBundle:
    """The bundle in the bytes of a UTF-8 JSON file, given whole or as a
    re-iterable of pieces (``jsonio.FilePieces``).

    ``jsonio.parse_json_rows`` cuts each table row out of the bytes once
    its closing ``]`` has been read and parses it on its own, its floats
    turned into float64 a slice at a time, and never builds the text of the
    whole file. So a bundle read from a file peaks at its float64 rows plus its
    longest run of bytes without a ``]`` (a row's text, or the transcript)
    and one piece. The bundle, or the error, is the same as parsing in full
    before checking.
    """
    obj = jsonio.parse_json_rows(data, BundleFormatError, "bundle")
    if isinstance(obj, dict) and "meta" in obj:
        _restore_lists(obj["meta"])
    return bundle_from_obj(obj)


def load_bundle(path) -> ExpertBundle:
    """The bundle in a file, parsed from its pieces as ``loads_bundle`` does."""
    return loads_bundle(jsonio.FilePieces(path))


def save_bundle(bundle: ExpertBundle, path) -> None:
    """Write the canonical text of the bundle's document form (fixed key
    order, 2-space indent, shortest round-trip floats) atomically, streamed
    to the file."""
    jsonio.save_json(bundle_to_obj(bundle), path)


def bundle_digest(bundle: ExpertBundle) -> str:
    """Content-addressed identity: SHA-256 of the canonical serialization.

    The encoder's pieces go into the hash as they are made, so neither the
    text nor its UTF-8 bytes are ever whole in memory.
    """
    digest = hashlib.sha256()
    jsonio.encode(bundle_to_obj(bundle), lambda piece: digest.update(piece.encode("utf-8")))
    return digest.hexdigest()


# --- OVD source files ----------------------------------------------------------

def ovd_to_obj(source: OvdSource) -> dict:
    """Document form of a detection source; each entry's ``"values"`` is
    its read-only float64 array, as in ``bundle_to_obj``."""
    return {
        "video_id": source.video_id,
        "format_version": FORMAT_VERSION,
        "entries": [{"query": q, "values": vals} for q, vals in source.entries],
    }


def ovd_from_obj(obj) -> OvdSource:
    err = BundleFormatError
    jsonio.mapping(obj, err, "detection source")
    jsonio.known_keys(obj, {"video_id", "entries", "format_version"}, err,
                      "detection source")
    version = jsonio.field(obj, "format_version", jsonio.integer, err, "detection source",
                           FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise err(f"unsupported detection-source format_version {version}")
    video_id = jsonio.field(obj, "video_id", jsonio.string, err, "detection source")
    rows = _rows_from_obj(jsonio.field(obj, "entries", jsonio.array, err, "detection source"),
                          "entries")
    return OvdSource(video_id, tuple(rows))


def loads_ovd_source(data) -> OvdSource:
    """The detection source in the bytes of a UTF-8 JSON file, given whole
    or in pieces, each entry's values cut out and parsed on its own, as
    ``loads_bundle`` does."""
    # A detection source has no free-form part, so every float64 row is an
    # entry's or is rejected as a misplaced object.
    return ovd_from_obj(jsonio.parse_json_rows(data, BundleFormatError, "detection source"))


def load_ovd_source(path) -> OvdSource:
    """The detection source in a file, parsed from its pieces as
    ``loads_ovd_source`` does."""
    return loads_ovd_source(jsonio.FilePieces(path))


def save_ovd_source(source: OvdSource, path) -> None:
    jsonio.save_json(ovd_to_obj(source), path)
