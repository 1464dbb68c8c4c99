"""Leaf scoring: turn (expert, query) predicates into raw per-frame rows.

Embedding-style experts read score-table rows from the per-video bundle.
Object detection is query-conditioned: its scores come from a separate
per-query source and are recomputed on every evaluation instead of being
cached. Transcript and on-screen-text scoring match the query against every
segment or detection of the video in one batch (``matching.match_scores``,
``matching.windowed_match_scores``); OCR keeps each frame's best score with
``np.maximum.at``, ASR spreads each matched segment over its own frames.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    LeafEvaluationError,
    MissingArtifactError,
    MissingRowError,
)
from ..tree import ExpertKind, LogicTree
from .bundle import ExpertBundle, OvdSource, ScoreTable, OcrFrameText, TranscriptSegment
from .matching import match_scores, windowed_match_scores
# Counted by perfbench/spans.py; the scorers call the batched forms above.
from .matching import match_score, windowed_match_score  # noqa: F401


def query_variants(query: str) -> tuple[str, ...]:
    """Deterministic detection-query variants: as-is, naive plural, head noun.

    The head-noun variant drops leading modifiers by keeping the final
    whitespace token, so "red sports car" also matches rows for "car".
    """
    base = " ".join(query.split())
    variants = [base, base + "s"]
    words = base.split()
    if len(words) > 1:
        variants.append(words[-1])
    seen: set[str] = set()
    unique = []
    for v in variants:
        key = v.casefold()
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return tuple(unique)


def score_embedding_leaf(bundle: ExpertBundle, expert: ExpertKind, query: str) -> np.ndarray:
    """Raw row for a CLIP or CLAP leaf from the bundle's score table."""
    if expert is ExpertKind.CLIP:
        table: ScoreTable | None = bundle.clip_table
    elif expert is ExpertKind.CLAP:
        table = bundle.clap_table
    else:
        raise ValueError(f"{expert} is not an embedding-scored expert")
    if table is None:
        raise MissingArtifactError(
            f"bundle {bundle.video_id!r} has no {expert.value} score table"
        )
    values = table.lookup(query)
    if values is None:
        raise MissingRowError(
            f"{expert.value} table for {bundle.video_id!r} has no row for {query!r}"
        )
    return values


def score_ovd_leaf(source: OvdSource | None, query: str, num_frames: int) -> np.ndarray:
    """Raw detection row: per-frame max confidence over query variants.

    A missing source or unmatched query yields zeros; detection absence is
    a legitimate score of 0, not an error.
    """
    if source is None:
        return np.zeros(num_frames, dtype=np.float64)
    return source.max_over(query_variants(query), num_frames)


def score_asr_leaf(
    transcript: tuple[TranscriptSegment, ...],
    query: str,
    num_frames: int,
    frame_rate: float,
) -> np.ndarray:
    """Raw speech row: segment match scores spread over overlapped frames.

    Each segment scores via windowed text matching, all segments in one
    batch, then frame t (covering [t/fps, (t+1)/fps)) receives max over
    segments of segment score times the fraction of the frame interval the
    segment overlaps.
    """
    values = np.zeros(num_frames, dtype=np.float64)
    scores = windowed_match_scores(query, [seg.text for seg in transcript])
    for i in np.flatnonzero(scores > 0.0).tolist():
        seg = transcript[i]
        # Frames floor(start * fps) .. ceil(end * fps), clipped to the
        # timeline before rounding, so a time that overflows to inf still
        # clips; a segment starting past the end covers none.
        first = math.floor(min(seg.start * frame_rate, num_frames))
        last = math.ceil(min(seg.end * frame_rate, num_frames - 1))
        t = np.arange(first, last + 1)
        overlap = np.minimum(seg.end, (t + 1) / frame_rate) - np.maximum(seg.start, t / frame_rate)
        row = values[first : last + 1]
        np.maximum(row, scores[i] * (overlap * frame_rate), out=row, where=overlap > 0.0)
    return values


def score_ocr_leaf(
    ocr: tuple[OcrFrameText, ...], query: str, num_frames: int
) -> np.ndarray:
    """Raw on-screen-text row: per-frame max detection match score, every
    detection of the video matched in one batch."""
    values = np.zeros(num_frames, dtype=np.float64)
    detections = [text for entry in ocr for text in entry.detections]
    frames = [entry.frame for entry in ocr for _ in entry.detections]
    np.maximum.at(values, np.array(frames, dtype=np.intp), match_scores(query, detections))
    return values


@dataclass
class ProviderCounters:
    """Observable scoring activity, one count per distinct computation.

    scoring_calls[e] increments once per unique (expert, query) pair each
    time a tree is evaluated, so duplicate leaves share a single call and
    experts absent from the tree stay at zero. Leaves are evaluated one
    after another; updates and snapshots still take a lock, so one counter
    object can be shared by threads that each evaluate a tree.
    """

    scoring_calls: dict[ExpertKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in ExpertKind}
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, expert: ExpertKind) -> None:
        with self._lock:
            self.scoring_calls[expert] += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {kind.value: count for kind, count in self.scoring_calls.items()}


def _score_one(
    expert: ExpertKind,
    query: str,
    bundle: ExpertBundle,
    ovd_source: OvdSource | None,
) -> np.ndarray:
    if expert in (ExpertKind.CLIP, ExpertKind.CLAP):
        return score_embedding_leaf(bundle, expert, query)
    if expert is ExpertKind.OVD:
        return score_ovd_leaf(ovd_source, query, bundle.num_frames)
    if expert is ExpertKind.ASR:
        if bundle.transcript is None:
            raise MissingArtifactError(f"bundle {bundle.video_id!r} has no transcript")
        return score_asr_leaf(
            bundle.transcript, query, bundle.num_frames, bundle.frame_rate
        )
    if bundle.ocr is None:
        raise MissingArtifactError(f"bundle {bundle.video_id!r} has no ocr artifacts")
    return score_ocr_leaf(bundle.ocr, query, bundle.num_frames)


def evaluate_leaves(
    tree: LogicTree,
    bundle: ExpertBundle,
    ovd_source: OvdSource | None = None,
    counters: ProviderCounters | None = None,
) -> np.ndarray:
    """Raw rows for every leaf as an (L, T) array, row i for leaf id i.

    Each (expert, query) pair is scored once: experts with no leaves in the
    tree are never consulted, and duplicate predicates share one scoring
    call while still receiving their own row. Failures carry the offending
    leaf's identity.
    """
    if counters is None:
        counters = ProviderCounters()
    scored: dict[tuple[ExpertKind, str], np.ndarray] = {}
    rows = []
    for leaf in tree.leaves:
        key = (leaf.expert, leaf.query.casefold())
        if key not in scored:
            try:
                scored[key] = _score_one(leaf.expert, leaf.query, bundle, ovd_source)
            except Exception as exc:
                raise LeafEvaluationError(
                    leaf.leaf_id, leaf.expert.value, leaf.query, exc
                ) from exc
            counters.record(leaf.expert)
        rows.append(scored[key])
    return np.stack(rows)
