"""Leaf scoring: turn (expert, query) predicates into raw per-frame rows.

Embedding-style experts read score-table rows from the per-video bundle.
Object detection is query-conditioned: its scores come from a separate
per-query source and are recomputed on every evaluation instead of being
cached. Transcript and on-screen-text leaves score from the bundle's text
indexes (``ExpertBundle.transcript_index`` and ``ocr_index``), which are
built on the first text leaf and shared by every later one, so a leaf does
only the query's own work: it matches the query against every segment or
detection of the video in one batch of code spans
(``matching.windowed_match_scores``, ``matching.match_scores``). OCR keeps
each frame's best score with ``np.maximum.at``, ASR spreads each matched
segment over its own frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    LeafEvaluationError,
    MissingArtifactError,
    MissingRowError,
)
from ..tree import ExpertKind, LogicTree
from .bundle import ExpertBundle, OvdSource, ScoreTable
from .matching import match_scores, query_key, windowed_match_scores
# Counted by perfbench/spans.py; the scorers call the batched forms above.
from .matching import match_score, windowed_match_score  # noqa: F401


def query_variants(query: str) -> tuple[str, ...]:
    """Deterministic detection-query variants, as ``query_key`` forms: the
    query, its naive plural and its head noun, without repeats.

    The head-noun variant drops leading modifiers by keeping the final
    word, so "red sports car" also matches rows for "car".
    """
    key = query_key(query)
    return tuple(dict.fromkeys((key, key + "s", key.rsplit(" ", 1)[-1])))


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


def score_asr_leaf(bundle: ExpertBundle, query: str) -> np.ndarray:
    """Raw speech row: segment match scores spread over overlapped frames.

    Every segment scores via windowed text matching over the bundle's
    transcript index, all segments in one batch; then frame t (covering
    [t/fps, (t+1)/fps)) receives max over segments of segment score times
    the fraction of the frame interval the segment overlaps. The frames
    of every matched segment are spread in one pass.
    """
    if bundle.transcript is None:
        raise MissingArtifactError(f"bundle {bundle.video_id!r} has no transcript")
    num_frames, frame_rate = bundle.num_frames, bundle.frame_rate
    values = np.zeros(num_frames, dtype=np.float64)
    scores = windowed_match_scores(query, bundle.transcript_index)
    matched = np.flatnonzero(scores > 0.0)
    start = np.array([bundle.transcript[i].start for i in matched.tolist()])
    end = np.array([bundle.transcript[i].end for i in matched.tolist()])
    # Frames floor(start * fps) .. ceil(end * fps), clipped to the
    # timeline before rounding, so a time that overflows to inf still
    # clips; a segment starting past the end covers none.
    with np.errstate(over="ignore"):
        first = np.floor(np.minimum(start * frame_rate, num_frames)).astype(np.int64)
        last = np.ceil(np.minimum(end * frame_rate, num_frames - 1)).astype(np.int64)
    # The frames of all matched segments end to end: frame t[j] of segment
    # owner[j].
    counts = np.maximum(last - first + 1, 0)
    owner = np.repeat(np.arange(matched.size), counts)
    t = np.arange(owner.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    start, end = start[owner], end[owner]
    overlap = np.minimum(end, (t + 1) / frame_rate) - np.maximum(start, t / frame_rate)
    covered = overlap > 0.0
    weighted = scores[matched][owner] * (overlap * frame_rate)
    np.maximum.at(values, t[covered], weighted[covered])
    return values


def score_ocr_leaf(bundle: ExpertBundle, query: str) -> np.ndarray:
    """Raw on-screen-text row: per-frame max detection match score, every
    detection of the bundle's OCR index matched in one batch."""
    if bundle.ocr is None:
        raise MissingArtifactError(f"bundle {bundle.video_id!r} has no ocr artifacts")
    index = bundle.ocr_index
    values = np.zeros(bundle.num_frames, dtype=np.float64)
    np.maximum.at(values, index.frames, match_scores(query, index))
    return values


@dataclass
class ProviderCounters:
    """Observable scoring activity, one count per distinct computation.

    scoring_calls[e] increments once per unique (expert, ``query_key``) pair
    each time a tree is evaluated, so duplicate leaves share a single call and
    experts absent from the tree stay at zero. Leaves are evaluated one
    after another in one thread, so the counts need no lock.
    """

    scoring_calls: dict[ExpertKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in ExpertKind}
    )

    def record(self, expert: ExpertKind) -> None:
        self.scoring_calls[expert] += 1

    def snapshot(self) -> dict[str, int]:
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
        return score_asr_leaf(bundle, query)
    return score_ocr_leaf(bundle, query)


def evaluate_leaves(
    tree: LogicTree,
    bundle: ExpertBundle,
    ovd_source: OvdSource | None = None,
    counters: ProviderCounters | None = None,
) -> np.ndarray:
    """Raw rows for every leaf as an (L, T) array, row i for leaf id i.

    Each (expert, ``query_key``) pair is scored once: experts with no leaves in the
    tree are never consulted, and duplicate predicates share one scoring
    call while still receiving their own row. Failures carry the offending
    leaf's identity.
    """
    if counters is None:
        counters = ProviderCounters()
    scored: dict[tuple[ExpertKind, str], np.ndarray] = {}
    rows = []
    for leaf in tree.leaves:
        key = (leaf.expert, query_key(leaf.query))
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
