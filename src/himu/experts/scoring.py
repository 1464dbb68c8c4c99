"""Leaf scoring: turn (expert, query) predicates into raw per-frame rows.

Embedding-style experts read score-table rows from the per-video bundle.
Object detection is query-conditioned: its scores come from a separate
per-query source and are recomputed on every evaluation instead of being
cached. Transcript and on-screen-text leaves score from the bundle's text
indexes (``ExpertBundle.transcript_index`` and ``ocr_index``), which are
built on the first text leaf and shared by every later one. A text
expert scores every distinct query of the tree in one batch, at its
first leaf: ``score_asr_leaf`` and ``score_ocr_leaf`` take a list of
queries and match all of them against every segment or detection of the
video with one edit-distance kernel call
(``matching.windowed_match_scores``, ``matching.match_scores``). OCR keeps
each frame's best score with ``np.maximum.at``, ASR spreads each matched
segment over its own frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    BundleFormatError,
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


def score_asr_leaf(bundle: ExpertBundle, queries) -> np.ndarray:
    """Raw speech rows, one per query: segment match scores spread over
    overlapped frames, as a (queries x frames) array.

    Every segment scores via windowed text matching over the bundle's
    transcript index, all queries and segments in one batch; then frame t
    (covering [t/fps, (t+1)/fps)) of a query's row receives max over
    segments of segment score times the fraction of the frame interval the
    segment overlaps. The frames of every matched (query, segment) pair
    are spread in one pass.
    """
    if bundle.transcript is None:
        raise MissingArtifactError(f"bundle {bundle.video_id!r} has no transcript")
    num_frames, frame_rate = bundle.num_frames, bundle.frame_rate
    scores = windowed_match_scores(queries, bundle.transcript_index)
    values = np.zeros(scores.shape[:1] + (num_frames,), dtype=np.float64)
    rows, matched = np.nonzero(scores > 0.0)
    start = np.array([bundle.transcript[i].start for i in matched.tolist()])
    end = np.array([bundle.transcript[i].end for i in matched.tolist()])
    # Frames floor(start * fps) .. ceil(end * fps), clipped to the
    # timeline before rounding, so a time that overflows to inf still
    # clips; a segment starting past the end covers none.
    with np.errstate(over="ignore"):
        first = np.floor(np.minimum(start * frame_rate, num_frames)).astype(np.int64)
        last = np.ceil(np.minimum(end * frame_rate, num_frames - 1)).astype(np.int64)
    # The frames of all matched pairs end to end: frame t[j] of pair
    # owner[j].
    counts = np.maximum(last - first + 1, 0)
    owner = np.repeat(np.arange(matched.size), counts)
    t = np.arange(owner.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    start, end = start[owner], end[owner]
    overlap = np.minimum(end, (t + 1) / frame_rate) - np.maximum(start, t / frame_rate)
    covered = overlap > 0.0
    weighted = scores[rows, matched][owner] * (overlap * frame_rate)
    # Flat indices: ufunc.at is much slower with a tuple of index arrays.
    at = rows[owner] * num_frames + t
    np.maximum.at(values.ravel(), at[covered], weighted[covered])
    return values


def score_ocr_leaf(bundle: ExpertBundle, queries) -> np.ndarray:
    """Raw on-screen-text rows, one per query, as a (queries x frames)
    array: per-frame max detection match score, every query and detection
    of the bundle's OCR index matched in one batch."""
    if bundle.ocr is None:
        raise MissingArtifactError(f"bundle {bundle.video_id!r} has no ocr artifacts")
    index = bundle.ocr_index
    scores = match_scores(queries, index)
    values = np.zeros((scores.shape[0], bundle.num_frames), dtype=np.float64)
    # Flat indices: ufunc.at is much slower with a tuple of index arrays.
    at = np.arange(scores.shape[0])[:, None] * bundle.num_frames + index.frames
    np.maximum.at(values.ravel(), at.ravel(), scores.ravel())
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


def _score_rows(
    expert: ExpertKind,
    queries: list[str],
    bundle: ExpertBundle,
    ovd_source: OvdSource | None,
):
    """Rows for distinct queries of one expert, one per query. Text
    experts score a batch; the others take one query at a time."""
    if expert is ExpertKind.ASR:
        return score_asr_leaf(bundle, queries)
    if expert is ExpertKind.OCR:
        return score_ocr_leaf(bundle, queries)
    (query,) = queries
    if expert is ExpertKind.OVD:
        return [score_ovd_leaf(ovd_source, query, bundle.num_frames)]
    return [score_embedding_leaf(bundle, expert, query)]


def evaluate_leaves(
    tree: LogicTree,
    bundle: ExpertBundle,
    ovd_source: OvdSource | None = None,
    counters: ProviderCounters | None = None,
) -> np.ndarray:
    """Raw rows for every leaf as an (L, T) array, row i for leaf id i.

    Each (expert, ``query_key``) pair is scored once: experts with no leaves in the
    tree are never consulted, and duplicate predicates share one scoring
    call while still receiving their own row. A text expert scores all of
    its distinct queries in one batch at its first leaf. Failures carry
    the identity of the leaf being scored, in leaf order. A detection
    source for another video is a ``BundleFormatError`` before any leaf is
    scored.
    """
    if ovd_source is not None and ovd_source.video_id != bundle.video_id:
        raise BundleFormatError(
            f"detection source is for video {ovd_source.video_id!r}, "
            f"bundle is for {bundle.video_id!r}"
        )
    if counters is None:
        counters = ProviderCounters()
    # The distinct queries of each text expert, in first-appearance order
    # and first spelling.
    batches: dict[ExpertKind, dict[str, str]] = {}
    for leaf in tree.leaves:
        if leaf.expert in (ExpertKind.ASR, ExpertKind.OCR):
            batches.setdefault(leaf.expert, {}).setdefault(query_key(leaf.query), leaf.query)
    scored: dict[tuple[ExpertKind, str], np.ndarray] = {}
    rows = []
    for leaf in tree.leaves:
        key = (leaf.expert, query_key(leaf.query))
        if key not in scored:
            batch = batches.get(leaf.expert, {key[1]: leaf.query})
            try:
                values = _score_rows(leaf.expert, list(batch.values()), bundle, ovd_source)
            except Exception as exc:
                raise LeafEvaluationError(
                    leaf.leaf_id, leaf.expert.value, leaf.query, exc
                ) from exc
            for batch_key, row in zip(batch, values):
                scored[(leaf.expert, batch_key)] = row
                counters.record(leaf.expert)
        rows.append(scored[key])
    return np.stack(rows)
