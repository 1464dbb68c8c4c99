"""Seeded synthetic inputs for the three benchmark workloads.

Every workload is a bundle file, a detection-source file and a list of
questions (tree document, budget, strategy). The same seed gives the same
bytes. Filler text comes from fixed five-letter vocabularies, so all text
lengths, and with them the cost of edit-distance matching, are identical
for every seed; only which words appear and where the planted phrases land
change. Table rows are Gaussian noise around a low baseline with a few
planted high plateaus, like similarity scores that are never exactly 0.

Planted text: every ASR and OCR query phrase appears verbatim in some
segments or detections (the substring path) and with one letter replaced
by ``q`` in others (the fuzzy edit-distance path; no vocabulary word holds
a ``q``, so a near miss can never match exactly).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from himu.experts import (
    ExpertBundle,
    OcrFrameText,
    OvdSource,
    ScoreTable,
    TranscriptSegment,
    save_bundle,
    save_ovd_source,
)
from himu.tree import ExpertKind

FILLER = (
    "about after again below could every first found great house large learn "
    "never other place plant point right small sound spell still study their "
    "there these thing think three water where which world would write light "
    "voice paper table month river earth heart green music story field north "
    "south money horse dream chair bread clock glass fruit grass shirt truck "
    "stone sheep piano beach"
).split()

KEYWORDS = (
    "amber badge cabin delta eagle flute giant honey ivory jewel koala lemon "
    "mango noble olive pearl radar salsa tiger ultra vapor whale yacht zebra "
    "blaze crane drift ember frost gloom hazel opera"
).split()

SEGMENT_SECONDS = 4.0
SEGMENT_SPAN = 3.0
SEGMENT_WORDS = (1, 2, 3)  # cycled; plants go into segments of two or more words
DETECTION_WORDS = (1, 2)  # cycled; plants replace two-word detections
OCR_STRIDE = 3
BASELINE = 0.25
NOISE = 0.05
EVENTS_PER_ROW = 6

STRATEGIES = ("pass", "topk", "uniform")
QA_BUDGETS = (8, 16, 32, 64)
QA_QUESTIONS = 24
CLI_QUESTION = 0

# Question shapes: nested [op, child, ...] lists whose leaves are expert
# names. Shapes 0, 3 and 6 carry an ASR leaf, so 9 of the 24 qa_session
# questions (i % 8 in {0, 3, 6}) read the transcript.
QA_SHAPES = (
    ["AND", "ASR", "CLIP"],
    ["OR", "CLIP", "CLAP"],
    ["SEQ", "CLIP", "OVD", "CLAP"],
    ["RIGHT_AFTER", "OCR", "ASR"],
    ["AND", "OCR", ["OR", "CLIP", "OVD"]],
    ["RIGHT_AFTER", "CLIP", "CLAP"],
    ["SEQ", ["AND", "ASR", "CLAP"], ["OR", "CLIP", "OCR"], "OVD"],
    ["AND", "CLIP", ["RIGHT_AFTER", "OVD", "CLAP"], ["OR", "CLIP", "OCR"]],
)


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; every count is the same for every seed."""

    frames: int
    fps: float
    segments: int
    ocr: bool
    clip_rows: int
    clap_rows: int
    ovd_rows: int
    asr_phrases: int
    ocr_phrases: int
    plants_per_phrase: int  # exact copies; the same number again as near misses
    shape: list | None = None  # the single question's tree; None means the qa mix
    budget: int | None = None  # and its budget


SPECS = {
    # 3 h at 1 fps; one segment every 4 s. The tree keeps one ASR leaf
    # (two OCR, four table leaves) so one question takes well under a second.
    "speech_3h": Spec(
        frames=10_800, fps=1.0, segments=2_700, ocr=True,
        clip_rows=4, clap_rows=2, ovd_rows=2,
        asr_phrases=1, ocr_phrases=2, plants_per_phrase=40,
        shape=["SEQ", ["AND", "ASR", "CLIP"], ["RIGHT_AFTER", "OCR", "CLAP"],
               ["OR", "OCR", "CLIP", "OVD"]],
        budget=32,
    ),
    # 1 h at 30 fps, table experts only: 12 CLIP/CLAP rows plus two
    # detection entries, about 37 MB of bundle JSON.
    "frames_108k": Spec(
        frames=108_000, fps=30.0, segments=0, ocr=False,
        clip_rows=8, clap_rows=4, ovd_rows=2,
        asr_phrases=0, ocr_phrases=0, plants_per_phrase=0,
        shape=["AND", ["RIGHT_AFTER", "CLIP", "CLAP"],
               ["SEQ", "CLIP", "CLIP", "OVD"], ["OR", "CLIP", "CLAP"]],
        budget=64,
    ),
    # 1 h at 1 fps with every artifact kind; 24 questions share one bundle.
    "qa_session": Spec(
        frames=3_600, fps=1.0, segments=900, ocr=True,
        clip_rows=6, clap_rows=4, ovd_rows=3,
        asr_phrases=6, ocr_phrases=6, plants_per_phrase=10,
    ),
}


@dataclass(frozen=True)
class Question:
    document: str
    budget: int
    strategy: str


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    bundle_path: Path
    ovd_path: Path
    tree_path: Path  # questions[cli_question], the one the CLI answers
    cli_question: int
    questions: tuple[Question, ...]
    counts: dict[str, int]

    def bundle_sha256(self) -> str:
        return hashlib.sha256(self.bundle_path.read_bytes()).hexdigest()


def _phrases(rng, count: int) -> list[str]:
    words = [KEYWORDS[i] for i in rng.permutation(len(KEYWORDS))[: 2 * count]]
    return [f"{words[2 * i]} {words[2 * i + 1]}" for i in range(count)]


def near_miss(phrase: str, rng) -> str:
    """The phrase with one letter replaced by ``q`` (one edit away)."""
    letters = [i for i, ch in enumerate(phrase) if ch != " "]
    pos = letters[int(rng.integers(len(letters)))]
    return phrase[:pos] + "q" + phrase[pos + 1 :]


def _plants(rng, slots: list[int], phrases: list[str], per_phrase: int) -> dict[int, str]:
    """Map slot index -> planted text: exact copies, then near misses."""
    texts = [p for p in phrases for _ in range(per_phrase)]
    texts += [near_miss(p, rng) for p in phrases for _ in range(per_phrase)]
    chosen = rng.permutation(slots)[: len(texts)]
    return {int(slot): text for slot, text in zip(chosen, texts)}


def _filler(rng, count: int) -> list[str]:
    return [FILLER[i] for i in rng.integers(len(FILLER), size=count)]


def _transcript(rng, spec: Spec, phrases: list[str]) -> tuple[TranscriptSegment, ...]:
    widths = [SEGMENT_WORDS[i % len(SEGMENT_WORDS)] for i in range(spec.segments)]
    plants = _plants(
        rng, [i for i, n in enumerate(widths) if n >= 2], phrases, spec.plants_per_phrase
    )
    segments = []
    for i, n in enumerate(widths):
        words = _filler(rng, n)
        if i in plants:
            at = int(rng.integers(n - 1))
            words[at : at + 2] = plants[i].split()
        start = i * SEGMENT_SECONDS
        segments.append(TranscriptSegment(start, start + SEGMENT_SPAN, " ".join(words)))
    return tuple(segments)


def _ocr(rng, spec: Spec, phrases: list[str]) -> tuple[OcrFrameText, ...]:
    frames = range(0, spec.frames, OCR_STRIDE)
    widths = [DETECTION_WORDS[i % len(DETECTION_WORDS)] for i in range(len(frames))]
    plants = _plants(
        rng, [i for i, n in enumerate(widths) if n == 2], phrases, spec.plants_per_phrase
    )
    entries = []
    for i, (frame, n) in enumerate(zip(frames, widths)):
        text = plants.get(i) or " ".join(_filler(rng, n))
        entries.append(OcrFrameText(frame, (text,)))
    return tuple(entries)


def _table_rows(rng, spec: Spec, queries: list[str]) -> tuple:
    shortest, longest = int(3 * spec.fps), int(20 * spec.fps)
    rows = []
    for query in queries:
        values = rng.normal(BASELINE, NOISE, spec.frames)
        for _ in range(EVENTS_PER_ROW):
            length = int(rng.integers(shortest, longest + 1))
            start = int(rng.integers(spec.frames - length))
            plateau = rng.uniform(0.5, 1.0) + rng.normal(0.0, NOISE, length)
            values[start : start + length] = np.maximum(values[start : start + length], plateau)
        rows.append((query, np.clip(values, 0.0, 1.0)))
    return tuple(rows)


def _fill(shape, pick) -> dict:
    if isinstance(shape, str):
        return {"expert": shape, "query": pick(shape)}
    return {"op": shape[0], "children": [_fill(child, pick) for child in shape[1:]]}


def _num_leaves(shape) -> int:
    return 1 if isinstance(shape, str) else sum(_num_leaves(c) for c in shape[1:])


def generate_workload(name: str, seed: int, out_dir: Path) -> Workload:
    """Write one workload's files under ``out_dir`` and describe its questions."""
    spec = SPECS[name]
    rng = np.random.default_rng([seed, 0x6869_6D75])
    video_id = f"{name}-{seed}"

    text_phrases = _phrases(rng, spec.asr_phrases + spec.ocr_phrases)
    asr_phrases = text_phrases[: spec.asr_phrases]
    ocr_phrases = text_phrases[spec.asr_phrases :]
    table_phrases = _phrases(rng, spec.clip_rows + spec.clap_rows + spec.ovd_rows)
    rows = {
        "CLIP": table_phrases[: spec.clip_rows],
        "CLAP": table_phrases[spec.clip_rows : spec.clip_rows + spec.clap_rows],
        "OVD": table_phrases[spec.clip_rows + spec.clap_rows :],
        "ASR": asr_phrases,
        "OCR": ocr_phrases,
    }

    transcript = _transcript(rng, spec, asr_phrases) if spec.segments else None
    ocr = _ocr(rng, spec, ocr_phrases) if spec.ocr else None
    bundle = ExpertBundle(
        video_id=video_id,
        num_frames=spec.frames,
        frame_rate=spec.fps,
        clip_table=ScoreTable(ExpertKind.CLIP, video_id, _table_rows(rng, spec, rows["CLIP"])),
        clap_table=ScoreTable(ExpertKind.CLAP, video_id, _table_rows(rng, spec, rows["CLAP"])),
        transcript=transcript,
        ocr=ocr,
    )
    ovd_source = OvdSource(video_id, _table_rows(rng, spec, rows["OVD"]))

    if spec.shape is not None:
        cursors = {kind: 0 for kind in rows}

        def pick(kind: str) -> str:  # leaves take each expert's rows in order
            cursors[kind] += 1
            return rows[kind][cursors[kind] - 1]

        shapes = [(spec.shape, spec.budget, "pass")]
    else:

        def pick(kind: str) -> str:
            return rows[kind][int(rng.integers(len(rows[kind])))]

        shapes = [
            (QA_SHAPES[i % len(QA_SHAPES)], QA_BUDGETS[i % len(QA_BUDGETS)],
             STRATEGIES[i % len(STRATEGIES)])
            for i in range(QA_QUESTIONS)
        ]
    questions = tuple(
        Question(json.dumps(_fill(shape, pick), sort_keys=True), budget, strategy)
        for shape, budget, strategy in shapes
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    workload = Workload(
        name=name,
        frames=spec.frames,
        bundle_path=out_dir / "bundle.json",
        ovd_path=out_dir / "ovd.json",
        tree_path=out_dir / "tree.json",
        cli_question=CLI_QUESTION,
        questions=questions,
        counts={
            "input.frames": spec.frames,
            "input.leaves": sum(_num_leaves(shape) for shape, _, _ in shapes),
            "input.segments": spec.segments,
            "input.ocr_detections": len(ocr) if ocr else 0,
            "input.table_rows": spec.clip_rows + spec.clap_rows + spec.ovd_rows,
        },
    )
    save_bundle(bundle, workload.bundle_path)
    save_ovd_source(ovd_source, workload.ovd_path)
    workload.tree_path.write_text(questions[CLI_QUESTION].document + "\n", encoding="utf-8")
    return workload
