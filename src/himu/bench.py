"""Synthetic event scripts, artifact generation, and a recall harness.

A script plants scored events on a frame timeline; the generator turns it
into the same artifact files a real video would produce (score tables,
transcript segments, text detections, detection scores), plus ground truth.
The harness computes each script's curve once, selects from it per selector
and budget, and reports how often selected frames land inside event supports.
Generation is deterministic: a fixed seed drives one PCG64 stream in a
fixed channel order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .config import EngineConfig
from .errors import BenchmarkError, InvalidScriptError
from .experts.bundle import (
    ExpertBundle,
    OcrFrameText,
    OvdSource,
    ScoreTable,
    TranscriptSegment,
)
from .experts.matching import query_key
from .pipeline import STRATEGIES, satisfaction_curve, select_frames
from .tree import ExpertKind, parse_tree

SCRIPT_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

_TEXT_EXPERTS = (ExpertKind.ASR, ExpertKind.OCR)
_SHIFTED_EXPERTS = (ExpertKind.ASR, ExpertKind.CLAP)
# Score-table experts, in the order their noise is drawn.
_TABLE_EXPERTS = (ExpertKind.CLIP, ExpertKind.CLAP, ExpertKind.OVD)


@dataclass(frozen=True)
class Event:
    """One planted occurrence: an expert sees the query on a frame span.

    support is the half-open ground-truth frame interval [start, end).
    modality_offset shifts where the signal lands for speech and audio
    channels (which lag or lead the visual timeline); ground truth stays
    unshifted.
    """

    expert: ExpertKind
    query: str
    support: tuple[int, int]
    amplitude: float = 1.0
    modality_offset: int = 0


@dataclass(frozen=True)
class EventScript:
    """Deterministic recipe for one synthetic video's artifacts."""

    script_id: str
    num_frames: int
    events: tuple[Event, ...]
    noise_level: float = 0.0
    seed: int = 0
    frame_rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        validate_script(self)


def validate_script(script: EventScript) -> None:
    if not script.script_id:
        raise InvalidScriptError("script_id must be nonempty")
    # The id names the files `himu gen` writes.
    if script.script_id in (".", "..") or {"/", "\\"} & set(script.script_id):
        raise InvalidScriptError(f"script_id {script.script_id!r} must be a file name")
    if script.num_frames < 1:
        raise InvalidScriptError(f"{script.script_id}: num_frames must be >= 1")
    if not (math.isfinite(script.noise_level) and script.noise_level >= 0):
        raise InvalidScriptError(f"{script.script_id}: noise_level must be >= 0")
    if not (math.isfinite(script.frame_rate) and script.frame_rate > 0):
        raise InvalidScriptError(f"{script.script_id}: frame_rate must be > 0")
    if script.seed < 0:
        raise InvalidScriptError(f"{script.script_id}: seed must be >= 0")
    for event in script.events:
        start, end = event.support
        if not (0 <= start < end <= script.num_frames):
            raise InvalidScriptError(
                f"{script.script_id}: support [{start}, {end}) is not inside "
                f"[0, {script.num_frames})"
            )
        if not (0.0 < event.amplitude <= 1.0):
            raise InvalidScriptError(
                f"{script.script_id}: amplitude must be in (0, 1], "
                f"got {event.amplitude}"
            )
        if event.expert in _TEXT_EXPERTS and event.amplitude != 1.0:
            raise InvalidScriptError(
                f"{script.script_id}: {event.expert.value} events carry binary "
                f"match scores; amplitude must be exactly 1.0"
            )
        if not event.query.strip():
            raise InvalidScriptError(f"{script.script_id}: event query is empty")


@dataclass(frozen=True)
class GeneratedInstance:
    """The expert bundle and detection source generated for one script."""

    bundle: ExpertBundle
    ovd_source: OvdSource | None


def _signal_support(event: Event, num_frames: int) -> tuple[int, int]:
    """Where the event's signal lands, after any modality shift, clamped."""
    start, end = event.support
    if event.expert in _SHIFTED_EXPERTS:
        start += event.modality_offset
        end += event.modality_offset
    return max(0, start), min(num_frames, end)


def generate(script: EventScript) -> GeneratedInstance:
    """Deterministic artifacts for a script, from one pass over its events.

    Events whose queries share a ``query_key`` plant into one score-table
    row, named by the first spelling seen, holding the max amplitude over
    their (possibly shifted) supports. Clipped Gaussian noise is added when
    noise_level > 0, to the CLIP rows, then CLAP, then OVD, each in order of
    first appearance. Speech events become transcript segments whose text
    is the query; text events become per-frame detections; both match
    exactly at scoring time, which is why their amplitude is pinned to 1.0.
    """
    num_frames = script.num_frames
    # query_key -> (first spelling, planted values), per table expert.
    tables = {expert: {} for expert in _TABLE_EXPERTS}
    segments, ocr_entries = [], []
    for event in script.events:
        lo, hi = _signal_support(event, num_frames)
        if event.expert is ExpertKind.ASR:
            if lo < hi:
                segments.append(TranscriptSegment(
                    lo / script.frame_rate, hi / script.frame_rate, event.query.casefold()
                ))
        elif event.expert is ExpertKind.OCR:
            ocr_entries += [OcrFrameText(frame, (event.query,)) for frame in range(lo, hi)]
        else:
            _, values = tables[event.expert].setdefault(
                query_key(event.query), (event.query, np.zeros(num_frames))
            )
            # A shifted support can clamp to nothing, even to a negative end.
            if lo < hi:
                np.maximum(values[lo:hi], event.amplitude, out=values[lo:hi])

    rng = np.random.default_rng(script.seed)
    rows = {}
    for expert, table in tables.items():
        rows[expert] = []
        for query, values in table.values():
            if script.noise_level > 0:
                values = values + rng.normal(0.0, script.noise_level, num_frames)
            rows[expert].append((query, np.clip(values, 0.0, 1.0)))

    def score_table(expert):
        return ScoreTable(expert, script.script_id, tuple(rows[expert])) if rows[expert] else None

    used = {event.expert for event in script.events}
    bundle = ExpertBundle(
        video_id=script.script_id,
        num_frames=num_frames,
        frame_rate=script.frame_rate,
        clip_table=score_table(ExpertKind.CLIP),
        clap_table=score_table(ExpertKind.CLAP),
        transcript=tuple(segments) if ExpertKind.ASR in used else None,
        ocr=tuple(ocr_entries) if ExpertKind.OCR in used else None,
    )
    ovd_rows = tuple(rows[ExpertKind.OVD])
    ovd_source = OvdSource(script.script_id, ovd_rows) if ovd_rows else None
    return GeneratedInstance(bundle=bundle, ovd_source=ovd_source)


def matched_tree_document(script: EventScript) -> str:
    """Tree that asks exactly for the script's events: OR over one leaf per
    (expert, ``query_key``), named by its first spelling, in order of first
    appearance."""
    leaves: dict[tuple[ExpertKind, str], dict] = {}
    for event in script.events:
        leaves.setdefault(
            (event.expert, query_key(event.query)),
            {"op": "LEAF", "expert": event.expert.value, "query": event.query},
        )
    children = list(leaves.values())
    if not children:
        raise InvalidScriptError(f"{script.script_id}: no events to build a tree from")
    if len(children) == 1:
        return json.dumps(children[0])
    return json.dumps({"op": "OR", "children": children})


@dataclass(frozen=True)
class ReportEntry:
    """Aggregate outcome for one selector at one budget."""

    selector: str
    budget: int
    events_total: int
    events_hit: int
    frames_selected: int
    frames_relevant: int

    @property
    def event_recall(self) -> float:
        return self.events_hit / self.events_total if self.events_total else 0.0

    @property
    def relevant_fraction(self) -> float:
        return self.frames_relevant / self.frames_selected if self.frames_selected else 0.0


@dataclass(frozen=True)
class RecallReport:
    """Recall of every selector at every budget over a script set."""

    selectors: tuple[str, ...]
    budgets: tuple[int, ...]
    num_scripts: int
    entries: tuple[ReportEntry, ...] = field(default_factory=tuple)

    def entry(self, selector: str, budget: int) -> ReportEntry:
        for e in self.entries:
            if e.selector == selector and e.budget == budget:
                return e
        raise KeyError(f"no entry for {selector!r} at budget {budget}")


def _check_unique_ids(scripts) -> None:
    """Reject a script_id that names two scripts."""
    seen = set()
    for script in scripts:
        if script.script_id in seen:
            raise InvalidScriptError(f"script_id {script.script_id!r} is not unique")
        seen.add(script.script_id)


def _check_grid(selectors: tuple, budgets: tuple) -> None:
    for name, values in (("selector", selectors), ("budget", budgets)):
        if not values:
            raise ValueError(f"no {name}s given")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"{name} {repeated!r} is repeated")
    for selector in selectors:
        if selector not in STRATEGIES:
            raise ValueError(f"unknown selector {selector!r}, expected one of {STRATEGIES}")
    for budget in budgets:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")


def run_benchmark(
    scripts,
    selectors=("uniform", "topk", "pass"),
    budgets=(8, 16, 32, 64),
    config: EngineConfig | None = None,
) -> RecallReport:
    """One satisfaction curve per script, selected from per selector x budget.

    Each script's tree is ``matched_tree_document``: it asks for exactly the
    script's events. Before any script is generated, every selector must be
    known and every budget >= 1, and neither list may be empty or repeat a
    value. Scripts are processed in script_id order so aggregation is
    deterministic regardless of input order.
    """
    if config is None:
        config = EngineConfig()
    selectors, budgets = tuple(selectors), tuple(budgets)
    _check_grid(selectors, budgets)
    ordered = sorted(scripts, key=lambda s: s.script_id)
    _check_unique_ids(ordered)

    # [events, hit, frames, relevant] per (selector, budget), in report order.
    pairs = [(sel, k) for sel in selectors for k in budgets]
    tallies = {pair: [0, 0, 0, 0] for pair in pairs}
    for script in ordered:
        try:
            instance = generate(script)
            tree = parse_tree(
                matched_tree_document(script),
                active_experts=config.active_experts,
                strict=config.strict_schema,
                max_depth=config.max_depth,
                max_leaves=config.max_leaves,
            )
            curve, _ = satisfaction_curve(tree, instance.bundle, config, instance.ovd_source)
            supports = [e.support for e in script.events]
            in_support = np.zeros(script.num_frames, dtype=bool)
            for start, end in supports:
                in_support[start:end] = True
            for selector, budget in pairs:
                frames = select_frames(curve, budget, config, selector).frames
                tally = tallies[(selector, budget)]
                tally[0] += len(supports)
                tally[1] += sum(any(s <= t < e for t in frames) for s, e in supports)
                tally[2] += len(frames)
                tally[3] += int(np.count_nonzero(in_support[list(frames)]))
        except InvalidScriptError:
            raise
        except Exception as exc:
            raise BenchmarkError(script.script_id, exc) from exc

    return RecallReport(
        selectors=selectors,
        budgets=tuple(int(k) for k in budgets),
        num_scripts=len(ordered),
        entries=tuple(ReportEntry(sel, k, *tallies[(sel, k)]) for sel, k in pairs),
    )


# --- file formats ---------------------------------------------------------------

_SCRIPT_KEYS = {"script_id", "T", "frame_rate", "noise_level", "seed", "events"}
_EVENT_KEYS = {"expert", "query", "support", "amplitude", "modality_offset"}


def _event_from_obj(obj) -> Event:
    err, what = InvalidScriptError, "event"
    jsonio.mapping(obj, err, what)
    jsonio.known_keys(obj, _EVENT_KEYS, err, what)
    name = jsonio.field(obj, "expert", jsonio.string, err, what)
    try:
        expert = ExpertKind(name.upper())
    except ValueError:
        raise err(f"unknown event expert {name!r}") from None
    support = jsonio.field(obj, "support", jsonio.array, err, what)
    if len(support) != 2:
        raise err(f"event support must be [start, end], got {len(support)} values")
    return Event(
        expert=expert,
        query=jsonio.field(obj, "query", jsonio.string, err, what),
        support=tuple(jsonio.array(support, err, "event support", jsonio.integer)),
        amplitude=jsonio.field(obj, "amplitude", jsonio.number, err, what, 1.0),
        modality_offset=jsonio.field(obj, "modality_offset", jsonio.integer, err, what, 0),
    )


def script_from_obj(obj) -> EventScript:
    """Validate a parsed script document; values are checked, never cast,
    and an unknown key is an error."""
    err, what = InvalidScriptError, "script"
    jsonio.mapping(obj, err, what)
    jsonio.known_keys(obj, _SCRIPT_KEYS, err, what)
    events = jsonio.field(obj, "events", jsonio.array, err, what, [])
    return EventScript(
        script_id=jsonio.field(obj, "script_id", jsonio.string, err, what),
        num_frames=jsonio.field(obj, "T", jsonio.integer, err, what),
        events=tuple(_event_from_obj(e) for e in events),
        noise_level=jsonio.field(obj, "noise_level", jsonio.number, err, what, 0.0),
        seed=jsonio.field(obj, "seed", jsonio.integer, err, what, 0),
        frame_rate=jsonio.field(obj, "frame_rate", jsonio.number, err, what, 1.0),
    )


def load_scripts(path) -> list[EventScript]:
    err, what = InvalidScriptError, "script file"
    obj = jsonio.mapping(jsonio.load_json(path, err, what), err, what)
    jsonio.known_keys(obj, {"format_version", "scripts"}, err, what)
    version = jsonio.field(obj, "format_version", jsonio.integer, err, what)
    if version != SCRIPT_FORMAT_VERSION:
        raise err(f"unsupported script format_version {version}")
    scripts = [script_from_obj(s) for s in jsonio.field(obj, "scripts", jsonio.array, err, what)]
    _check_unique_ids(scripts)
    return scripts


def report_to_obj(report: RecallReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "selectors": list(report.selectors),
        "budgets": list(report.budgets),
        "num_scripts": report.num_scripts,
        "entries": [
            {
                "selector": e.selector,
                "budget": e.budget,
                "events_total": e.events_total,
                "events_hit": e.events_hit,
                "event_recall": e.event_recall,
                "frames_selected": e.frames_selected,
                "frames_relevant": e.frames_relevant,
                "relevant_fraction": e.relevant_fraction,
            }
            for e in report.entries
        ],
    }


def save_report(report: RecallReport, path) -> None:
    jsonio.save_json(report_to_obj(report), path)
