"""In-memory span recorder and the wrappers that feed it.

Spans follow the Dapper model: a name, a start, an end and the span that
was open when it started (its parent). Every span also carries the id of
the question it belongs to. The benchmark records spans from outside the
program: ``Tracing`` swaps public module attributes that himu calls
through (``himu.pipeline.evaluate_leaves``, ``himu.compose.op_seq``, ...)
for timing wrappers and puts the originals back on exit. Counting wrappers
on the text matchers record calls and hits without a span, because they
run thousands of times per question. Nothing is written until the caller
asks for ``to_obj``.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name). A module attribute is patched, so a
# caller that looks the name up at call time sees the wrapper.
SPAN_POINTS = (
    ("himu.cli", "cmd_select", "cli.select"),
    ("himu.cli", "parse_tree", "tree.parse"),
    ("himu.cli", "loads_bundle", "bundle.parse"),
    ("himu.cli", "load_ovd_source", "bundle.ovd_read"),
    ("himu.cli", "bundle_digest", "bundle.digest"),
    ("himu.cli", "write_through", "cache.write"),
    ("himu.cli", "run_pipeline", "pipeline"),
    ("himu.pipeline", "evaluate_leaves", "scoring.leaves"),
    ("himu.experts.scoring", "score_asr_leaf", "scoring.asr"),
    ("himu.experts.scoring", "score_ocr_leaf", "scoring.ocr"),
    ("himu.experts.scoring", "score_embedding_leaf", "scoring.table"),
    ("himu.experts.scoring", "score_ovd_leaf", "scoring.ovd"),
    ("himu.pipeline", "normalize_joint", "signals.normalize"),
    ("himu.pipeline", "smooth", "signals.smooth"),
    ("himu._kernels", "smooth_renorm", "kernels.smooth"),
    ("himu._kernels", "smooth_strict", "kernels.smooth"),
    ("himu.pipeline", "evaluate", "compose"),
    ("himu.compose", "op_and", "compose.and"),
    ("himu.compose", "op_or", "compose.or"),
    ("himu.compose", "op_seq", "compose.seq"),
    ("himu.compose", "op_right_after", "compose.right_after"),
    ("himu._kernels", "seq_compose", "kernels.seq"),
    ("himu._kernels", "right_after_compose", "kernels.right_after"),
    ("himu.pipeline", "pass_select", "select.pass"),
    ("himu.pipeline", "topk_select", "select.topk"),
    ("himu.pipeline", "uniform_select", "select.uniform"),
)

# (module, attribute, counter prefix, count truthy results as hits)
COUNT_POINTS = (
    ("himu.experts.scoring", "windowed_match_score", "matching.windowed", True),
    ("himu.experts.scoring", "match_score", "matching.match", True),
    ("himu.experts.matching", "levenshtein", "matching.levenshtein", False),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span in Recorder.spans
    question: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], int] = {}
        self.question: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.question))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.question, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Children run one after another inside their parent on one thread,
        so the part they cover is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration_ns
        return [span.duration_ns - c for span, c in zip(self.spans, covered)]

    def to_obj(self) -> dict:
        return {
            "spans": [
                [s.name, s.start_ns, s.end_ns, s.parent, s.question] for s in self.spans
            ],
            "counts": [[q, name, n] for (q, name), n in self.counts.items()],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Recorder":
        recorder = cls()
        recorder.spans = [Span(*fields) for fields in obj["spans"]]
        recorder.counts = {(q, name): n for q, name, n in obj["counts"]}
        return recorder


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _timed(recorder: Recorder, name: str, fn):
    # Kernel spans also add the bytes their arrays hold: each input read
    # once and the output written once (computed, not measured).
    bytes_name = f"{name}_bytes" if name.startswith("kernels.") else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if bytes_name is not None:
            recorder.count(bytes_name, _nbytes(args) + _nbytes((result,)))
        return result

    return wrapper


def _counted(recorder: Recorder, prefix: str, hits: bool, fn):
    calls_name, hits_name = f"{prefix}_calls", f"{prefix}_hits"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.count(calls_name)
        if hits and result:
            recorder.count(hits_name)
        return result

    return wrapper


class Tracing:
    """Route himu's internal calls through span and counter wrappers.

    The wrappers are built once; entering swaps them in and leaving puts
    the original attributes back, so one object can be entered per
    question at little cost.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patches = []
        for module_name, attr, name in SPAN_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.patches.append((module, attr, original, _timed(recorder, name, original)))
        for module_name, attr, prefix, hits in COUNT_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.patches.append(
                (module, attr, original, _counted(recorder, prefix, hits, original))
            )

    def __enter__(self) -> Recorder:
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for module, attr, original, _ in reversed(self.patches):
            setattr(module, attr, original)
