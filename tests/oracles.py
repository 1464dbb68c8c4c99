"""Independent reference computations used to freeze expected values.

Everything here is written as a direct, unoptimized transcription of the
intended definitions, deliberately sharing no code with the package, so a
disagreement means the engine is wrong (or the definition was misread) and
never that both drifted together. The document builders at the end write
detection sources, event scripts and trees from the package's dataclasses
field by field, for tests that need a file or an expected text.
"""
from __future__ import annotations

import json
import math

import numpy as np


def seq_brute_force(curves: np.ndarray) -> np.ndarray:
    """Sequence composition via fresh O(T) scans per (step, frame)."""
    L, T = curves.shape
    out = np.zeros(T)
    for t in range(T):
        best = 0.0
        for step in range(L):
            term = curves[step, t]
            for j in range(step):
                past = curves[j, :t]
                term *= past.max() if past.size else 0.0
            for j in range(step + 1, L):
                future = curves[j, t + 1 :]
                term *= future.max() if future.size else 0.0
            best = max(best, term)
        out[t] = best
    return out


def right_after_direct(cause: np.ndarray, effect: np.ndarray, kappa: float) -> np.ndarray:
    """Adjacency composition via the O(T^2) definition sums."""
    T = cause.shape[0]
    s_effect = np.zeros(T)
    s_cause = np.zeros(T)
    for t in range(T):
        s_effect[t] = effect[t] * sum(
            cause[s] * math.exp(-kappa * (t - s)) for s in range(t)
        )
        s_cause[t] = cause[t] * sum(
            effect[s] * math.exp(-kappa * (s - t)) for s in range(t + 1, T)
        )
    return np.maximum(s_effect, s_cause)


def smooth_renorm_scalar(x: np.ndarray, sigma: float) -> np.ndarray:
    """Truncated-Gaussian smoothing with per-position renormalization."""
    T = x.shape[0]
    radius = math.ceil(4.0 * sigma)
    out = np.zeros(T)
    for t in range(T):
        num = 0.0
        den = 0.0
        for s in range(max(0, t - radius), min(T - 1, t + radius) + 1):
            w = math.exp(-0.5 * ((t - s) / sigma) ** 2)
            num += w * x[s]
            den += w
        out[t] = num / den
    return out


def smooth_strict_scalar(x: np.ndarray, sigma: float) -> np.ndarray:
    """Analytic-kernel smoothing over the whole timeline, no boundary fix."""
    T = x.shape[0]
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    out = np.zeros(T)
    for t in range(T):
        out[t] = norm * sum(
            x[s] * math.exp(-0.5 * ((t - s) / sigma) ** 2) for s in range(T)
        )
    return out


def smooth_renorm_dense(x: np.ndarray, sigma: float) -> np.ndarray:
    """Renormalized smoothing as one dense T x T truncated weight matrix."""
    T = x.shape[0]
    d = np.subtract.outer(np.arange(T), np.arange(T)).astype(np.float64)
    w = np.where(np.abs(d) <= math.ceil(4.0 * sigma), np.exp(-0.5 * (d / sigma) ** 2), 0.0)
    return (w @ x) / w.sum(axis=1)


def smooth_strict_dense(x: np.ndarray, sigma: float) -> np.ndarray:
    """Strict smoothing as one dense T x T matrix over the whole timeline."""
    T = x.shape[0]
    d = np.subtract.outer(np.arange(T), np.arange(T)).astype(np.float64)
    w = np.exp(-0.5 * (d / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    return w @ x


def seq_running_max(curves: np.ndarray) -> np.ndarray:
    """Sequence composition from explicit running maxima and step products."""
    L, T = curves.shape
    past = np.zeros((L, T))
    future = np.zeros((L, T))
    for j in range(L):
        for t in range(1, T):
            past[j, t] = max(past[j, t - 1], curves[j, t - 1])
        for t in range(T - 2, -1, -1):
            future[j, t] = max(future[j, t + 1], curves[j, t + 1])
    out = np.zeros(T)
    for t in range(T):
        for step in range(L):
            term = curves[step, t]
            for j in range(step):
                term *= past[j, t]
            for j in range(step + 1, L):
                term *= future[j, t]
            out[t] = max(out[t], term)
    return out


def seq_cumprod(curves: np.ndarray) -> np.ndarray:
    """Sequence composition from whole-array running maxima and two cumprods
    over the steps: the rounding the row-wise kernel must reproduce."""
    has_occurred = np.zeros_like(curves)
    yet_to_occur = np.zeros_like(curves)
    has_occurred[:, 1:] = np.maximum.accumulate(curves[:, :-1], axis=1)
    yet_to_occur[:, :-1] = np.maximum.accumulate(curves[:, :0:-1], axis=1)[:, ::-1]
    before = np.ones_like(curves)
    after = np.ones_like(curves)
    before[1:] = np.cumprod(has_occurred[:-1], axis=0)
    after[:-1] = np.cumprod(yet_to_occur[:0:-1], axis=0)[::-1]
    return (curves * before * after).max(axis=0)


def normalize_two_medians(group: np.ndarray, gamma: float, delta: float) -> np.ndarray:
    """Joint sigmoid normalization from two np.median calls, the median of
    the values and of their absolute deviations: the bytes the one-sort
    kernel must reproduce."""
    med = np.median(group)
    mad = np.median(np.abs(group - med))
    x = gamma / (mad + delta) * (group - med)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_masked_store(x: np.ndarray) -> np.ndarray:
    """Logistic function as 1/(1+e) for x >= 0 and e/(1+e) below, with
    e = exp(-|x|): 1.0 stored into a copy of e where x >= 0, then one
    division by 1 + e. The bytes the in-place sigmoid must reproduce."""
    positive = x >= 0
    e = np.exp(-np.abs(x))
    numerator = e.copy()
    np.copyto(numerator, 1.0, where=positive)
    return numerator / (1.0 + e)


def smooth_renorm_full_ones(x: np.ndarray, sigma: float) -> np.ndarray:
    """Renormalized smoothing of a row or an (n, T) group, each row's
    truncated convolution divided by that of a whole row of T ones: the
    bytes the kernel's short renormalizer must reproduce."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    out = np.empty(x.shape)
    if T == 0:
        return out
    r = min(T - 1, math.ceil(4.0 * sigma))
    d = np.arange(-r, r + 1, dtype=np.float64)
    w = np.exp(-0.5 * (d / sigma) ** 2)
    renorm = np.convolve(np.ones(T), w)[r : r + T]
    for row, smoothed in zip(x.reshape(-1, T), out.reshape(-1, T)):
        smoothed[:] = np.convolve(row, w)[r : r + T] / renorm
    return out


def right_after_dense(cause: np.ndarray, effect: np.ndarray, kappa: float) -> np.ndarray:
    """Adjacency composition as strictly lower/upper T x T decay matrices."""
    T = cause.shape[0]
    d = np.subtract.outer(np.arange(T), np.arange(T)).astype(np.float64)
    decay = np.exp(-kappa * np.abs(d))
    s_effect = effect * (np.tril(decay, -1) @ cause)
    s_cause = cause * (np.triu(decay, 1) @ effect)
    return np.maximum(s_effect, s_cause)


def pass_reference(curve, budget, max_peaks, neighbors_per_peak, window, min_distance):
    """Straight-line transcription of the three-phase selection."""
    values = [float(v) for v in curve]
    T = len(values)
    budget = min(budget, T)

    candidates = [
        t for t in range(1, T - 1) if values[t] > values[t - 1] and values[t] > values[t + 1]
    ]
    candidates.sort(key=lambda t: (-values[t], t))
    peaks = []
    for t in candidates:
        if len(peaks) >= max_peaks:
            break
        if all(abs(t - p) >= min_distance for p in peaks):
            peaks.append(t)

    selected = []
    phase = {}
    for p in peaks:
        if len(selected) >= budget:
            break
        selected.append(p)
        phase[p] = "peak"

    half = window // 2
    for p in peaks:
        if len(selected) >= budget:
            break
        in_window = [
            t
            for t in range(max(0, p - half), min(T - 1, p + half) + 1)
            if t not in selected
        ]
        in_window.sort(key=lambda t: (-values[t], t))
        for t in in_window[:neighbors_per_peak]:
            if len(selected) >= budget:
                break
            selected.append(t)
            phase[t] = "neighbor"

    if len(selected) < budget:
        rest = [t for t in range(T) if t not in selected]
        rest.sort(key=lambda t: (-values[t], t))
        for t in rest:
            if len(selected) >= budget:
                break
            selected.append(t)
            phase[t] = "fill"

    in_phase_one = [p for p in peaks if phase.get(p) == "peak"]
    return sorted(selected), phase, in_phase_one


def topk_reference(curve, budget):
    values = [float(v) for v in curve]
    order = sorted(range(len(values)), key=lambda t: (-values[t], t))
    return sorted(order[: min(budget, len(values))])


def levenshtein_matrix(a: str, b: str) -> int:
    """Full-matrix edit distance, the textbook way."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def similarity_reference(a: str, b: str) -> float:
    """1 - edits / max(len) from the full matrix; 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_matrix(a, b) / longest


def _normalize_text(text: str) -> str:
    return " ".join(text.casefold().split())


def match_score_reference(query: str, candidate: str) -> float:
    """Substring containment scores 1.0; otherwise the similarity of the
    whole strings, zeroed below 0.5."""
    q, c = _normalize_text(query), _normalize_text(candidate)
    if not q or not c:
        return 0.0
    if q in c:
        return 1.0
    score = similarity_reference(q, c)
    return score if score >= 0.5 else 0.0


def windowed_match_score_reference(query: str, text: str) -> float:
    """Substring containment scores 1.0; otherwise the best similarity of
    the query to any run of its word count -1, +0 or +1 consecutive words
    of the text, zeroed below 0.5. Every window is scored; none is skipped."""
    q, t = _normalize_text(query), _normalize_text(text)
    if not q or not t:
        return 0.0
    if q in t:
        return 1.0
    n = len(q.split())
    words = t.split()
    best = 0.0
    for width in (n - 1, n, n + 1):
        if width < 1:
            continue
        for i in range(len(words) - width + 1):
            best = max(best, similarity_reference(q, " ".join(words[i : i + width])))
    return best if best >= 0.5 else 0.0


def right_after_loop(cause: np.ndarray, effect: np.ndarray, kappa: float) -> np.ndarray:
    """Adjacency composition by the sequential accumulator loops, one frame
    at a time on numpy scalars: the rounding the fast kernel must reproduce."""
    T = cause.shape[0]
    decay = math.exp(-float(kappa))
    s_effect = np.empty(T)
    s_cause = np.empty(T)
    acc = 0.0
    for t in range(T):
        s_effect[t] = effect[t] * acc
        acc = (acc + cause[t]) * decay
    acc = 0.0
    for t in range(T - 1, -1, -1):
        s_cause[t] = cause[t] * acc
        acc = (acc + effect[t]) * decay
    return np.maximum(s_effect, s_cause)


def score_asr_leaf_loop(transcript, query, num_frames, frame_rate) -> np.ndarray:
    """Speech row one segment and one frame at a time: each segment's
    windowed score times the fraction of each frame interval
    [t/fps, (t+1)/fps) it overlaps, maximized per frame."""
    values = np.zeros(num_frames, dtype=np.float64)
    for seg in transcript:
        score = windowed_match_score_reference(query, seg.text)
        if score <= 0.0:
            continue
        first = max(0, int(np.floor(seg.start * frame_rate)))
        last = min(num_frames - 1, int(np.ceil(seg.end * frame_rate)))
        for t in range(first, last + 1):
            frame_start = t / frame_rate
            frame_end = (t + 1) / frame_rate
            overlap = min(seg.end, frame_end) - max(seg.start, frame_start)
            if overlap <= 0.0:
                continue
            fraction = overlap * frame_rate
            values[t] = max(values[t], score * fraction)
    return values


def score_ocr_leaf_loop(ocr, query, num_frames) -> np.ndarray:
    """On-screen-text row one detection at a time: per-frame max match score."""
    values = np.zeros(num_frames, dtype=np.float64)
    for entry in ocr:
        for detection in entry.detections:
            score = match_score_reference(query, detection)
            if score > values[entry.frame]:
                values[entry.frame] = score
    return values


def planted_row_loop(events, expert, query, num_frames) -> np.ndarray:
    """A generated score-table row one event and one frame at a time: per
    frame, the max amplitude over the events of ``expert`` whose query
    normalizes like ``query``, each over its support shifted by its modality
    offset (audio only) and clamped to the timeline; else 0."""
    values = np.zeros(num_frames, dtype=np.float64)
    for event in events:
        if event.expert != expert or _normalize_text(event.query) != _normalize_text(query):
            continue
        shift = event.modality_offset if expert.value == "CLAP" else 0
        start, end = event.support
        for t in range(start + shift, end + shift):
            if 0 <= t < num_frames:
                values[t] = max(values[t], event.amplitude)
    return values


def loads_bundle_parsed_first(source):
    """The former bundle loader: the whole document (a text, or UTF-8 bytes
    decoded whole) parsed into Python objects, every table value a Python
    float, and only then checked. It reuses the package's checks, so it is a
    reference for when the rows become arrays, not for the checks
    themselves."""
    from himu.errors import BundleFormatError
    from himu.experts import bundle_from_obj
    from himu.jsonio import decode_text, parse_json

    if not isinstance(source, str):
        source = decode_text(source, BundleFormatError, "bundle")
    return bundle_from_obj(parse_json(source, BundleFormatError, "bundle"))


def load_ovd_source_parsed_first(path):
    """The former detection-source loader, parsed in full and then checked."""
    from himu.errors import BundleFormatError
    from himu.experts import ovd_from_obj
    from himu.jsonio import load_json

    return ovd_from_obj(load_json(path, BundleFormatError, "detection source"))


def dumps_stdlib(obj) -> str:
    """The canonical text of a document as the standard library writes it:
    ``json.dumps`` with a 2-space indent and non-ASCII text kept, then a
    final newline. On CPython before 3.13 this formats every value in
    Python."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def ovd_document(source) -> dict:
    """The document of a detection source, in the key order of its file."""
    return {
        "video_id": source.video_id,
        "format_version": 1,
        "entries": [{"query": query, "values": values.tolist()}
                    for query, values in source.entries],
    }


def script_document(script) -> dict:
    """The document of an event script, every field written out."""
    return {
        "script_id": script.script_id,
        "T": script.num_frames,
        "frame_rate": script.frame_rate,
        "noise_level": script.noise_level,
        "seed": script.seed,
        "events": [
            {
                "expert": event.expert.value,
                "query": event.query,
                "support": list(event.support),
                "amplitude": event.amplitude,
                "modality_offset": event.modality_offset,
            }
            for event in script.events
        ],
    }


def save_scripts(scripts, path) -> None:
    """Write an event-script file holding ``scripts``."""
    document = {"format_version": 1, "scripts": [script_document(s) for s in scripts]}
    path.write_text(json.dumps(document), encoding="utf-8")


def tree_document(node) -> dict:
    """The document of a parsed tree node, each leaf with ``"op": "LEAF"``."""
    if node.is_leaf:
        return {"op": "LEAF", "expert": node.expert.value, "query": node.query}
    return {"op": node.op.value, "children": [tree_document(child) for child in node.children]}
