"""Text matchers for transcript and on-screen-text scoring.

Exact case-insensitive substring containment scores 1.0. Anything else
falls back to normalized edit distance, 1 - edits / max(len), with scores
below 0.5 zeroed so weak coincidental matches never leak into the signal.

Everything about the texts that does not depend on the query is built
once, as a ``TextIndex``: the normalized texts joined by newlines, the
UTF-32 code points of that string, and where each text and each word
starts and ends in it. A bundle keeps one index for its transcript and
one for its on-screen text. Leaves then score from the index without
building a string: containment is ``str.find`` over the joined string,
and a candidate is a span of the code array. A detection is its text's
full span; a word window is the span from its first word's start to its
last word's end, because normalized text has single spaces. The length
cutoff runs on span lengths: a candidate whose length differs from the
query's so much that even the distance lower bound |len(q) - len(w)| puts
it under the threshold gets no distance (Ukkonen 1985).

Edit distance is computed bit-parallel (Myers 1999, in Hyyrö's 2001 form
for global distance): the bits of a word hold one DP column over the
query, and one pass over the other string updates it with a handful of
integer operations per character. ``levenshtein_spans`` is the one
kernel: it runs that recurrence for one query against many spans of a
code array at once, with one numpy lane per span: one loop over
character positions, vector operations across the spans, and each lane
stops at its own length. Lanes are ``uint64`` words for queries of at
most 64 characters and Python ints (an ``object`` array) for longer
ones; the code is the same. ``levenshtein_batch`` lays a list of strings
out as spans, and the scalar ``levenshtein``, ``similarity``,
``match_score`` and ``windowed_match_score`` are these over a single
text. None of this changes a score: every result is the float the
textbook dynamic program gives, which the tests keep as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FUZZY_THRESHOLD = 0.5

_SPACE, _NEWLINE = ord(" "), ord("\n")


def query_key(text: str) -> str:
    """The form every expert compares queries in: casefolded, each run of
    whitespace one space, no space at either end."""
    return " ".join(text.casefold().split())


def _codes(text: str) -> np.ndarray:
    # UTF-32 holds one code point per character, and "surrogatepass" keeps
    # a lone surrogate, which a Python str may hold, instead of raising.
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


@dataclass(frozen=True)
class TextIndex:
    """The query-independent form of a list of texts.

    Text i is ``joined[starts[i] : starts[i] + lengths[i]]``, normalized,
    and ``codes`` holds the code points of ``joined``. A normalized text
    holds no newline, so the joins are the only newlines. Word k is
    ``codes[word_starts[k] : word_ends[k]]``, a maximal run of codes that
    are neither space nor newline, and belongs to text ``word_texts[k]``.
    ``frames`` is the frame of each text, for on-screen text, else None.
    """

    joined: str
    codes: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    word_starts: np.ndarray
    word_ends: np.ndarray
    word_texts: np.ndarray
    frames: np.ndarray | None = None


def text_index(texts, frames: np.ndarray | None = None) -> TextIndex:
    """Normalize, join and encode ``texts`` once, and find their words;
    ``frames`` is kept as the index's frame of each text."""
    normalized = [query_key(t) for t in texts]
    joined = "\n".join(normalized)
    codes = _codes(joined)
    lengths = np.fromiter(map(len, normalized), dtype=np.int64, count=len(normalized))
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    inside = (codes != _SPACE) & (codes != _NEWLINE)
    edges = np.diff(inside.view(np.int8), prepend=0, append=0)
    word_starts = np.flatnonzero(edges == 1)
    return TextIndex(
        joined=joined,
        codes=codes,
        starts=starts,
        lengths=lengths,
        word_starts=word_starts,
        word_ends=np.flatnonzero(edges == -1),
        word_texts=np.searchsorted(starts, word_starts, side="right") - 1,
        frames=frames,
    )


def _match_masks(pattern: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``pattern[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def levenshtein_spans(a: str, codes: np.ndarray, starts, lengths) -> np.ndarray:
    """Edit distance from ``a`` to every span ``codes[s : s + n]`` of
    ``zip(starts, lengths)``, as an int64 array.

    The bits of a lane hold the vertical deltas (+1 in ``pv``, -1 in
    ``mv``) of the current DP column over ``a``, and ``score`` tracks its
    last cell. Lanes run across spans: one step per character position,
    each a few vector operations over the lanes whose span is that long,
    so each lane's state freezes once its span ends.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n, m = lengths.size, len(a)
    if m == 0 or n == 0:
        return lengths.copy()
    # np.uint64 for short queries; for longer ones np.object_, which returns
    # the Python int it is given. Every constant is of the lane type, so
    # no operation mixes Python ints with uint64.
    word = np.uint64 if m <= 64 else np.object_
    full, last, one = word((1 << m) - 1), word(1 << (m - 1)), word(1)

    # The match mask of every code: one vector pass per distinct query
    # character, shared by every span.
    eq = np.zeros(codes.size, dtype=word)
    for c, mask in _match_masks(a).items():
        eq[codes == np.uint32(ord(c))] = word(mask)

    # Lanes sorted longest first: the lanes still running at character
    # position j are the first live[j], the spans longer than j, and
    # starts[r] + j is where character j of lane r sits in eq.
    order = np.argsort(-lengths, kind="stable")
    starts = starts[order]
    width = int(lengths[order[0]])
    live = n - np.cumsum(np.bincount(lengths, minlength=width + 1))[:width]

    # No mask to m bits is needed: and, or, xor, not, add and left shift
    # carry nothing from higher bits to lower ones, so bits m and up never
    # reach the m bits that hold the column, and only bit m - 1 is read.
    pv = np.full(n, full, dtype=word)
    mv = np.zeros(n, dtype=word)
    score = np.full(n, m, dtype=np.int64)
    for j, k in enumerate(live.tolist()):
        e, p, v = eq[starts[:k] + j], pv[:k], mv[:k]
        xv = e | v
        xh = (((e & p) + p) ^ p) | e
        ph = v | ~(xh | p)
        mh = p & xh
        score[:k] += (ph & last).astype(bool)
        score[:k] -= (mh & last).astype(bool)
        # Row 0 of a global alignment grows by one per character.
        ph = (ph << one) | one
        pv[:k] = (mh << one) | ~(xv | ph)
        mv[:k] = ph & xv
    out = np.empty(n, dtype=np.int64)
    out[order] = score
    return out


def levenshtein_batch(a: str, texts) -> np.ndarray:
    """Edit distance from ``a`` to every ``t`` of ``texts``, as an int64 array:
    the texts laid end to end as spans of one code array."""
    texts = list(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    return levenshtein_spans(a, _codes("".join(texts)), np.cumsum(lengths) - lengths, lengths)


def _fuzzy_scores(q: str, codes: np.ndarray, starts, lengths) -> np.ndarray:
    """``similarity(q, span)`` for every span of ``codes`` where it reaches
    the threshold, else 0.0.

    The distance is at least the length difference, so with
    ``2 * |len(q) - len(span)| > longest`` the score is below 0.5 and no
    distance is computed.
    """
    longest = np.maximum(lengths, len(q))
    near = np.flatnonzero(2 * np.abs(lengths - len(q)) <= longest)
    scores = np.zeros(lengths.size)
    distances = levenshtein_spans(q, codes, starts[near], lengths[near])
    similar = 1.0 - distances / longest[near]
    scores[near] = np.where(similar >= FUZZY_THRESHOLD, similar, 0.0)
    return scores


def _containing(q: str, index: TextIndex) -> np.ndarray:
    """Mask of the texts that contain ``q``.

    ``q`` is normalized, so it holds no newline and a hit in the joined
    string never spans two texts. After a hit the search resumes at the
    next text, so each text costs at most one hit.
    """
    joined, hits = index.joined, []
    at = joined.find(q)
    while at >= 0:
        hits.append(at)
        end = joined.find("\n", at + len(q))
        if end < 0:
            break
        at = joined.find(q, end + 1)
    contains = np.zeros(index.starts.size, dtype=bool)
    contains[np.searchsorted(index.starts, hits, side="right") - 1] = True
    return contains


def match_scores(query: str, index: TextIndex) -> np.ndarray:
    """``match_score(query, t)`` for every text of the index, as a float64
    array: 1.0 for a text that contains the query, else its full span's
    fuzzy score."""
    q = query_key(query)
    scores = np.zeros(index.starts.size)
    if not q:
        return scores
    contains = _containing(q, index)
    scores[contains] = 1.0
    rest = np.flatnonzero(~contains)
    scores[rest] = _fuzzy_scores(q, index.codes, index.starts[rest], index.lengths[rest])
    return scores


def windowed_match_scores(query: str, index: TextIndex) -> np.ndarray:
    """``windowed_match_score(query, t)`` for every text of the index, as a
    float64 array.

    A window of width w at word s is the span from word s's start to word
    s + w - 1's end, kept when both words belong to the same text and that
    text does not contain the query. The windows of all texts are scored
    in one batch, and each text takes the maximum over its own windows.
    """
    q = query_key(query)
    scores = np.zeros(index.starts.size)
    if not q:
        return scores
    contains = _containing(q, index)
    scores[contains] = 1.0
    word_starts, word_ends, word_texts = index.word_starts, index.word_ends, index.word_texts
    open_words = ~contains[word_texts]
    n_query_words = q.count(" ") + 1
    firsts, lasts = [], []
    for width in range(max(1, n_query_words - 1), n_query_words + 2):
        k = max(word_starts.size - width + 1, 0)
        same_text = word_texts[:k] == word_texts[width - 1 : width - 1 + k]
        first = np.flatnonzero(open_words[:k] & same_text)
        firsts.append(first)
        lasts.append(first + (width - 1))
    first, last = np.concatenate(firsts), np.concatenate(lasts)
    starts = word_starts[first]
    window_scores = _fuzzy_scores(q, index.codes, starts, word_ends[last] - starts)
    np.maximum.at(scores, word_texts[first], window_scores)
    return scores


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    return int(levenshtein_batch(a, [b])[0])


def similarity(a: str, b: str) -> float:
    """1 - edits / max(len); 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def match_score(query: str, candidate: str) -> float:
    """Whole-string match score for one detection or token string."""
    return float(match_scores(query, text_index([candidate]))[0])


def windowed_match_score(query: str, text: str) -> float:
    """Best match of the query against word windows of the text.

    Window widths of the query's word count plus or minus one are scanned
    so a query can align to its own span inside a longer utterance instead
    of being diluted by the whole string.
    """
    return float(windowed_match_scores(query, text_index([text]))[0])
