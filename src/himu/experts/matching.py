"""Text matchers for transcript and on-screen-text scoring.

Exact case-insensitive substring containment scores 1.0. Anything else
falls back to normalized edit distance, 1 - edits / max(len), with scores
below 0.5 zeroed so weak coincidental matches never leak into the signal.

Everything about the texts that does not depend on the query is built
once, as a ``TextIndex``: the normalized texts joined by newlines, the
sorted alphabet of that string's code points with each character's id
in it, and where each text and each word starts and ends in it. A bundle
keeps one index for its transcript and one for its on-screen text.
Queries then score from the index without building a string:
containment is ``str.find`` over the joined string, and a candidate is a
span of its characters' ids. A detection is its text's
full span; a word window is the span from its first word's start to its
last word's end, because normalized text has single spaces. The length
cutoff runs on span lengths: a candidate whose length differs from its
query's so much that even the distance lower bound |len(q) - len(w)|
puts it under the threshold gets no distance (Ukkonen 1985).
``match_scores`` and ``windowed_match_scores`` take a list of queries
and return one row per query, from one kernel call for all of them.

Edit distance is computed bit-parallel (Myers 1999, in Hyyrö's 2001 form
for global distance): the bits of a word hold the vertical deltas of one
DP column over the query, and one pass over the other string updates
them with a handful of integer operations per character.
``levenshtein_spans`` is the one kernel: it runs that recurrence for
several queries against many spans of a code array at once, with one
numpy lane per (query, span): one loop over character positions, vector
operations across the lanes, and each lane stops at its own length. A
query's match masks are one small table over the index's alphabet, and
one gather of the queries' tables by the codes' alphabet ids gives every
lane the masks it reads. The loop keeps no score: row 0 of a global
alignment ends at the span length n, so a lane's distance is n plus the
+1 deltas minus the -1 deltas of its final column, two popcounts.
The lanes of queries of at most 64 characters are ``uint64`` words; the
lanes of longer queries are Python ints (an ``object`` array) and run in
a pass of their own; the code is the same. The scalar ``levenshtein``,
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

    Text i is ``joined[starts[i] : starts[i] + lengths[i]]``, normalized.
    ``alphabet`` holds the distinct code points of ``joined`` in ascending
    order and ``ids`` the position of each character's code point in it,
    so ``alphabet[ids]`` is the code points of ``joined``. A normalized
    text holds no newline, so the joins are the only newlines. Word k,
    ``joined[word_starts[k] : word_ends[k]]``, is a maximal run of
    characters that are neither space nor newline, in text ``word_texts[k]``.
    ``frames`` is the frame of each text, for on-screen text, else None.
    """

    joined: str
    alphabet: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    word_starts: np.ndarray
    word_ends: np.ndarray
    word_texts: np.ndarray
    frames: np.ndarray | None = None


def text_index(texts, frames: np.ndarray | None = None) -> TextIndex:
    """Normalize, join and encode ``texts`` once, and find their alphabet
    and words; ``frames`` is kept as the index's frame of each text."""
    normalized = [query_key(t) for t in texts]
    joined = "\n".join(normalized)
    codes = _codes(joined)
    alphabet, ids = np.unique(codes, return_inverse=True)
    lengths = np.fromiter(map(len, normalized), dtype=np.int64, count=len(normalized))
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    inside = (codes != _SPACE) & (codes != _NEWLINE)
    edges = np.diff(inside.view(np.int8), prepend=0, append=0)
    word_starts = np.flatnonzero(edges == 1)
    return TextIndex(
        joined=joined,
        alphabet=alphabet,
        ids=ids.astype(np.int32),
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


def _mask_table(queries: list[str], alphabet: np.ndarray, word) -> np.ndarray:
    """Row q, column c: the match mask of ``alphabet[c]`` in ``queries[q]``,
    0 for a character the query lacks."""
    rows, chars, masks = [], [], []
    for row, q in enumerate(queries):
        for c, mask in _match_masks(q).items():
            rows.append(row)
            chars.append(ord(c))
            masks.append(mask)
    chars = np.array(chars, dtype=np.uint32)
    at = np.searchsorted(alphabet, chars)
    known = at < alphabet.size
    known[known] = alphabet[at[known]] == chars[known]
    table = np.zeros((len(queries), alphabet.size), dtype=word)
    table[np.array(rows, dtype=np.intp)[known], at[known]] = np.array(masks, dtype=word)[known]
    return table


_M1, _M2, _M4, _H01 = (
    np.uint64(v) for v in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                           0x0101010101010101)
)


def _popcount(x: np.ndarray) -> np.ndarray:
    """The set bits of every lane, as int64: ``int.bit_count`` on Python-int
    lanes, a SWAR sum on ``uint64`` ones (Hacker's Delight, figure 5-1),
    which numpy 1.24 runs too."""
    if x.dtype == np.object_:
        return np.fromiter((v.bit_count() for v in x), dtype=np.int64, count=x.size)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def levenshtein_spans(
    queries: list[str], alphabet: np.ndarray, ids: np.ndarray, owners, starts, lengths
) -> np.ndarray:
    """Edit distance from ``queries[owners[r]]`` to the span
    ``codes[starts[r] : starts[r] + lengths[r]]`` for every lane r, where
    ``codes`` is ``alphabet[ids]``, as an int64 array.

    The bits of a lane hold the vertical deltas (+1 in ``pv``, -1 in
    ``mv``) of the current DP column over its query. Lanes run across
    spans: one step per character position, each a few vector operations
    over the lanes whose span is that long, so each lane's state freezes
    once its span ends. Row 0 of a global alignment holds n after n
    characters, so a lane's distance is its span length plus the sum of
    its final column's deltas.
    """
    owners = np.asarray(owners, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    if n == 0:
        return lengths.copy()
    # np.uint64 when every query fits a word; else np.object_, which returns
    # the Python int it is given. Every constant is of the lane type, so
    # no operation mixes Python ints with uint64.
    word = np.uint64
    if max(map(len, queries)) > 64:
        # Only the queries that have lanes are kept, and the lanes of
        # queries over 64 characters take their own pass, so the other
        # lanes keep uint64 words.
        used = np.flatnonzero(np.bincount(owners, minlength=len(queries)))
        queries, owners = [queries[i] for i in used], np.searchsorted(used, owners)
        wide = np.array([len(q) > 64 for q in queries])[owners]
        if not wide.all():
            out = np.empty(n, dtype=np.int64)
            for part in (wide, ~wide):
                out[part] = levenshtein_spans(
                    queries, alphabet, ids, owners[part], starts[part], lengths[part]
                )
            return out
        word = np.object_
    one = word(1)
    # The match mask of every (query, code): one gather of the queries'
    # tables over the codes' alphabet ids. Lane r reads its query's row.
    eq = np.take(_mask_table(queries, alphabet, word), ids, axis=1).ravel()

    # Lanes sorted longest first: the lanes still running at character
    # position j are the first live[j], the spans longer than j, and
    # at[r] + j is where character j of lane r sits in eq.
    order = np.argsort(-lengths, kind="stable")
    owners, lengths = owners[order], lengths[order]
    at = owners * ids.size + starts[order]
    width = int(lengths[0])
    live = n - np.cumsum(np.bincount(lengths, minlength=width + 1))[:width]

    # No mask to a query's m bits is needed in the loop: and, or, xor, not,
    # add and left shift carry nothing from higher bits to lower ones, so
    # bits m and up never reach the m bits that hold the column.
    full = np.array([(1 << len(q)) - 1 for q in queries], dtype=word)[owners]
    pv = full.copy()
    mv = np.zeros(n, dtype=word)
    for j, k in enumerate(live.tolist()):
        e, p, v = eq[at[:k] + j], pv[:k], mv[:k]
        xv = e | v
        xh = (((e & p) + p) ^ p) | e
        ph = v | ~(xh | p)
        mh = p & xh
        # Row 0 of a global alignment grows by one per character.
        ph = (ph << one) | one
        # p and v are views of pv and mv: the new column goes in place.
        np.bitwise_or(mh << one, ~(xv | ph), out=p)
        np.bitwise_and(ph, xv, out=v)
    out = np.empty(n, dtype=np.int64)
    out[order] = lengths + _popcount(pv & full) - _popcount(mv & full)
    return out


def _fuzzy_scores(queries: list[str], index: TextIndex, owners, starts, lengths) -> np.ndarray:
    """1 - edits / max(len) between ``queries[owners[r]]`` and span r, for
    every span r of the joined text where it reaches the threshold, else
    0.0, from one kernel call.

    The distance is at least the length difference, so with
    ``2 * |len(q) - len(span)| > longest`` the score is below 0.5 and no
    distance is computed.
    """
    sizes = np.array([len(q) for q in queries], dtype=np.int64)[owners]
    longest = np.maximum(lengths, sizes)
    near = np.flatnonzero(2 * np.abs(lengths - sizes) <= longest)
    scores = np.zeros(lengths.size)
    distances = levenshtein_spans(
        queries, index.alphabet, index.ids, owners[near], starts[near], lengths[near]
    )
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


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.intp), *parts])


def match_scores(queries, index: TextIndex) -> np.ndarray:
    """``match_score(q, t)`` for every query q and text t of the index, as a
    (queries x texts) float64 array: 1.0 for a text that contains the
    query, else its full span's fuzzy score. The spans of every query are
    scored in one batch."""
    if isinstance(queries, str):
        raise TypeError("match_scores takes a list of queries, not one string")
    keys = [query_key(q) for q in queries]
    scores = np.zeros((len(keys), index.starts.size))
    owners, texts = [], []
    for row, q in enumerate(keys):
        if not q:
            continue
        contains = _containing(q, index)
        scores[row, contains] = 1.0
        rest = np.flatnonzero(~contains)
        owners.append(np.full(rest.size, row))
        texts.append(rest)
    owner, text = _concat(owners), _concat(texts)
    scores[owner, text] = _fuzzy_scores(keys, index, owner, index.starts[text], index.lengths[text])
    return scores


def windowed_match_scores(queries, index: TextIndex) -> np.ndarray:
    """``windowed_match_score(q, t)`` for every query q and text t of the
    index, as a (queries x texts) float64 array.

    A window of width w at word s is the span from word s's start to word
    s + w - 1's end, kept when both words belong to the same text and that
    text does not contain the query. The windows of all queries and texts
    are scored in one batch, and each text takes the maximum over its own
    windows.
    """
    if isinstance(queries, str):
        raise TypeError("windowed_match_scores takes a list of queries, not one string")
    keys = [query_key(q) for q in queries]
    scores = np.zeros((len(keys), index.starts.size))
    word_starts, word_ends, word_texts = index.word_starts, index.word_ends, index.word_texts
    owners, firsts, lasts = [], [], []
    for row, q in enumerate(keys):
        if not q:
            continue
        contains = _containing(q, index)
        scores[row, contains] = 1.0
        open_words = ~contains[word_texts]
        n_query_words = q.count(" ") + 1
        for width in range(max(1, n_query_words - 1), n_query_words + 2):
            k = max(word_starts.size - width + 1, 0)
            same_text = word_texts[:k] == word_texts[width - 1 : width - 1 + k]
            first = np.flatnonzero(open_words[:k] & same_text)
            owners.append(np.full(first.size, row))
            firsts.append(first)
            lasts.append(first + (width - 1))
    owner, first, last = _concat(owners), _concat(firsts), _concat(lasts)
    starts = word_starts[first]
    window_scores = _fuzzy_scores(keys, index, owner, starts, word_ends[last] - starts)
    # Flat indices: ufunc.at is much slower with a tuple of index arrays.
    np.maximum.at(scores.ravel(), owner * scores.shape[1] + word_texts[first], window_scores)
    return scores


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    alphabet, ids = np.unique(_codes(b), return_inverse=True)
    return int(levenshtein_spans([a], alphabet, ids, [0], [0], [len(b)])[0])


def match_score(query: str, candidate: str) -> float:
    """Whole-string match score for one detection or token string."""
    return float(match_scores([query], text_index([candidate]))[0, 0])


def windowed_match_score(query: str, text: str) -> float:
    """Best match of the query against word windows of the text.

    Window widths of the query's word count plus or minus one are scanned
    so a query can align to its own span inside a longer utterance instead
    of being diluted by the whole string.
    """
    return float(windowed_match_scores([query], text_index([text]))[0, 0])
