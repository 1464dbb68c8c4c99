"""Text matchers for transcript and on-screen-text scoring.

Exact case-insensitive substring containment scores 1.0. Anything else
falls back to normalized edit distance, 1 - edits / max(len), with scores
below 0.5 zeroed so weak coincidental matches never leak into the signal.

Edit distance is computed bit-parallel (Myers 1999, in Hyyrö's 2001 form
for global distance): the bits of a word hold one DP column over the
query, and one pass over the other string updates it with a handful of
integer operations per character. ``levenshtein_batch`` runs that
recurrence for one query against many texts at once, with one numpy lane
per text: one loop over character positions, vector operations across the
texts, and each lane stops at its own length. Lanes are ``uint64`` words
for queries of at most 64 characters and Python ints (an ``object`` array)
for longer ones; the code is the same.

``match_scores`` and ``windowed_match_scores`` score a whole list of
texts: the query is normalized once, and every distance a list needs
comes from one batched pass. A candidate or window whose length differs
from the query's so much that even the distance lower bound
|len(q) - len(w)| puts it under the threshold is skipped without
computing a distance (Ukkonen 1985). The scalar ``levenshtein``,
``similarity``, ``match_score`` and ``windowed_match_score`` are these
batches over a single text. None of this changes a score: every result
is the float the textbook dynamic program gives, which the tests keep as
the reference.
"""
from __future__ import annotations

import numpy as np

FUZZY_THRESHOLD = 0.5


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


def _match_masks(pattern: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``pattern[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def levenshtein_batch(a: str, texts) -> np.ndarray:
    """Edit distance from ``a`` to every ``t`` of ``texts``, as an int64 array.

    The bits of a lane hold the vertical deltas (+1 in ``pv``, -1 in
    ``mv``) of the current DP column over ``a``, and ``score`` tracks its
    last cell. Lanes run across texts: one step per character position,
    each a few vector operations over the lanes whose text is that long,
    so each lane's state freezes once its text ends.
    """
    texts = list(texts)
    n, m = len(texts), len(a)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    if m == 0 or n == 0:
        return lengths
    # np.uint64 for short queries; for longer ones np.object_, which returns
    # the Python int it is given. Every constant is of the lane type, so
    # no operation mixes Python ints with uint64.
    word = np.uint64 if m <= 64 else np.object_
    full, last, one = word((1 << m) - 1), word(1 << (m - 1)), word(1)

    # The match mask of every character of every text, back to back: one
    # vector pass per distinct query character over the code points. UTF-32
    # holds one code point per character, and "surrogatepass" keeps a lone
    # surrogate, which a Python str may hold, instead of raising.
    joined = "".join(texts).encode("utf-32-le", "surrogatepass")
    codes = np.frombuffer(joined, dtype="<u4")
    eq = np.zeros(codes.size, dtype=word)
    for c, mask in _match_masks(a).items():
        eq[codes == np.uint32(ord(c))] = word(mask)

    # Lanes sorted longest first: the lanes still running at character
    # position j are the first live[j], the texts longer than j, and
    # starts[r] + j is where character j of lane r sits in eq.
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
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


def _fuzzy_scores(q: str, texts: list[str]) -> np.ndarray:
    """``similarity(q, t)`` for every ``t`` where it reaches the threshold,
    else 0.0, with one batched distance pass over the texts the length
    cutoff keeps.

    The distance is at least the length difference, so with
    ``2 * |len(q) - len(t)| > longest`` the score is below 0.5 and no
    distance is computed.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    longest = np.maximum(lengths, len(q))
    near = np.flatnonzero(2 * np.abs(lengths - len(q)) <= longest)
    scores = np.zeros(len(texts))
    similar = 1.0 - levenshtein_batch(q, [texts[i] for i in near]) / longest[near]
    scores[near] = np.where(similar >= FUZZY_THRESHOLD, similar, 0.0)
    return scores


def match_scores(query: str, candidates) -> np.ndarray:
    """``match_score(query, c)`` for every candidate, as a float64 array."""
    q = _normalize(query)
    candidates = list(candidates)
    scores = np.zeros(len(candidates))
    if not q:
        return scores
    fuzzy, texts = [], []
    for i, candidate in enumerate(candidates):
        c = _normalize(candidate)
        if q in c:
            scores[i] = 1.0
        elif c:
            fuzzy.append(i)
            texts.append(c)
    scores[fuzzy] = _fuzzy_scores(q, texts)
    return scores


def windowed_match_scores(query: str, texts) -> np.ndarray:
    """``windowed_match_score(query, t)`` for every text, as a float64 array.

    The windows of all texts are scored in one batch, and each text takes
    the maximum over its own windows.
    """
    q = _normalize(query)
    texts = list(texts)
    scores = np.zeros(len(texts))
    if not q:
        return scores
    n_query_words = len(q.split())
    widths = range(max(1, n_query_words - 1), n_query_words + 2)
    owner, windows = [], []
    for i, text in enumerate(texts):
        t = _normalize(text)
        if q in t:
            scores[i] = 1.0
            continue
        words = t.split()
        for width in widths:
            for s in range(len(words) - width + 1):
                owner.append(i)
                windows.append(" ".join(words[s : s + width]))
    np.maximum.at(scores, np.array(owner, dtype=np.intp), _fuzzy_scores(q, windows))
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
    return float(match_scores(query, [candidate])[0])


def windowed_match_score(query: str, text: str) -> float:
    """Best match of the query against word windows of the text.

    Window widths of the query's word count plus or minus one are scanned
    so a query can align to its own span inside a longer utterance instead
    of being diluted by the whole string.
    """
    return float(windowed_match_scores(query, [text])[0])
