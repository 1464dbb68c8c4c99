"""Text matchers for transcript and on-screen-text scoring.

Exact case-insensitive substring containment scores 1.0. Anything else
falls back to normalized edit distance, 1 - edits / max(len), with scores
below 0.5 zeroed so weak coincidental matches never leak into the signal.

Edit distance is computed bit-parallel (Myers 1999, in Hyyrö's 2001 form
for global distance) on Python ints: one pass over the second string, a
handful of integer operations per character. The per-character match
masks of a query are built once and cached. A candidate or window whose
length differs from the query's so much that even the distance lower
bound |len(q) - len(w)| puts it under the threshold is skipped without
computing a distance (Ukkonen 1985). Neither changes a score: every result
is the float the textbook dynamic program gives, which the tests keep as
the reference.
"""
from __future__ import annotations

from functools import lru_cache

FUZZY_THRESHOLD = 0.5


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


@lru_cache(maxsize=256)
def _match_masks(pattern: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``pattern[i] == c``.

    Cached, because a leaf scores one query against every segment or
    detection; the returned dict is shared and must not be mutated.
    """
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    One pass over ``b``; the bit vectors hold the vertical deltas (+1 in
    ``pv``, -1 in ``mv``) of the current DP column over ``a``, and
    ``score`` tracks its last cell.
    """
    m = len(a)
    if m == 0:
        return len(b)
    masks = _match_masks(a)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for c in b:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of a global alignment grows by one per character of b.
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return score


def similarity(a: str, b: str) -> float:
    """1 - edits / max(len); 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _fuzzy_score(query: str, text: str) -> float:
    """``similarity`` when it reaches the threshold, else 0.0.

    The distance is at least the length difference, so with
    ``2 * |len(query) - len(text)| > longest`` the score is below 0.5 and
    no distance is computed.
    """
    if 2 * abs(len(query) - len(text)) > max(len(query), len(text)):
        return 0.0
    score = similarity(query, text)
    return score if score >= FUZZY_THRESHOLD else 0.0


def match_score(query: str, candidate: str) -> float:
    """Whole-string match score for one detection or token string."""
    q, c = _normalize(query), _normalize(candidate)
    if not q or not c:
        return 0.0
    if q in c:
        return 1.0
    return _fuzzy_score(q, c)


def windowed_match_score(query: str, text: str) -> float:
    """Best match of the query against word windows of the text.

    Window widths of the query's word count plus or minus one are scanned
    so a query can align to its own span inside a longer utterance instead
    of being diluted by the whole string.
    """
    q, t = _normalize(query), _normalize(text)
    if not q or not t:
        return 0.0
    if q in t:
        return 1.0
    n_query_words = len(q.split())
    t_words = t.split()
    best = 0.0
    for width in range(max(1, n_query_words - 1), n_query_words + 2):
        for i in range(len(t_words) - width + 1):
            best = max(best, _fuzzy_score(q, " ".join(t_words[i : i + width])))
    return best
