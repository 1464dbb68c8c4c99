import copy
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import himu.jsonio
from himu.errors import (
    BundleFormatError,
    InconsistentLengthError,
    LeafEvaluationError,
    MissingArtifactError,
    MissingRowError,
)
from himu.experts import (
    ExpertBundle,
    OcrFrameText,
    OvdSource,
    ProviderCounters,
    ScoreTable,
    TranscriptSegment,
    bundle_digest,
    bundle_to_obj,
    evaluate_leaves,
    levenshtein,
    load_bundle,
    load_ovd_source,
    loads_bundle,
    match_score,
    ovd_from_obj,
    query_variants,
    save_bundle,
    save_ovd_source,
    score_asr_leaf,
    score_embedding_leaf,
    score_ocr_leaf,
    score_ovd_leaf,
    windowed_match_score,
)
from himu.experts.matching import (
    levenshtein_spans,
    match_scores,
    query_key,
    text_index,
    windowed_match_scores,
)
from himu.jsonio import dumps
from himu.tree import ExpertKind, parse_tree
from oracles import (
    levenshtein_matrix,
    load_ovd_source_parsed_first,
    loads_bundle_parsed_first,
    match_score_reference,
    score_asr_leaf_loop,
    score_ocr_leaf_loop,
    windowed_match_score_reference,
)


def _examples(n):
    """n examples, or the loaded hypothesis profile's count when that is
    larger: the byte-equality properties run longer under "thorough"."""
    return max(n, settings.default.max_examples)


def make_bundle(T=10, frame_rate=1.0, **kwargs):
    return ExpertBundle(video_id="vid", num_frames=T, frame_rate=frame_rate, **kwargs)


# --- matching -------------------------------------------------------------------

@settings(max_examples=_examples(300), deadline=None)
@given(st.text(max_size=80), st.text(max_size=80))
def test_levenshtein_matches_matrix_oracle(a, b):
    assert levenshtein(a, b) == levenshtein_matrix(a, b)


# Few letters, so fuzzy scores near the 0.5 threshold are common; "ß" and
# "İ" change length under casefold, so normalization must happen before
# any length is compared.
_MATCH_TEXT = st.text(alphabet="abcAB ßİ", max_size=80)


@st.composite
def _query_and_text(draw):
    query = draw(_MATCH_TEXT)
    if draw(st.booleans()):
        # Text built around a slice of the query: substring and near-miss paths.
        i = draw(st.integers(0, len(query)))
        j = draw(st.integers(i, len(query)))
        pad = _MATCH_TEXT.map(lambda s: s[:20])
        return query, draw(pad) + query[i:j] + draw(pad)
    return query, draw(_MATCH_TEXT)


@settings(max_examples=300, deadline=None)
@given(_query_and_text())
def test_matchers_equal_reference_exactly(pair):
    query, text = pair
    assert match_score(query, text) == match_score_reference(query, text)
    assert windowed_match_score(query, text) == windowed_match_score_reference(query, text)


@pytest.mark.parametrize("n", [30, 31, 63, 64, 65])
@pytest.mark.parametrize("edit", [0, 31, -1])
def test_matchers_at_word_size_boundaries(n, edit):
    # One substitution at the first, a middle or the last query position,
    # for queries around the 30-bit digit and 64-bit word widths.
    query = ("abcdefgh" * 9)[:n]
    edit %= n
    candidate = query[:edit] + "z" + query[edit + 1 :]
    assert levenshtein(query, candidate) == 1
    assert match_score(query, candidate) == 1.0 - 1 / n
    assert match_score(query, candidate) == match_score_reference(query, candidate)
    text = f"xyz {candidate} xyz"
    assert windowed_match_score(query, text) == windowed_match_score_reference(query, text)


# A lone surrogate is a valid Python str character that strict UTF-32
# encoding rejects; the kernel must still compare it like any other.
_BATCH_ALPHABET = "abcAB ßİ\ud800"
_BATCH_TEXT = st.text(alphabet=_BATCH_ALPHABET, max_size=80)


@settings(max_examples=_examples(200), deadline=None)
@given(
    st.one_of(_BATCH_TEXT, st.text(alphabet=_BATCH_ALPHABET, min_size=60, max_size=130)),
    st.lists(st.text(alphabet=_BATCH_ALPHABET, max_size=140), max_size=12),
)
def test_levenshtein_text_by_text_matches_matrix_oracle(a, texts):
    # Queries past 64 characters run on Python-int lanes instead of uint64.
    for t in texts:
        assert levenshtein(a, t) == levenshtein_matrix(a, t)


def test_match_score_examples():
    assert match_score("exit", "EXIT") == 1.0
    assert match_score("exit", "fire exit ahead") == 1.0
    # One substitution in five characters.
    assert match_score("Korea", "K0rea") == pytest.approx(0.8)
    assert match_score("exit", "zzzzzz") == 0.0
    assert match_score("", "anything") == 0.0


def test_match_score_threshold():
    # "abcd" vs "wxyz": distance 4 of 4 -> 0.0 similarity, below threshold.
    assert match_score("abcd", "wxyz") == 0.0
    # Score exactly at the threshold is kept.
    assert match_score("ab", "ax") == 0.5


def test_length_cutoff_keeps_a_window_at_the_limit():
    # The length cutoff skips a window only when 2*|len(q) - len(w)| > max:
    # "abcde" (5 of 10 characters) is at the limit, is scored, and reaches
    # exactly 0.5 with five deletions.
    assert windowed_match_score("abcdefghij", "abcde xyz") == 0.5
    assert match_score("abcdefghij", "abcde") == 0.5
    # One character more in the query and "abcde" is skipped; no other
    # window reaches the threshold either.
    assert windowed_match_score("abcdefghijk", "abcde xyz") == 0.0
    for query, text in [("abcdefghij", "abcde xyz"), ("abcdefghijk", "abcde xyz")]:
        assert windowed_match_score(query, text) == windowed_match_score_reference(query, text)


def test_windowed_match_aligns_query_to_span():
    text = "today the chemical reaction begins quickly"
    assert windowed_match_score("reaction", text) == 1.0
    # Near miss must compare against the best window, not the whole string.
    score = windowed_match_score("reactions", "the reaction")
    assert score == pytest.approx(1 - 1 / 9)


def test_windowed_match_scans_neighbouring_widths():
    # One query word is best matched by two text words (width n + 1)...
    assert windowed_match_score("abcdefgh", "abcd efgh") == 1.0 - 1 / 9
    # ...and three query words by two text words (width n - 1).
    assert windowed_match_score("ab cd ef", "abcd ef") == 1.0 - 1 / 8


def test_windowed_match_score_fuzzy_example():
    assert windowed_match_score("reactions", "reaction") == pytest.approx(1 - 1 / 9)


# --- leaf scorers ----------------------------------------------------------------

def test_score_embedding_leaf_case_insensitive_row():
    table = ScoreTable(
        ExpertKind.CLIP, "vid", (("person speaking", np.array([0.21, 0.30, 0.19])),)
    )
    bundle = make_bundle(T=3, clip_table=table)
    row = score_embedding_leaf(bundle, ExpertKind.CLIP, "Person Speaking")
    np.testing.assert_array_equal(row, [0.21, 0.30, 0.19])


def test_score_embedding_leaf_missing_row_and_table():
    bundle = make_bundle(
        T=3, clip_table=ScoreTable(ExpertKind.CLIP, "vid", (("a", np.zeros(3)),))
    )
    with pytest.raises(MissingRowError):
        score_embedding_leaf(bundle, ExpertKind.CLIP, "b")
    with pytest.raises(MissingArtifactError):
        score_embedding_leaf(bundle, ExpertKind.CLAP, "a")


def test_query_key():
    assert query_key("  Red \t car\n") == "red car"
    assert query_key("STRASSE") == query_key("straße")
    assert query_key("red car") != query_key("redcar")


def test_every_expert_compares_queries_by_query_key():
    row = np.array([0.1, 0.9, 0.2])
    bundle = make_bundle(
        T=3,
        clip_table=ScoreTable(
            ExpertKind.CLIP, "vid", (("red car", row), ("Red  car", np.zeros(3)))
        ),
        transcript=(TranscriptSegment(1.0, 2.0, "a red car"),),
    )
    # Table rows: whitespace runs do not split a match; the first row wins.
    np.testing.assert_array_equal(
        score_embedding_leaf(bundle, ExpertKind.CLIP, "Red  car"), row
    )
    assert bundle.clip_table.lookup(" RED car ") is bundle.clip_table.rows[0][1]
    # Detection entries.
    source = OvdSource("vid", (("red  car", row),))
    np.testing.assert_array_equal(score_ovd_leaf(source, "red car", 3), row)
    np.testing.assert_array_equal(score_ovd_leaf(source, "Red\tcar", 3), row)
    # Leaves that differ only in case and spacing share one scoring call.
    for expert in ("CLIP", "ASR"):
        tree = parse_tree(json.dumps({"op": "OR", "children": [
            {"op": "LEAF", "expert": expert, "query": "red car"},
            {"op": "LEAF", "expert": expert, "query": "Red  car"},
        ]}))
        counters = ProviderCounters()
        out = evaluate_leaves(tree, bundle, counters=counters)
        assert counters.snapshot()[expert] == 1
        np.testing.assert_array_equal(out[0], out[1])


def test_query_variants():
    assert query_variants("red car") == ("red car", "red cars", "car")
    assert query_variants("dog") == ("dog", "dogs")
    assert query_variants("  red   car ") == ("red car", "red cars", "car")
    assert query_variants("Red  Car") == ("red car", "red cars", "car")


def test_score_ovd_leaf_max_over_variants():
    values_exact = np.zeros(10)
    values_exact[7] = 0.4
    values_plural = np.zeros(10)
    values_head = np.zeros(10)
    values_head[7] = 0.6
    source = OvdSource(
        "vid",
        (
            ("red car", values_exact),
            ("red cars", values_plural),
            ("car", values_head),
            ("unrelated", np.full(10, 0.9)),
        ),
    )
    row = score_ovd_leaf(source, "red car", 10)
    assert row[7] == pytest.approx(0.6)
    assert np.all(row[:7] == 0.0)


def test_score_ovd_leaf_absent_is_zero():
    row = score_ovd_leaf(None, "ghost", 6)
    np.testing.assert_array_equal(row, np.zeros(6))
    row = score_ovd_leaf(OvdSource("vid", ()), "ghost", 6)
    np.testing.assert_array_equal(row, np.zeros(6))


def test_score_asr_overlap_fractions():
    # Segment 12.0-13.5 s at 1 fps: frame 12 fully covered, frame 13 half.
    transcript = (TranscriptSegment(12.0, 13.5, "the chemical reaction begins"),)
    row = score_asr_leaf(make_bundle(T=20, transcript=transcript), ["reaction"])[0]
    assert row[12] == pytest.approx(1.0)
    assert row[13] == pytest.approx(0.5)
    assert np.count_nonzero(row) == 2


def test_score_asr_overlap_mass_equals_duration_in_frames():
    transcript = (TranscriptSegment(3.25, 7.75, "hello world"),)
    row = score_asr_leaf(make_bundle(T=20, frame_rate=2.0, transcript=transcript), ["hello"])[0]
    assert row.sum() == pytest.approx((7.75 - 3.25) * 2.0)


def test_score_asr_no_match_and_empty_transcript():
    transcript = (TranscriptSegment(1.0, 2.0, "completely different words"),)
    assert np.all(score_asr_leaf(make_bundle(T=5, transcript=transcript), ["chemistry"])[0] == 0.0)
    assert np.all(score_asr_leaf(make_bundle(T=5, transcript=()), ["anything"])[0] == 0.0)


def test_score_asr_takes_max_over_overlapping_segments():
    transcript = (
        TranscriptSegment(0.0, 2.0, "the dog barks"),
        TranscriptSegment(1.0, 2.0, "dog"),
    )
    row = score_asr_leaf(make_bundle(T=4, transcript=transcript), ["dog"])[0]
    assert row[0] == pytest.approx(1.0)
    assert row[1] == pytest.approx(1.0)


def test_score_ocr_examples():
    ocr = (
        OcrFrameText(3, ("EXIT", "Warning")),
        OcrFrameText(5, ("K0rea",)),
        OcrFrameText(5, ("nothing",)),
    )
    bundle = make_bundle(T=8, ocr=ocr)
    row = score_ocr_leaf(bundle, ["exit"])[0]
    assert row[3] == 1.0
    row = score_ocr_leaf(bundle, ["Korea"])[0]
    assert row[5] == pytest.approx(0.8)
    assert np.all(score_ocr_leaf(make_bundle(T=8, ocr=()), ["exit"])[0] == 0.0)


# --- batched leaf rows against the per-text loops ----------------------------------

_WORD = st.text(alphabet="abcABßİ\ud800", min_size=1, max_size=6)
_QUERY = st.lists(_WORD, min_size=1, max_size=4).map(" ".join)
_PAD = st.text(alphabet=_BATCH_ALPHABET, max_size=8)


@st.composite
def _text_leaf_case(draw):
    """A query, and segment and detection texts around it: verbatim and
    sliced copies (substring and near-miss paths), one-letter edits,
    unrelated, empty and whitespace-only texts, and repeats."""
    query = draw(_QUERY)
    texts = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["slice", "edit", "other", "blank", "repeat"]))
        if kind == "slice":
            i = draw(st.integers(0, len(query)))
            j = draw(st.integers(i, len(query)))
            texts.append(draw(_PAD) + query[i:j] + draw(_PAD))
        elif kind == "edit":
            i = draw(st.integers(0, len(query) - 1))
            texts.append(query[:i] + draw(st.sampled_from("aBß ")) + query[i + 1 :])
        elif kind == "other":
            texts.append(draw(_BATCH_TEXT))
        elif kind == "blank":
            texts.append(draw(st.sampled_from(["", " ", " \t\n "])))
        elif texts:
            texts.append(draw(st.sampled_from(texts)))
    return query, texts


@settings(max_examples=_examples(300), deadline=None)
@given(
    _text_leaf_case(),
    st.integers(1, 40),
    st.sampled_from([1.0, 2.5, 0.3, 30.0]),
    st.data(),
)
def test_text_leaf_rows_equal_per_text_loops_bytewise(case, num_frames, frame_rate, data):
    query, texts = case
    transcript = []
    for text in texts:
        start = data.draw(st.floats(0.0, num_frames / frame_rate + 2.0))
        length = data.draw(st.floats(1e-3, 10.0))
        transcript.append(TranscriptSegment(start, start + length, text))
    frames = data.draw(st.lists(st.integers(0, num_frames - 1), min_size=len(texts),
                                max_size=len(texts)))
    ocr = tuple(OcrFrameText(frame, (text,)) for frame, text in zip(frames, texts))
    ocr += (OcrFrameText(0, tuple(texts)),)
    _assert_rows_equal_loops(transcript, ocr, query, num_frames, frame_rate)


def _assert_bundle_rows_equal_loops(bundle, query):
    asr = score_asr_leaf(bundle, [query])[0]
    loop = score_asr_leaf_loop(bundle.transcript, query, bundle.num_frames, bundle.frame_rate)
    assert asr.tobytes() == loop.tobytes()
    row = score_ocr_leaf(bundle, [query])[0]
    assert row.tobytes() == score_ocr_leaf_loop(bundle.ocr, query, bundle.num_frames).tobytes()
    return asr, row


def _assert_rows_equal_loops(transcript, ocr, query, num_frames, frame_rate=1.0):
    bundle = make_bundle(T=num_frames, frame_rate=frame_rate, transcript=transcript, ocr=ocr)
    return _assert_bundle_rows_equal_loops(bundle, query)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_text_leaf_rows_at_the_uint64_boundary(n):
    # 64 characters is the widest query a uint64 lane holds; 65 runs on
    # Python-int lanes.
    query = ("abcdefgh" * 9)[:n]
    candidates = [
        query[:i] + "z" + query[i + 1 :] for i in (0, n // 2, n - 1)
    ] + [query[1:], query + "zz", query[: n // 2 - 1]]
    assert [levenshtein(query, c) for c in candidates] == [1, 1, 1, 1, 2, n - n // 2 + 1]
    transcript = tuple(
        TranscriptSegment(float(i), i + 1.0, f"xyz {c} xyz") for i, c in enumerate(candidates)
    )
    ocr = tuple(OcrFrameText(i, (c,)) for i, c in enumerate(candidates))
    asr, row = _assert_rows_equal_loops(transcript, ocr, query, len(candidates))
    assert row[0] == 1.0 - 1 / n
    assert row[5] == 0.0  # 2 * (n - (n // 2 - 1)) > n: cut by length, never scored
    assert asr[0] == 1.0 - 1 / n


def test_text_leaf_rows_keep_a_window_at_the_cutoff_limit():
    # "abcde" is half of "abcdefghij": 2 * |10 - 5| == 10, so it is scored
    # and reaches exactly 0.5; against an 11-letter query it is cut.
    transcript = (TranscriptSegment(0.0, 1.0, "abcde xyz"),)
    ocr = (OcrFrameText(0, ("abcde",)),)
    asr, row = _assert_rows_equal_loops(transcript, ocr, "abcdefghij", 1)
    assert asr[0] == row[0] == 0.5
    asr, row = _assert_rows_equal_loops(transcript, ocr, "abcdefghijk", 1)
    assert asr[0] == row[0] == 0.0


def test_text_leaf_rows_casefold_before_lengths():
    # casefold turns "ß" into "ss" and "İ" into "i" plus a combining dot.
    transcript = (
        TranscriptSegment(0.0, 1.0, "die STRASSE hier"),
        TranscriptSegment(1.0, 2.0, "istanbul"),
    )
    ocr = (OcrFrameText(0, ("Straße",)), OcrFrameText(1, ("istanbul",)))
    asr, row = _assert_rows_equal_loops(transcript, ocr, "straße", 2)
    assert asr[0] == row[0] == 1.0
    asr, row = _assert_rows_equal_loops(transcript, ocr, "İstanbul", 2)
    assert asr[1] == row[1] == 1.0 - 1 / 9


def test_asr_row_over_fractional_frames():
    # 1.3-2.9 s at 2.5 fps covers frames 3 (1.2-1.6 s, 3/4 of it) to 7
    # (2.8-3.2 s, 1/4 of it); frame 8 is in the scanned range but starts
    # after the segment ends.
    transcript = (TranscriptSegment(1.3, 2.9, "the reaction"),)
    asr, _ = _assert_rows_equal_loops(transcript, (), "reaction", 10, frame_rate=2.5)
    assert np.flatnonzero(asr).tolist() == [3, 4, 5, 6, 7]
    assert asr[4] == asr[5] == asr[6] == pytest.approx(1.0)
    assert asr[3] == pytest.approx(0.75) and asr[7] == pytest.approx(0.25)
    assert asr.sum() == pytest.approx((2.9 - 1.3) * 2.5)


def test_asr_row_when_segment_times_overflow_in_frames():
    # 1e308 s times 30 fps is inf: the segment runs to the last frame, and
    # each frame gets what a segment ending just past the timeline gives it.
    # One starting that late covers no frame.
    def bundle(*segments):
        return make_bundle(T=12, frame_rate=30.0, transcript=segments)

    asr = score_asr_leaf(bundle(TranscriptSegment(0.1, 1e308, "the reaction")), ["reaction"])[0]
    past_end = (TranscriptSegment(0.1, 1.0, "the reaction"),)
    assert asr.tobytes() == score_asr_leaf_loop(past_end, "reaction", 12, 30.0).tobytes()
    assert np.flatnonzero(asr).tolist() == list(range(3, 12))
    assert asr[4:] == pytest.approx(1.0)
    late = TranscriptSegment(1e307, 1e308, "the reaction")
    assert not score_asr_leaf(bundle(late), ["reaction"])[0].any()


# --- the per-bundle text index ----------------------------------------------------

def _text_bundle():
    # One ASR and two OCR leaves read these, as in the speech_3h tree shape.
    return make_bundle(
        T=6,
        clip_table=ScoreTable(ExpertKind.CLIP, "vid", (("a dog", np.linspace(0, 1, 6)),)),
        transcript=(
            TranscriptSegment(0.0, 2.0, "the jewel amber glows"),
            TranscriptSegment(2.0, 4.0, "jewel ambqr"),
        ),
        ocr=(OcrFrameText(1, ("PEARL RADAR", "exit")), OcrFrameText(4, ("hazel blaqe",))),
    )


def _speech_tree():
    leaf = lambda expert, query: {"op": "LEAF", "expert": expert, "query": query}  # noqa: E731
    return parse_tree(json.dumps({"op": "AND", "children": [
        leaf("ASR", "jewel amber"), leaf("CLIP", "a dog"),
        leaf("OCR", "pearl radar"), leaf("OCR", "hazel blaze"),
    ]}))


def _counting_index_builds(monkeypatch):
    import himu.experts.bundle as bundle_module

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return text_index(*args, **kwargs)

    monkeypatch.setattr(bundle_module, "text_index", counting)
    return built


def test_text_leaves_build_one_index_each_per_bundle(monkeypatch):
    built = _counting_index_builds(monkeypatch)
    bundle = _text_bundle()
    first = evaluate_leaves(_speech_tree(), bundle)
    assert len(built) == 2
    transcript_index, ocr_index = bundle.transcript_index, bundle.ocr_index
    again = evaluate_leaves(_speech_tree(), bundle)
    assert len(built) == 2
    assert bundle.transcript_index is transcript_index and bundle.ocr_index is ocr_index
    assert first.tobytes() == again.tobytes()
    assert ocr_index.frames.tolist() == [1, 1, 4]


def test_table_only_bundle_builds_no_text_index(monkeypatch):
    built = _counting_index_builds(monkeypatch)
    bundle = scored_bundle()
    tree = parse_tree(json.dumps({"op": "LEAF", "expert": "CLIP", "query": "a dog"}))
    evaluate_leaves(tree, bundle)
    assert built == []
    assert "transcript_index" not in vars(bundle) and "ocr_index" not in vars(bundle)


@settings(max_examples=_examples(200), deadline=None)
@given(
    _text_leaf_case(),
    st.lists(
        st.one_of(
            _QUERY,
            st.sampled_from(["", " ", "a", "ß"]),
            st.text(alphabet=_BATCH_ALPHABET, min_size=60, max_size=90),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_queries_in_turn_on_one_bundle_equal_loops_bytewise(case, more_queries):
    # Every query reads the same two indexes; scoring the first query again
    # at the end shows that no query's masks or match state stayed behind.
    query, texts = case
    transcript = tuple(TranscriptSegment(i / 2, i / 2 + 1.5, t) for i, t in enumerate(texts))
    ocr = tuple(OcrFrameText(i % 3, (t, t[::-1])) for i, t in enumerate(texts))
    bundle = make_bundle(T=8, transcript=transcript, ocr=ocr)
    rows = [_assert_bundle_rows_equal_loops(bundle, q) for q in [query, *more_queries]]
    asr, row = _assert_bundle_rows_equal_loops(bundle, query)
    assert asr.tobytes() == rows[0][0].tobytes() and row.tobytes() == rows[0][1].tobytes()


def test_query_across_a_text_boundary_is_no_containment_hit():
    # "b c" is in the texts joined by a space, but the index joins them by
    # a newline, so both texts score by their windows, all under 0.5.
    texts = ["a b", "c"]
    assert "b c" in " ".join(texts) and "b c" not in text_index(texts).joined
    transcript = tuple(TranscriptSegment(float(i), i + 1.0, t) for i, t in enumerate(texts))
    ocr = (OcrFrameText(0, tuple(texts)),)
    asr, row = _assert_rows_equal_loops(transcript, ocr, "b c", 2)
    assert not asr.any() and not row.any()


def test_text_index_edge_texts_equal_loops():
    texts = ["", "   ", "exit exit", "the exit and the exit", "ex\ud800it", "\ud800 exit"]
    transcript = tuple(TranscriptSegment(float(i), i + 1.0, t) for i, t in enumerate(texts))
    ocr = tuple(OcrFrameText(i, (t,)) for i, t in enumerate(texts)) + (OcrFrameText(0, ("", " ")),)
    for query in ["exit", "ex\ud800it", "exit exit", "\ud800", "  "]:
        _assert_rows_equal_loops(transcript, ocr, query, len(texts))
    asr, row = _assert_rows_equal_loops(transcript, ocr, "exit", len(texts))
    assert asr.tolist() == row.tolist() == [0.0, 0.0, 1.0, 1.0, 0.8, 1.0]
    asr, row = _assert_rows_equal_loops(transcript, ocr, "ex\ud800it", len(texts))
    assert asr[4] == row[4] == 1.0
    index = text_index(texts)
    assert index.lengths.tolist() == [0, 0, 9, 21, 5, 6]
    words = [index.joined[s:e] for s, e in zip(index.word_starts, index.word_ends)]
    assert words == [w for t in texts for w in t.casefold().split()]
    assert index.word_texts.tolist() == [2, 2, 3, 3, 3, 3, 3, 4, 5, 5]


# Texts hold "xyz", which no query holds, and queries hold "qr", which no
# text holds; both hold a non-BMP character and a lone surrogate.
_SPAN_TEXT = st.text(alphabet="abcAB ßİxyz\U0001f600\ud800", max_size=80)
_SPAN_QUERY_ALPHABET = "abcAB ßİqr\U0001f600\ud800"
_SPAN_QUERY = st.one_of(
    st.text(alphabet=_SPAN_QUERY_ALPHABET, max_size=64),
    st.text(alphabet=_SPAN_QUERY_ALPHABET, min_size=65, max_size=130),
)


def _assert_spans_match_matrix(queries, index, spans, owners):
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    lengths = np.array([n for _, n in spans], dtype=np.int64)
    got = levenshtein_spans(queries, index.alphabet, index.ids, owners, starts, lengths)
    assert got.dtype == np.int64
    assert got.tolist() == [
        levenshtein_matrix(queries[o], index.joined[s : s + n]) for o, (s, n) in zip(owners, spans)
    ]


@settings(max_examples=_examples(200), deadline=None)
@given(st.lists(_SPAN_QUERY, min_size=1, max_size=4), st.lists(_SPAN_TEXT, max_size=8), st.data())
def test_levenshtein_spans_match_matrix_oracle(queries, texts, data):
    # Several queries per call, of at most and over 64 characters (uint64
    # and Python-int lanes), over spans anywhere in an index's code array:
    # across text boundaries, of length zero and at the end of the array
    # included, against the textbook table on the same slice of the joined
    # string.
    index = text_index(texts)
    assert index.alphabet[index.ids].tolist() == [ord(c) for c in index.joined]
    size = len(index.joined)
    spans = data.draw(st.lists(
        st.integers(0, size).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, size - s))),
        max_size=10,
    )) + [(0, 0), (size, 0), (0, size)]
    owners = data.draw(st.lists(
        st.integers(0, len(queries) - 1), min_size=len(spans), max_size=len(spans)
    ))
    _assert_spans_match_matrix(queries, index, spans, owners)


def test_levenshtein_spans_with_word_and_python_int_queries_in_one_call(monkeypatch):
    # The lanes of the 65-character query run on Python ints in their own
    # pass; the others, the 64-character query's included, stay uint64.
    import himu.experts.matching as matching

    lane_types = []
    popcount = matching._popcount

    def recording(x):
        lane_types.append(x.dtype)
        return popcount(x)

    monkeypatch.setattr(matching, "_popcount", recording)
    texts = ["ab" * 40, "\U0001f600 abc \ud800", "xyz"]
    index = text_index(texts)
    queries = ["ab" * 32, "ba" * 32 + "b", "", "\U0001f600q\ud800", "qqq"]
    size = len(index.joined)
    spans = [(0, 80), (0, 64), (3, 60), (81, 9), (89, 3), (size, 0), (0, 0), (0, size)]
    for owners in ([0, 1, 2, 3, 4, 0, 1, 2], [0, 0, 2, 3, 4, 3, 2, 0], [1] * len(spans)):
        _assert_spans_match_matrix(queries, index, spans, owners)
    assert set(lane_types) == {np.dtype(np.uint64), np.dtype(object)}
    lane_types.clear()
    # A long query without lanes leaves every lane on uint64.
    _assert_spans_match_matrix(queries, index, spans, [0, 2, 3, 4, 0, 2, 3, 4])
    assert set(lane_types) == {np.dtype(np.uint64)}
    short = queries[:1] + queries[2:]
    _assert_spans_match_matrix(short, index, spans, [0, 1, 2, 3, 0, 1, 2, 3])


# --- bundle format ----------------------------------------------------------------

def full_bundle():
    return ExpertBundle(
        video_id="vid-7",
        num_frames=12,
        frame_rate=2.0,
        clip_table=ScoreTable(
            ExpertKind.CLIP,
            "vid-7",
            (("a dog", np.linspace(0, 1, 12)), ("a cat", np.full(12, 0.25))),
        ),
        clap_table=ScoreTable(ExpertKind.CLAP, "vid-7", (("barking", np.zeros(12)),)),
        transcript=(
            TranscriptSegment(0.0, 1.5, "good boy"),
            TranscriptSegment(2.0, 4.0, "fetch the ball"),
        ),
        ocr=(OcrFrameText(4, ("PARK",)),),
        meta={"source": "unit-test"},
    )


def test_bundle_round_trip(tmp_path):
    bundle = full_bundle()
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert bundle_digest(loaded) == bundle_digest(bundle)
    assert loaded.video_id == bundle.video_id
    assert loaded.frame_rate == bundle.frame_rate
    assert loaded.meta == {"source": "unit-test"}
    np.testing.assert_array_equal(
        loaded.clip_table.lookup("A DOG"), bundle.clip_table.lookup("a dog")
    )


def test_bundle_resave_is_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    bundle = ExpertBundle(
        video_id="big",
        num_frames=3600,
        frame_rate=1.0,
        clip_table=ScoreTable(ExpertKind.CLIP, "big", (("q", rng.random(3600)),)),
        # Row-shaped objects in meta stay the lists they were.
        meta={"rows": [{"query": "q", "values": [0.5, -0.0, 5e-324]}]},
    )
    first = dumps(bundle_to_obj(bundle))
    loaded = loads_bundle(first.encode("utf-8"))
    assert type(loaded.meta["rows"][0]["values"]) is list
    assert dumps(bundle_to_obj(loaded)) == first


def test_bundle_transcript_is_sorted_on_construction():
    bundle = make_bundle(
        transcript=(
            TranscriptSegment(5.0, 6.0, "later"),
            TranscriptSegment(1.0, 2.0, "earlier"),
        )
    )
    assert [s.text for s in bundle.transcript] == ["earlier", "later"]


def test_bundle_validation_errors():
    with pytest.raises(InconsistentLengthError):
        make_bundle(
            T=9,
            clip_table=ScoreTable(ExpertKind.CLIP, "vid", (("q", np.zeros(10)),)),
        )
    with pytest.raises(InconsistentLengthError):
        make_bundle(T=4, ocr=(OcrFrameText(4, ("x",)),))
    with pytest.raises(BundleFormatError):
        TranscriptSegment(2.0, 1.0, "backwards")
    with pytest.raises(BundleFormatError):
        make_bundle(T=0)


def test_bundle_document_validation():
    good = json.loads(dumps(bundle_to_obj(full_bundle())))

    bad = dict(good)
    bad["format_version"] = 99
    with pytest.raises(BundleFormatError):
        loads_bundle(json.dumps(bad).encode("utf-8"))

    bad = dict(good)
    bad["surprise"] = True
    with pytest.raises(BundleFormatError):
        loads_bundle(json.dumps(bad).encode("utf-8"))

    bad = json.loads(dumps(bundle_to_obj(full_bundle())))
    bad["clip_table"][0]["values"].append(0.5)
    with pytest.raises(InconsistentLengthError):
        loads_bundle(json.dumps(bad).encode("utf-8"))

    # Numbers only, and only those a float can hold.
    for start in ([1], "1.5", True, None, 10**400):
        bad = json.loads(dumps(bundle_to_obj(full_bundle())))
        bad["transcript"][0]["start"] = start
        with pytest.raises(BundleFormatError):
            loads_bundle(json.dumps(bad).encode("utf-8"))
    bad = json.loads(dumps(bundle_to_obj(full_bundle())))
    bad["frame_rate"] = 10**400
    with pytest.raises(BundleFormatError):
        loads_bundle(json.dumps(bad).encode("utf-8"))
    # Score rows of bundles and detection sources hold numbers only; a
    # string, bool or null is rejected, never cast to a float.
    good_ovd = {"video_id": "vid", "format_version": 1,
                "entries": [{"query": "car", "values": [0.5, 1]}]}
    assert ovd_from_obj(good_ovd).entries[0][1].tolist() == [0.5, 1.0]
    for value in ("0.5", True, None, 10**400):
        bad = json.loads(dumps(bundle_to_obj(full_bundle())))
        bad["clip_table"][0]["values"][0] = value
        with pytest.raises(BundleFormatError):
            loads_bundle(json.dumps(bad).encode("utf-8"))
        bad = copy.deepcopy(good_ovd)
        bad["entries"][0]["values"][0] = value
        with pytest.raises(BundleFormatError):
            ovd_from_obj(bad)

    # Text is checked, never turned into a string with str().
    for text in (["turn", "left"], {"a": 1}, None):
        bad = json.loads(dumps(bundle_to_obj(full_bundle())))
        bad["transcript"][0]["text"] = text
        with pytest.raises(BundleFormatError):
            loads_bundle(json.dumps(bad).encode("utf-8"))
        bad = json.loads(dumps(bundle_to_obj(full_bundle())))
        bad["ocr"][0]["detections"].append(text)
        with pytest.raises(BundleFormatError):
            loads_bundle(json.dumps(bad).encode("utf-8"))

    with pytest.raises(BundleFormatError):
        loads_bundle(b"not json at all")
    with pytest.raises(BundleFormatError):
        loads_bundle(b"[]")
    with pytest.raises(TypeError):  # a file's bytes, not its text
        loads_bundle(dumps(bundle_to_obj(full_bundle())))


def test_ovd_source_round_trip(tmp_path):
    source = OvdSource("vid", (("red car", np.array([0.0, 0.5, 0.9])),))
    path = tmp_path / "ovd.json"
    save_ovd_source(source, path)
    loaded = load_ovd_source(path)
    assert loaded.video_id == "vid"
    np.testing.assert_array_equal(loaded.entries[0][1], [0.0, 0.5, 0.9])
    with pytest.raises(BundleFormatError):
        load_ovd_source(__file__)


# Row values of every kind a loader must take or reject as it always has:
# floats with NaN, infinities, -0.0 and subnormals, ints inside and beyond the
# float range, bools, strings, null, nested lists and empty lists.
_ROW_ELEMENTS = st.one_of(
    st.floats(),
    st.integers(-(2**64), 2**64),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.floats(allow_nan=False), max_size=2),
)
_ROW_LENGTH = 3
_FINITE_ROW = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=_ROW_LENGTH, max_size=_ROW_LENGTH)


@st.composite
def _row_values(draw):
    """Mostly rows that load, and rows one element away from loading."""
    kind = draw(st.integers(0, 5))
    if kind <= 2:
        return draw(_FINITE_ROW)
    if kind == 3:
        values = draw(_FINITE_ROW)
        values[draw(st.integers(0, _ROW_LENGTH - 1))] = draw(_ROW_ELEMENTS)
        return values
    if kind == 4:
        return draw(st.lists(_ROW_ELEMENTS, max_size=_ROW_LENGTH + 1))
    return draw(_ROW_ELEMENTS)


_ROWS = st.fixed_dictionaries({
    "query": st.sampled_from(["a dog", "A  Dog", "a cat", "owl", "eel", "fox", " ", 7]),
    "values": _row_values(),
})
# Free-form JSON for meta, with {query, values} objects, and objects with
# one key more, at any depth.
_META_KEYS = st.sampled_from(["query", "values", "rows", "x"])
_META_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3) | _ROWS
    | st.fixed_dictionaries({"query": st.just("q"), "values": _FINITE_ROW, "x": st.none()}),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_META_KEYS, inner, max_size=3),
    max_leaves=8,
)
_META = st.dictionaries(_META_KEYS, _META_VALUES, max_size=3) | _META_VALUES


def _loaded_or_error(load, source):
    """The loaded object, or the type and message of the exception raised."""
    try:
        return load(source)
    except Exception as exc:  # any exception: its type and message must match
        return type(exc), str(exc)


def _row_bytes(rows):
    return [(query, values.dtype.str, values.tobytes()) for query, values in rows]


def _assert_same_bundle(got, want):
    """Both loads raised the same error, or gave bundles with the same row
    bytes, the same canonical text and the same digest."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in ("clip_table", "clap_table"):
        table, expected = getattr(got, name), getattr(want, name)
        assert (table is None) == (expected is None)
        if expected is not None:
            assert _row_bytes(table.rows) == _row_bytes(expected.rows)
    saved = dumps(bundle_to_obj(want))
    assert dumps(bundle_to_obj(got)) == saved
    assert dumps(bundle_to_obj(loads_bundle(saved.encode("utf-8")))) == saved
    assert bundle_digest(got) == bundle_digest(want)


def _assert_loaders_agree(data: bytes):
    """``loads_bundle`` of the bytes and ``load_bundle`` of a file holding
    them both load, or fail, as parsing the whole document before checking
    it."""
    want = _loaded_or_error(loads_bundle_parsed_first, data)
    _assert_same_bundle(_loaded_or_error(loads_bundle, data), want)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        path.write_bytes(data)
        _assert_same_bundle(_loaded_or_error(load_bundle, path), want)


_LAYOUTS = ({}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t \r\n"})


@settings(max_examples=_examples(300), deadline=None)
@given(
    st.fixed_dictionaries(
        {"video_id": st.just("vid"), "T": st.just(_ROW_LENGTH), "frame_rate": st.just(1.0),
         "format_version": st.just(1)},
        optional={"clip_table": st.lists(_ROWS, max_size=3),
                  "clap_table": st.lists(_ROWS, max_size=3), "meta": _META},
    ),
    st.lists(_ROWS, max_size=3),
    st.sampled_from(_LAYOUTS),
)
def test_loaders_equal_parse_then_check_bytewise(document, entries, layout):
    """Rows cut out of the file bytes load, or fail, exactly as rows checked
    after the whole document is parsed, from bytes and from a file, in any
    whitespace layout."""
    _assert_loaders_agree(json.dumps(document, **layout).encode("utf-8"))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "source.ovd.json"
        path.write_text(json.dumps({"video_id": "vid", "format_version": 1,
                                    "entries": entries}, **layout), encoding="utf-8")
        got = _loaded_or_error(load_ovd_source, path)
        want = _loaded_or_error(load_ovd_source_parsed_first, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _row_bytes(got.entries) == _row_bytes(want.entries)


_HEAD = '"video_id": "vid", "T": 3, "frame_rate": 1.0, "format_version": 1'
_ROW = '{"query": "q", "values": [0.5, -0.0, 5e-324]}'
_MARK = himu.jsonio._ROW_MARK


@pytest.mark.parametrize("document", [
    # "values" inside strings: a query, a transcript text, a meta key's value
    f'{{{_HEAD}, "clip_table": [{{"query": "\\"values\\": [1.0]", "values": [1.0, 2.0, 3.0]}}]}}',
    f'{{{_HEAD}, "transcript": [{{"start": 0, "end": 1, "text": "{{\\"values\\": [0]}}"}}], '
    f'"clip_table": [{_ROW}]}}',
    f'{{{_HEAD}, "meta": {{"a": "values", "b": ["values", "]"]}}, "clip_table": [{_ROW}]}}',
    f'{{{_HEAD}, "meta": {{"a": "\\"values\\":[", "b": ",\\"values\\": [2.0]"}}, '
    f'"clip_table": [{_ROW}]}}',
    # "values" inside meta, as a row, a longer object and a nested key
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"values": [1.0, 2.0], "rows": [{_ROW}], '
    f'"x": {{"query": "q", "values": [1.5], "y": 1}}, "deep": [[{{"values": []}}]]}}}}',
    # the key spelled with an escape, alone and next to a literal one
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "val\\u0075es": [0.5, 0.25, 1.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [5.0, 5.0, 5.0], '
    f'"val\\u0075es": [0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "val\\u0075es": [0], '
    f'"values": [5.0, 5.0, 5.0]}}]}}',
    # duplicate keys: the last value wins, as in json
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 1.0, 1.0], '
    f'"values": [2.0, 2.0, 2.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 1.0, 1.0], "values": 7}}]}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "clip_table": [{{"query": "r", "values": [0, 1, 2]}}]}}',
    # one-number lists under the key and under its escaped spelling
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [0]}}, {_ROW}]}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}, {{"query": "r", "values": [99]}}]}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"val\\u0075es": [0]}}}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"val\\u0075es": [99]}}}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": [{{"val\\u0075es": ["x"]}}, '
    f'{{"val\\u0075es": [0.0]}}, {{"val\\u0075es": [true]}}, {{"val\\u0075es": [-1]}}]}}',
    # keys that end or start with the quoted word
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"\\"values": [1.0, 2.0], '
    f'"values\\"": [3.0], "x\\"values": [4.0]}}}}',
    # arrays whose strings hold "]"
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": ["]", 1.0, 2.0]}}]}}',
    f'{{{_HEAD}, "meta": {{"values": ["a]b", "]"]}}, "clip_table": [{_ROW}]}}',
    # nested and empty arrays
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [[1.0], [2.0], [3.0]]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": []}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [ ]}}]}}',
    f'{{{_HEAD}, "meta": {{"values": [[]]}}, "clip_table": [{_ROW}]}}',
    # arrays of strings and of objects, which are not cut out
    f'{{{_HEAD}, "meta": {{"values": ["a", "b"]}}, "clip_table": [{_ROW}]}}',
    f'{{{_HEAD}, "meta": {{"values": [{{"query": "q", "values": 1.0}}, {{}}]}}, '
    f'"clip_table": [{_ROW}]}}',
    # arrays that do not parse alone, and documents that do not parse
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0,, 2.0, 3.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, 3.0,]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0 2.0 3.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, 3.0]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, 3.0',
    f'{{{_HEAD}, "clip_table": [{{"query": "q" "values": [1.0, 2.0, 3.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, 3.0]}}]}} [0]',
    '["values": [1.0, 2.0, 3.0]]',
    # values of every kind in a row: ints, bools, null, NaN, infinities
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1, 2, 3]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, true, 3.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, null, 3.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [NaN, 1.0, 2.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1e400, 1.0, 2.0]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, 3.0, 4.0]}}]}}',
    # compact and indented whitespace, other JSON whitespace around the key
    f'{{{_HEAD},"clip_table":[{{"query":"q","values":[1.0,2.0,3.0]}}]}}',
    f'{{{_HEAD},\n  "clip_table": [\n    {{\n      "query": "q",\n      "values": [\n'
    f'        1.0,\n        2.0,\n        3.0\n      ]\n    }}\n  ]\n}}\n',
    f'{{{_HEAD}, "clip_table": [{{"query": "q"\t,\r\n"values"\t:\n[ 1.0 ,2.0\t, 3.0 ]}}]}}',
    f'{{"values": [1.0, 2.0, 3.0], {_HEAD}}}',
    # digits, a sign or an exponent glued to a cut-out array
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": 12[0.5, -0.0, 5e-324]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [0.5, -0.0, 5e-324]5}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": -[0.5, -0.0, 5e-324]}}]}}',
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [0.5, -0.0, 5e-324]e5}}]}}',
    # the second row's array glued to a 0, which spells the eleventh row's literal
    f'{{{_HEAD}, "clip_table": [{_ROW}, {{"query": "r", "values": [1.0, 2.0, 3.0]0}}, '
    + ", ".join([_ROW] * 9) + ']}',
    # the row mark outside the rows: as a number, a key and inside strings
    f'{{{_HEAD}, "meta": {{"n": {_MARK}0}}, "clip_table": [{_ROW}]}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"n": {_MARK}0}}}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"n": [{_MARK}, -{_MARK}0]}}}}',
    f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"{_MARK}0": "{_MARK}0"}}}}',
    f'{{{_HEAD}, "transcript": [{{"start": 0, "end": 1, "text": "{_MARK}0"}}], '
    f'"clip_table": [{_ROW}]}}',
    # the row mark inside rows
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [{_MARK}0.0, {_MARK}.5, 1.0]}}, '
    f'{{"query": "r", "values": [{_MARK}0, 1, 2]}}]}}',
])
def test_loaders_agree_on_adversarial_documents(document):
    _assert_loaders_agree(document.encode("utf-8"))


def _bits(obj, rows: bool = False):
    """``obj`` with each float as its IEEE bytes, so -0.0, NaN and
    subnormals compare exactly, and each float64 row as the list of its
    values: tagged as a row when ``rows`` is set, else equal to the list of
    floats it was parsed from."""
    if isinstance(obj, np.ndarray):
        return "row" if rows else "list", _bits(obj.tolist())[1]
    if isinstance(obj, float):
        return "float", struct.pack("<d", obj)
    if isinstance(obj, list):
        return "list", [_bits(value, rows) for value in obj]
    if isinstance(obj, dict):
        return "dict", [(key, _bits(value, rows)) for key, value in obj.items()]
    return type(obj).__name__, obj


def _tag_rows(obj, tag):
    """``obj`` with each ``"values"`` member that is a non-empty list of
    floats, and so a score row, passed through ``tag``."""
    if isinstance(obj, list):
        return [_tag_rows(value, tag) for value in obj]
    if isinstance(obj, dict):
        return {key: tag(value) if key == "values" and isinstance(value, list) and value
                and all(type(v) is float for v in value) else _tag_rows(value, tag)
                for key, value in obj.items()}
    return obj


class _ReusedPieces:
    """``data`` cut at ``cuts``, each piece handed out as a view of one
    buffer that the next piece overwrites, as ``FilePieces`` does."""

    def __init__(self, data: bytes, cuts):
        self.data = data
        self.bounds = list(zip([0, *cuts], [*cuts, len(data)]))

    def __iter__(self):
        view = memoryview(bytearray(max(end - start for start, end in self.bounds)))
        for start, end in self.bounds:
            view[:end - start] = self.data[start:end]
            yield view[:end - start]


def _positions(data: bytes, needle: bytes):
    return [i for i in range(len(data)) if data.startswith(needle, i)]


@st.composite
def _piece_cuts(draw, data: bytes):
    """Sorted cut points: every byte its own piece, or drawn points with
    cuts right after the ``{`` or ``,`` that opens a ``"values"`` key, right
    before and inside the key, at and after a ``]`` and inside numbers
    among them; a repeated point or one at either end gives an empty piece."""
    if draw(st.booleans()):
        return list(range(1, len(data)))
    keys = _positions(data, himu.jsonio._ROW_KEY)
    targets = [hit + k for hit in keys for k in range(8)]
    targets += [himu.jsonio._skip_space(data, hit - 1, -1) + 1 for hit in keys]
    targets += [end + k for end in _positions(data, b"]") for k in (0, 1)]
    targets += [i for i, byte in enumerate(data) if byte in b"0123456789"]
    cuts = draw(st.lists(st.integers(0, len(data)), max_size=8))
    if targets:
        cuts += draw(st.lists(st.sampled_from(targets), max_size=8))
    return sorted(cuts)


# The row mark outside any row: as a number, a key and a string.
_MARKED = st.sampled_from([int(f"{_MARK}0"), -int(f"{_MARK}1"), f"{_MARK}0",
                           {f"{_MARK}0": [1.5]}, [f"x{_MARK}"]])
# Whitespace runs far longer than most pieces.
_PIECE_LAYOUTS = (*_LAYOUTS, {"indent": " " * 40}, {"indent": "\n" * 24})


@settings(max_examples=_examples(300), deadline=None)
@given(
    st.fixed_dictionaries(
        {"video_id": st.just("vid"), "T": st.just(_ROW_LENGTH), "frame_rate": st.just(1.0),
         "format_version": st.just(1)},
        optional={"clip_table": st.lists(_ROWS, max_size=3),
                  "clap_table": st.lists(_ROWS, max_size=3),
                  "meta": _META | _MARKED | st.dictionaries(_META_KEYS, _MARKED, max_size=2)},
    ),
    st.fixed_dictionaries({"video_id": st.sampled_from(["vid", f"{_MARK}0"]),
                           "format_version": st.just(1), "entries": st.lists(_ROWS, max_size=3)}),
    st.booleans(),
    st.sampled_from(_PIECE_LAYOUTS),
    st.data(),
)
def test_rows_parse_the_same_from_any_pieces_bytewise(bundle, source, is_bundle, layout, data):
    """A bundle or detection document cut into pieces anywhere, each piece
    overwritten once the next is read, parses to the same object with the
    same float bits, or fails with the same error, as its whole text. Every
    score row becomes a float64 row, unless the row mark occurs outside
    the rows and no array does."""
    document = json.dumps(bundle if is_bundle else source, **layout).encode("utf-8")
    cuts = data.draw(_piece_cuts(document))
    got = _loaded_or_error(lambda pieces: himu.jsonio.parse_json_rows(
        pieces, BundleFormatError, "bundle"), _ReusedPieces(document, cuts))
    want = _loaded_or_error(lambda whole: himu.jsonio.parse_json(
        himu.jsonio.decode_text(whole, BundleFormatError, "bundle"), BundleFormatError,
        "bundle"), document)
    if isinstance(want, tuple):
        assert got == want
        return
    assert _bits(got) == _bits(want)
    if _MARK not in json.dumps(_tag_rows(want, lambda row: None), **layout):
        want = _tag_rows(want, np.array)
    assert _bits(got, rows=True) == _bits(want, rows=True)


def test_rows_between_a_long_run_without_a_bracket_load_from_file_pieces(tmp_path):
    """A transcript of more than 2 MiB holds no ``]`` until its end, so
    whole 1 MiB pieces of it are read with nothing before their last ``]``
    to search. The rows on both sides of it, each longer than a piece, are
    still cut out as float64 rows, with the same float bits and bundle as
    parsing the whole text."""
    rng = np.random.default_rng(5)
    rows = [{"query": f"q{i}", "values": rng.random(60_000).tolist()} for i in range(3)]
    transcript = [{"start": float(i), "end": i + 0.5, "text": f"segment {i} of the talk"}
                  for i in range(40_000)]
    document = {"video_id": "vid", "T": 60_000, "frame_rate": 1.0,
                "format_version": 1, "clip_table": rows[:2], "transcript": transcript,
                "clap_table": rows[2:]}
    data = json.dumps(document).encode("utf-8")
    start = data.index(b'"transcript"')
    assert data.find(b"]", start) - start > 2 * himu.jsonio._PIECE
    path = tmp_path / "long.bundle.json"
    path.write_bytes(data)

    got = himu.jsonio.parse_json_rows(himu.jsonio.FilePieces(path), BundleFormatError, "bundle")
    assert _bits(got) == _bits(json.loads(data))
    assert [type(row["values"]) for row in (*got["clip_table"], *got["clap_table"])] == \
        [himu.jsonio._Loaded] * 3
    assert dumps(bundle_to_obj(load_bundle(path))) == \
        dumps(bundle_to_obj(loads_bundle_parsed_first(data)))


@pytest.mark.parametrize("data", [
    # invalid UTF-8 inside a row, and outside one
    f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [1.0, 2.0, \xff3.0]}}]}}'
    .encode("latin-1"),
    f'{{{_HEAD}, "meta": {{"x": "\xff"}}, "clip_table": [{_ROW}]}}'.encode("latin-1"),
    f'{{{_HEAD}, "clip_table": [{{"query": "q\xff", "values": [1.0, 2.0, 3.0]}}]}}'
    .encode("latin-1"),
    # non-ASCII text kept as is, and a UTF-8 byte-order mark
    f'{{{_HEAD}, "meta": {{"x": "caf\u00e9 \u2014 \U0001f600"}}, "clip_table": [{_ROW}]}}'
    .encode("utf-8"),
    b"\xef\xbb\xbf" + f'{{{_HEAD}, "clip_table": [{_ROW}]}}'.encode("utf-8"),
])
def test_loaders_agree_on_bytes_that_are_not_plain_utf8(data):
    _assert_loaders_agree(data)


@pytest.mark.parametrize("document, split", [
    # "values" arrays that hold strings or arrays stay in the rest
    (f'{{{_HEAD}, "meta": {{"values": ["a", "b"]}}, "clip_table": [{_ROW}]}}', True),
    (f'{{{_HEAD}, "meta": {{"values": [[1.0]]}}, "clip_table": [{_ROW}]}}', True),
    # the row mark inside a row is cut out with it
    (f'{{{_HEAD}, "clip_table": [{{"query": "q", "values": [{_MARK}0.0, 1.0, 2.0]}}]}}', True),
    # the row mark anywhere else sends the document whole
    (f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"n": {_MARK}0}}}}', False),
    (f'{{{_HEAD}, "clip_table": [{_ROW}], "meta": {{"s": "{_MARK}"}}}}', False),
    (f'{{{_HEAD}, "transcript": [{{"start": 0, "end": 1, "text": "{_MARK}0"}}], '
     f'"clip_table": [{_ROW}]}}', False),
])
def test_which_documents_are_parsed_with_their_rows_cut_out(document, split, monkeypatch):
    """A document is decoded whole only when the row mark occurs outside
    its rows; either way it loads as parsing in full before checking."""
    data = document.encode("utf-8")
    want = loads_bundle_parsed_first(data)
    decoded = []
    decode_text = himu.jsonio.decode_text
    monkeypatch.setattr(himu.jsonio, "decode_text",
                        lambda *args: decoded.append(args) or decode_text(*args))
    got = loads_bundle(data)
    assert bool(decoded) is not split
    _assert_same_bundle(got, want)


def test_large_rows_load_in_slices_exactly():
    """Rows longer than one parse slice (about 256 KB of text) load with
    every value in place, as parsing the whole document does."""
    rng = np.random.default_rng(5)
    T = 40_000
    values = rng.random(T)
    values[::997] = -0.0
    values[1::1009] = 5e-324
    table = ScoreTable(ExpertKind.CLIP, "vid", (("q", values), ("r", rng.random(T) * 1e-300)))
    text = dumps(bundle_to_obj(make_bundle(T=T, clip_table=table)))
    assert len(text) > 2 * 256 * 1024
    _assert_loaders_agree(text.encode("utf-8"))
    compact = json.dumps(json.loads(text), separators=(",", ":")).encode("utf-8")
    _assert_loaders_agree(compact)
    np.testing.assert_array_equal(loads_bundle(compact).clip_table.rows[0][1], values)


def test_bundle_load_holds_one_row_of_python_floats_at_a_time():
    rows, T = 8, 20_000
    rng = np.random.default_rng(3)
    table = ScoreTable(ExpertKind.CLIP, "vid",
                       tuple((f"q{i}", rng.random(T)) for i in range(rows)))
    data = dumps(bundle_to_obj(make_bundle(T=T, clip_table=table))).encode("utf-8")
    tracemalloc.start()
    try:
        loads_bundle(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A float object alone takes 24 bytes, so holding every value as a
    # Python float at once would exceed this bound.
    assert peak < rows * T * 24


def test_bundle_file_load_peaks_below_one_and_a_half_times_its_size(tmp_path):
    """Loading a table-only bundle file holds its bytes and the float64 rows,
    not its text as well, and takes the rows it builds without copying
    them: traced memory peaks below 1.5 times the file size (twice it when
    bytes and text were alive together)."""
    rows, T = 8, 50_000
    rng = np.random.default_rng(3)
    table = ScoreTable(ExpertKind.CLIP, "vid",
                       tuple((f"q{i}", rng.random(T)) for i in range(rows)))
    path = tmp_path / "table.bundle.json"
    save_bundle(make_bundle(T=T, clip_table=table), path)
    tracemalloc.start()
    try:
        loaded = load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _row_bytes(loaded.clip_table.rows) == _row_bytes(table.rows)
    assert peak < 1.5 * path.stat().st_size


def test_rows_are_read_only_and_never_share_a_callers_array(tmp_path):
    values = np.linspace(0.0, 1.0, 12)
    read_only = np.linspace(0.0, 1.0, 12)
    read_only.setflags(write=False)
    for given_values in (values, read_only, values[::-1]):
        table = ScoreTable(ExpertKind.CLIP, "vid", (("q", given_values),))
        row = table.rows[0][1]
        assert not row.flags.writeable
        assert not np.shares_memory(row, given_values)
    source = OvdSource("vid", (("car", values),))
    assert not np.shares_memory(source.entries[0][1], values)

    path = tmp_path / "b.json"
    save_bundle(full_bundle(), path)
    bundle = load_bundle(path)
    for _, row in bundle.clip_table.rows + bundle.clap_table.rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0


# --- evaluate_leaves ---------------------------------------------------------------

def scored_bundle():
    T = 8
    dog = np.zeros(T)
    dog[2:5] = 0.9
    return ExpertBundle(
        video_id="vid",
        num_frames=T,
        frame_rate=1.0,
        clip_table=ScoreTable(ExpertKind.CLIP, "vid", (("a dog", dog),)),
        transcript=(TranscriptSegment(5.0, 7.0, "good dog"),),
    )


def test_evaluate_leaves_covers_all_and_tags_source():
    tree = parse_tree(
        json.dumps(
            {
                "op": "AND",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a dog"},
                    {"op": "LEAF", "expert": "ASR", "query": "good dog"},
                ],
            }
        )
    )
    bundle = scored_bundle()
    out = evaluate_leaves(tree, bundle)
    # Row i holds leaf id i's raw scores.
    assert out.shape == (2, 8) and out.dtype == np.float64
    np.testing.assert_array_equal(out[0], score_embedding_leaf(bundle, ExpertKind.CLIP, "a dog"))
    np.testing.assert_array_equal(out[1], score_asr_leaf(bundle, ["good dog"])[0])


def test_evaluate_leaves_conditional_execution_counters():
    tree = parse_tree(json.dumps({"op": "LEAF", "expert": "CLIP", "query": "a dog"}))
    counters = ProviderCounters()
    evaluate_leaves(tree, scored_bundle(), counters=counters)
    snap = counters.snapshot()
    assert snap["CLIP"] == 1
    assert snap["ASR"] == snap["OCR"] == snap["CLAP"] == snap["OVD"] == 0


def test_evaluate_leaves_shares_duplicate_predicates():
    tree = parse_tree(
        json.dumps(
            {
                "op": "OR",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a dog"},
                    {"op": "LEAF", "expert": "CLIP", "query": "A DOG"},
                ],
            }
        )
    )
    counters = ProviderCounters()
    out = evaluate_leaves(tree, scored_bundle(), counters=counters)
    assert counters.snapshot()["CLIP"] == 1
    assert len(out) == 2
    np.testing.assert_array_equal(out[0], out[1])


def test_evaluate_leaves_wraps_failures_with_leaf_identity():
    tree = parse_tree(
        json.dumps(
            {
                "op": "AND",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a dog"},
                    {"op": "LEAF", "expert": "OCR", "query": "sign"},
                ],
            }
        )
    )
    with pytest.raises(LeafEvaluationError) as info:
        evaluate_leaves(tree, scored_bundle())
    assert info.value.leaf_id == 1
    assert isinstance(info.value.cause, MissingArtifactError)


def _leaf_tree(*leaves):
    children = [{"op": "LEAF", "expert": e, "query": q} for e, q in leaves]
    return parse_tree(json.dumps({"op": "OR", "children": children}))


def test_evaluate_leaves_scores_each_text_expert_in_one_kernel_call(monkeypatch):
    import himu.experts.matching as matching

    calls = []
    kernel = matching.levenshtein_spans

    def counting(queries, *args):
        calls.append(list(queries))
        return kernel(queries, *args)

    monkeypatch.setattr(matching, "levenshtein_spans", counting)
    leaves = (
        ("OCR", "pearl radar"), ("ASR", "jewel amber"), ("CLIP", "a dog"),
        ("OCR", "Pearl   RADAR"), ("OCR", "hazel blaze"), ("ASR", "ambqr glows"),
    )
    bundle = _text_bundle()
    counters = ProviderCounters()
    out = evaluate_leaves(_leaf_tree(*leaves), bundle, counters=counters)
    assert calls == [["pearl radar", "hazel blaze"], ["jewel amber", "ambqr glows"]]
    assert counters.snapshot() == {"CLIP": 1, "CLAP": 0, "OVD": 0, "ASR": 2, "OCR": 2}
    T, fps = bundle.num_frames, bundle.frame_rate
    for row, (expert, query) in zip(out, leaves):
        if expert == "ASR":
            assert row.tobytes() == score_asr_leaf_loop(bundle.transcript, query, T, fps).tobytes()
        elif expert == "OCR":
            assert row.tobytes() == score_ocr_leaf_loop(bundle.ocr, query, T).tobytes()
    assert out[0].any() and out[0].tobytes() == out[3].tobytes()


def test_evaluate_leaves_fails_at_the_first_failing_leaf_in_order():
    # The ASR batch would fail too (no transcript), but the CLIP leaf
    # before it fails first.
    bundle = make_bundle(
        T=6, clip_table=ScoreTable(ExpertKind.CLIP, "vid", (("a dog", np.zeros(6)),))
    )
    tree = _leaf_tree(("CLIP", "a cat"), ("ASR", "jewel amber"), ("ASR", "other"))
    with pytest.raises(LeafEvaluationError) as info:
        evaluate_leaves(tree, bundle)
    assert info.value.leaf_id == 0
    assert isinstance(info.value.cause, MissingRowError)
    tree = _leaf_tree(("CLIP", "a dog"), ("ASR", "jewel amber"), ("ASR", "other"))
    with pytest.raises(LeafEvaluationError) as info:
        evaluate_leaves(tree, bundle)
    assert info.value.leaf_id == 1
    assert isinstance(info.value.cause, MissingArtifactError)


def test_text_matchers_take_a_list_of_queries():
    index = text_index(["exit"])
    with pytest.raises(TypeError, match="list of queries"):
        match_scores("exit", index)
    with pytest.raises(TypeError, match="list of queries"):
        windowed_match_scores("exit", index)
    # "exit now" is 4 edits from "exit": 1 - 4 / 8.
    assert match_scores(["exit", "", "EXIT now"], index).tolist() == [[1.0], [0.0], [0.5]]
