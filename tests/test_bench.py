import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import himu.bench
import himu.pipeline
from himu.bench import (
    Event,
    EventScript,
    RecallReport,
    ReportEntry,
    generate,
    load_scripts,
    matched_tree_document,
    report_to_obj,
    run_benchmark,
    save_report,
    script_from_obj,
    validate_script,
)
from himu.errors import (
    BenchmarkError,
    InvalidScriptError,
    LeafEvaluationError,
    MissingRowError,
)
from himu.cli import main
from himu.config import EngineConfig
from himu.experts import ProviderCounters, bundle_digest, score_asr_leaf
from himu.experts.matching import query_key
from himu.pipeline import run_pipeline, satisfaction_curve
from himu.tree import ExpertKind, parse_tree
from oracles import dumps_stdlib, ovd_document, planted_row_loop, save_scripts, script_document


def script_with(events, *, num_frames=60, noise=0.0, seed=7, script_id="s1"):
    return EventScript(
        script_id=script_id,
        num_frames=num_frames,
        events=tuple(events),
        noise_level=noise,
        seed=seed,
    )


def test_generation_is_deterministic():
    script = script_with(
        [
            Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.8),
            Event(ExpertKind.ASR, "good boy", (20, 24)),
            Event(ExpertKind.OVD, "ball", (30, 33), amplitude=0.6),
        ],
        noise=0.05,
    )
    first = generate(script)
    second = generate(script)
    assert bundle_digest(first.bundle) == bundle_digest(second.bundle)
    assert (dumps_stdlib(ovd_document(first.ovd_source))
            == dumps_stdlib(ovd_document(second.ovd_source)))


def test_seed_changes_noise():
    events = [Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.8)]
    a = generate(script_with(events, noise=0.05, seed=1))
    b = generate(script_with(events, noise=0.05, seed=2))
    assert bundle_digest(a.bundle) != bundle_digest(b.bundle)


def test_zero_noise_gives_exact_amplitude():
    script = script_with(
        [
            Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.8),
            Event(ExpertKind.CLAP, "barking", (20, 30), amplitude=0.35),
        ]
    )
    instance = generate(script)
    clip = np.asarray(instance.bundle.clip_table.lookup("a dog"))
    assert np.all(clip[10:15] == 0.8)
    assert np.all(clip[:10] == 0.0) and np.all(clip[15:] == 0.0)
    clap = np.asarray(instance.bundle.clap_table.lookup("barking"))
    assert np.all(clap[20:30] == 0.35)


def test_noise_stays_in_unit_interval():
    script = script_with(
        [Event(ExpertKind.CLIP, "a dog", (0, 60), amplitude=0.99)], noise=0.3
    )
    clip = np.asarray(generate(script).bundle.clip_table.lookup("a dog"))
    assert clip.min() >= 0.0 and clip.max() <= 1.0


def test_overlapping_events_max_merge():
    script = script_with(
        [
            Event(ExpertKind.CLIP, "a dog", (10, 20), amplitude=0.4),
            Event(ExpertKind.CLIP, "a dog", (15, 25), amplitude=0.9),
        ]
    )
    clip = np.asarray(generate(script).bundle.clip_table.lookup("a dog"))
    assert np.all(clip[10:15] == 0.4)
    assert np.all(clip[15:25] == 0.9)


def test_modality_offset_shifts_signal_not_ground_truth():
    script = script_with(
        [Event(ExpertKind.ASR, "hello there", (10, 14), modality_offset=2)]
    )
    instance = generate(script)
    (segment,) = instance.bundle.transcript
    assert segment.start == 12.0 and segment.end == 16.0
    values = score_asr_leaf(instance.bundle, ["hello there"])[0]
    assert np.all(values[12:16] == 1.0)
    assert np.all(values[10:12] == 0.0)
    # Recall is still judged against the stated support.
    assert script.events[0].support == (10, 14)


def test_offset_ignored_for_visual_experts():
    script = script_with(
        [Event(ExpertKind.CLIP, "a dog", (10, 14), amplitude=0.7, modality_offset=5)]
    )
    clip = np.asarray(generate(script).bundle.clip_table.lookup("a dog"))
    assert np.all(clip[10:14] == 0.7)
    assert np.all(clip[14:] == 0.0)


def test_only_used_experts_materialize():
    instance = generate(script_with([Event(ExpertKind.OCR, "EXIT", (5, 8))]))
    bundle = instance.bundle
    assert bundle.clip_table is None
    assert bundle.clap_table is None
    assert bundle.transcript is None
    assert bundle.ocr is not None
    assert instance.ovd_source is None
    assert {e.frame for e in bundle.ocr} == {5, 6, 7}


def test_matched_tree_document_covers_events():
    script = script_with(
        [
            Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.8),
            Event(ExpertKind.ASR, "good boy", (20, 24)),
            Event(ExpertKind.CLIP, "a dog", (40, 45), amplitude=0.8),
        ]
    )
    doc = json.loads(matched_tree_document(script))
    assert doc["op"] == "OR"
    assert [(c["expert"], c["query"]) for c in doc["children"]] == [
        ("CLIP", "a dog"),
        ("ASR", "good boy"),
    ]
    single = script_with([Event(ExpertKind.OCR, "EXIT", (5, 8))])
    assert json.loads(matched_tree_document(single))["op"] == "LEAF"


def test_queries_sharing_a_key_plant_one_row_and_one_leaf():
    script = script_with(
        [
            Event(ExpertKind.CLIP, "Red car", (10, 20)),
            Event(ExpertKind.CLIP, "red car", (150, 160)),
        ],
        num_frames=200,
    )
    (row,) = generate(script).bundle.clip_table.rows
    assert row[0] == "Red car"
    assert np.flatnonzero(row[1]).tolist() == [*range(10, 20), *range(150, 160)]
    assert json.loads(matched_tree_document(script)) == {
        "op": "LEAF", "expert": "CLIP", "query": "Red car",
    }
    entry = run_benchmark([script], selectors=("topk",), budgets=(20,)).entry("topk", 20)
    assert (entry.events_hit, entry.events_total) == (2, 2)


# Spellings that share a query_key in groups: "ß" casefolds to "ss".
_SPELLINGS = ("red car", "Red  car", " RED CAR", "dog", "DOG", "Straße", "STRASSE")


@st.composite
def _noiseless_scripts(draw):
    num_frames = draw(st.integers(1, 40))
    events = []
    for _ in range(draw(st.integers(1, 8))):
        expert = draw(st.sampled_from(list(ExpertKind)))
        start = draw(st.integers(0, num_frames - 1))
        amplitude = (
            1.0 if expert in (ExpertKind.ASR, ExpertKind.OCR)
            else draw(st.floats(0.0, 1.0, exclude_min=True))
        )
        events.append(Event(
            expert,
            draw(st.sampled_from(_SPELLINGS)),
            (start, draw(st.integers(start + 1, num_frames))),
            amplitude,
            draw(st.integers(-5, 5)),
        ))
    return EventScript(
        script_id="p",
        num_frames=num_frames,
        events=tuple(events),
        seed=draw(st.integers(0, 2**32)),
        frame_rate=draw(st.sampled_from([1.0, 2.5, 30.0])),
    )


# No max_examples: the loaded hypothesis profile sets the count.
@settings(deadline=None)
@given(_noiseless_scripts())
def test_generated_table_rows_equal_per_event_loop(script):
    instance = generate(script)
    bundle, ovd_source = instance.bundle, instance.ovd_source
    tables = {
        ExpertKind.CLIP: bundle.clip_table.rows if bundle.clip_table else (),
        ExpertKind.CLAP: bundle.clap_table.rows if bundle.clap_table else (),
        ExpertKind.OVD: ovd_source.entries if ovd_source else (),
    }
    for expert, rows in tables.items():
        first_spelling = {}
        for event in script.events:
            if event.expert is expert:
                first_spelling.setdefault(query_key(event.query), event.query)
        # One row per key, named by its first spelling, in order of first appearance.
        assert [query for query, _ in rows] == list(first_spelling.values())
        for query, values in rows:
            expected = planted_row_loop(script.events, expert, query, script.num_frames)
            assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("script_id", ["../escaped", "a/b", "a\\b", ".", ".."])
def test_script_id_must_be_a_file_name(script_id):
    events = [Event(ExpertKind.CLIP, "a dog", (1, 3), amplitude=0.5)]
    with pytest.raises(InvalidScriptError, match="must be a file name"):
        script_with(events, script_id=script_id)


def _write_suite(path, *script_ids):
    path.write_text(json.dumps({
        "format_version": 1,
        "scripts": [{**_SCRIPT_DOC, "script_id": sid} for sid in script_ids],
    }))


def test_gen_rejects_a_path_as_script_id(tmp_path, capsys):
    suite = tmp_path / "scripts.json"
    _write_suite(suite, "../escaped")
    out_dir = tmp_path / "gen" / "sub"
    assert main(["gen", "--scripts", str(suite), "--out", str(out_dir)]) == 1
    assert "'../escaped' must be a file name" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


def test_gen_rejects_a_repeated_script_id(tmp_path, capsys):
    suite = tmp_path / "scripts.json"
    _write_suite(suite, "dup", "other", "dup")
    with pytest.raises(InvalidScriptError, match="'dup' is not unique"):
        load_scripts(suite)
    out_dir = tmp_path / "gen"
    assert main(["gen", "--scripts", str(suite), "--out", str(out_dir)]) == 1
    assert "script_id 'dup' is not unique" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "event",
    [
        Event(ExpertKind.CLIP, "a dog", (15, 10)),
        Event(ExpertKind.CLIP, "a dog", (-1, 5)),
        Event(ExpertKind.CLIP, "a dog", (10, 99)),
        Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.0),
        Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=1.2),
        Event(ExpertKind.ASR, "a dog", (10, 15), amplitude=0.5),
        Event(ExpertKind.OCR, "a dog", (10, 15), amplitude=0.5),
        Event(ExpertKind.CLIP, "   ", (10, 15)),
    ],
)
def test_invalid_scripts_rejected(event):
    with pytest.raises(InvalidScriptError):
        validate_script(script_with([event], num_frames=60))


def test_negative_seed_is_rejected_naming_the_script():
    events = [Event(ExpertKind.CLIP, "a dog", (1, 3), amplitude=0.5)]
    with pytest.raises(InvalidScriptError, match="neg"):
        script_with(events, seed=-1, script_id="neg")
    with pytest.raises(InvalidScriptError, match="s: seed"):
        script_from_obj({**copy.deepcopy(_SCRIPT_DOC), "seed": -1})


def test_gen_seed_flag_rejects_a_negative_seed_naming_the_script(tmp_path, capsys):
    path = tmp_path / "scripts.json"
    save_scripts([script_from_obj(_SCRIPT_DOC)], path)
    out_dir = tmp_path / "gen"
    assert main(["gen", "--scripts", str(path), "--out", str(out_dir), "--seed", "-1"]) == 1
    assert "s: seed must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_script_round_trip(tmp_path):
    scripts = [
        script_with(
            [
                Event(ExpertKind.CLIP, "a dog", (10, 15), amplitude=0.8),
                Event(ExpertKind.ASR, "good boy", (20, 24), modality_offset=1),
            ],
            noise=0.02,
            seed=11,
            script_id="alpha",
        ),
        script_with([Event(ExpertKind.OCR, "EXIT", (5, 8))], script_id="beta"),
    ]
    path = tmp_path / "suite.json"
    save_scripts(scripts, path)
    loaded = load_scripts(path)
    assert loaded == scripts
    assert script_from_obj(script_document(scripts[0])) == scripts[0]
    # A misspelt key in the file is an error, not an empty suite.
    path.write_text(json.dumps({"format_version": 1, "scripts": [], "scirpts": []}))
    with pytest.raises(InvalidScriptError):
        load_scripts(path)


_SCRIPT_DOC = {
    "script_id": "s",
    "T": 20,
    "seed": 0,
    "events": [
        {"expert": "CLIP", "query": "a dog", "support": [1, 5], "modality_offset": 0},
    ],
}


_EVENT_KEYS = ("query", "support", "modality_offset", "amplitud")


@pytest.mark.parametrize(
    "key,value",
    [
        ("script_id", 7),
        ("T", 20.9),
        ("seed", True),
        ("query", 123),
        ("support", [1.7, "5"]),
        ("modality_offset", 2.5),
        # Unknown keys are errors, not ignored: a misspelt key would
        # otherwise load as its default (noise 0.0, amplitude 1.0).
        ("noise", 0.5),
        ("amplitud", 0.2),
        ("seed", -1),
    ],
)
def test_script_values_are_checked_not_cast(tmp_path, key, value):
    script = copy.deepcopy(_SCRIPT_DOC)
    assert script_from_obj(script).events[0].support == (1, 5)
    (script["events"][0] if key in _EVENT_KEYS else script)[key] = value
    path = tmp_path / "scripts.json"
    path.write_text(json.dumps({"format_version": 1, "scripts": [script]}))
    with pytest.raises(InvalidScriptError):
        load_scripts(path)
    out_dir = tmp_path / "gen"
    assert main(["gen", "--scripts", str(path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()


def test_benchmark_small_suite_and_report_round_trip(tmp_path):
    scripts = [
        script_with(
            [Event(ExpertKind.CLIP, "a dog", (40, 44), amplitude=0.9)],
            script_id="s-a",
            num_frames=120,
        ),
        script_with(
            [
                Event(ExpertKind.CLIP, "a cat", (10, 14), amplitude=0.9),
                Event(ExpertKind.CLAP, "meow", (90, 94), amplitude=0.9),
            ],
            script_id="s-b",
            num_frames=120,
        ),
    ]
    report = run_benchmark(scripts, selectors=("uniform", "pass"), budgets=(4, 8))
    assert report.num_scripts == 2
    for selector in ("uniform", "pass"):
        for budget in (4, 8):
            entry = report.entry(selector, budget)
            assert entry.events_total == 3
            assert entry.frames_selected == 2 * budget
            assert 0.0 <= entry.event_recall <= 1.0
    # The peak-seeking selector finds every planted event at these budgets.
    assert report.entry("pass", 8).event_recall == 1.0
    assert report.entry("pass", 8).event_recall >= report.entry("uniform", 8).event_recall

    path = tmp_path / "report.json"
    save_report(report, path)
    assert json.loads(path.read_text(encoding="utf-8")) == report_to_obj(report)
    with pytest.raises(KeyError):
        report.entry("pass", 999)


def test_benchmark_requires_unique_ids():
    s = script_with([Event(ExpertKind.CLIP, "a dog", (1, 3), amplitude=0.5)])
    with pytest.raises(InvalidScriptError):
        run_benchmark([s, s], budgets=(4,))


@pytest.mark.parametrize(
    ("selectors", "budgets", "message"),
    [
        (("sorcery",), (4,), "unknown selector 'sorcery'"),
        (("pass",), (0,), "budget must be >= 1, got 0"),
        (("pass",), (-4,), "budget must be >= 1, got -4"),
        ((), (4,), "no selectors given"),
        (("pass",), (), "no budgets given"),
        (("pass", "topk", "pass"), (4,), "selector 'pass' is repeated"),
        (("pass",), (8, 16, 8), "budget 8 is repeated"),
    ],
)
def test_benchmark_checks_its_grid_before_any_script(monkeypatch, selectors, budgets, message):
    monkeypatch.setattr(himu.bench, "generate", lambda script: pytest.fail("generated"))
    s = script_with([Event(ExpertKind.CLIP, "a dog", (1, 3), amplitude=0.5)])
    with pytest.raises(ValueError, match=message):
        run_benchmark([s], selectors=selectors, budgets=budgets)


@pytest.mark.parametrize(
    ("flag", "message"),
    [
        (["--selectors", ","], "no selectors given"),
        (["--selectors", "pass,sorcery"], "unknown selector 'sorcery'"),
        (["--budgets", "0"], "budget must be >= 1, got 0"),
        (["--budgets", "8,8"], "budget 8 is repeated"),
    ],
)
def test_bench_rejects_a_bad_grid_before_any_script(tmp_path, capsys, flag, message):
    suite = tmp_path / "scripts.json"
    _write_suite(suite, "s00")
    report_path = tmp_path / "report.json"
    assert main(["bench", "--scripts", str(suite), "--out", str(report_path), *flag]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not report_path.exists()


def test_bench_list_flags_drop_blank_fields_and_name_a_bad_one(tmp_path, capsys):
    suite = tmp_path / "scripts.json"
    _write_suite(suite, "s00")
    report_path = tmp_path / "report.json"

    def bench(*flags, scripts=suite):
        return main(["bench", "--scripts", str(scripts), "--out", str(report_path), *flags])

    assert bench("--budgets", ",") == 1
    assert capsys.readouterr().err.startswith("error: no budgets given")
    assert not report_path.exists()
    # A bad field fails before the scripts are read.
    assert bench("--budgets", "8.5", scripts=tmp_path / "missing.json") == 1
    assert capsys.readouterr().err.startswith("error: --budgets: '8.5' is not a valid int")
    assert bench("--budgets", "8,,16", "--selectors", "pass") == 0
    assert json.loads(report_path.read_text())["budgets"] == [8, 16]
    assert bench("--budgets", "8", "--selectors", "pass,,topk") == 0
    assert json.loads(report_path.read_text())["selectors"] == ["pass", "topk"]


def test_benchmark_wraps_pipeline_failures_with_script_id(monkeypatch):
    good = script_with(
        [Event(ExpertKind.CLIP, "a dog", (1, 3), amplitude=0.5)], script_id="ok"
    )

    def broken_tree(script):
        return json.dumps({"op": "LEAF", "expert": "CLIP", "query": "absent"})

    monkeypatch.setattr(himu.bench, "matched_tree_document", broken_tree)
    with pytest.raises(BenchmarkError) as info:
        run_benchmark([good], budgets=(4,))
    assert "ok" in str(info.value)
    leaf_error = info.value.__cause__
    assert isinstance(leaf_error, LeafEvaluationError)
    assert isinstance(leaf_error.cause, MissingRowError)


def mixed_suite():
    """Every expert, noise and modality offsets, on short timelines."""
    scripts = []
    for i, offset in enumerate((-3, 0, 2, 3)):
        base = 20 + 11 * i
        scripts.append(script_with(
            [
                Event(ExpertKind.CLIP, f"red car {i}", (base, base + 5), amplitude=0.8),
                Event(ExpertKind.ASR, f"turn left {i}", (base + 60, base + 68),
                      modality_offset=offset),
                Event(ExpertKind.OVD, f"dog {i}", (base + 120, base + 124), amplitude=0.6),
                Event(ExpertKind.OCR, f"exit {i}", (base + 180, base + 183)),
                Event(ExpertKind.CLAP, f"siren {i}", (base + 240, base + 250),
                      amplitude=0.7, modality_offset=-offset),
            ],
            num_frames=360,
            noise=0.05,
            seed=i,
            script_id=f"mix-{i}",
        ))
    return scripts


def test_benchmark_equals_one_pipeline_run_per_pair():
    scripts = mixed_suite()
    selectors, budgets = ("uniform", "topk", "pass"), (8, 16, 32, 64)
    config = EngineConfig()
    entries = []
    for selector in selectors:
        for budget in budgets:
            events = hit = frames_total = relevant = 0
            for script in scripts:
                instance = generate(script)
                tree = parse_tree(matched_tree_document(script))
                frames = run_pipeline(
                    tree, instance.bundle, budget, config=config,
                    ovd_source=instance.ovd_source, strategy=selector,
                ).selection.frames
                supports = [e.support for e in script.events]
                events += len(supports)
                hit += sum(any(s <= t < e for t in frames) for s, e in supports)
                frames_total += len(frames)
                relevant += sum(any(s <= t < e for s, e in supports) for t in frames)
            entries.append(
                ReportEntry(selector, budget, events, hit, frames_total, relevant)
            )
    expected = RecallReport(selectors, budgets, len(scripts), tuple(entries))
    report = run_benchmark(scripts, selectors=selectors, budgets=budgets, config=config)
    assert report_to_obj(report) == report_to_obj(expected)
    assert report.entry("pass", 64).events_hit > 0


def test_benchmark_scores_and_composes_each_script_once(monkeypatch):
    scripts = mixed_suite()
    calls = []
    scorer = himu.pipeline.evaluate_leaves

    def counting(tree, bundle, *args, **kwargs):
        calls.append(bundle.video_id)
        return scorer(tree, bundle, *args, **kwargs)

    monkeypatch.setattr(himu.pipeline, "evaluate_leaves", counting)
    report = run_benchmark(scripts)
    assert len(report.entries) == 3 * 4
    assert calls == [s.script_id for s in scripts]


def test_satisfaction_curve_is_the_pipeline_curve():
    script = mixed_suite()[0]
    instance = generate(script)
    tree = parse_tree(matched_tree_document(script))
    counters = ProviderCounters()
    curve, attribution = satisfaction_curve(
        tree, instance.bundle, ovd_source=instance.ovd_source, counters=counters
    )
    pipeline_counters = ProviderCounters()
    result = run_pipeline(
        tree, instance.bundle, 16, ovd_source=instance.ovd_source, counters=pipeline_counters
    )
    assert curve.values.tobytes() == result.curve.values.tobytes()
    assert attribution.values.tobytes() == result.attribution.values.tobytes()
    assert counters.snapshot() == pipeline_counters.snapshot()
    assert counters.snapshot() == {e: 1 for e in ("CLIP", "OVD", "OCR", "ASR", "CLAP")}
