from himu.cache import cache_root, write_through
from himu.experts import ExpertBundle, ScoreTable, bundle_digest, dumps_bundle, load_bundle
from himu.tree import ExpertKind


def make_bundle(video_id, value=0.5):
    table = ScoreTable(
        expert=ExpertKind.CLIP,
        video_id=video_id,
        rows=(("a person", (value, value, value)),),
    )
    return ExpertBundle(
        video_id=video_id, num_frames=3, frame_rate=1.0, clip_table=table
    )


def test_cache_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "alt"))
    assert cache_root() == tmp_path / "alt"
    assert cache_root(tmp_path / "explicit") == tmp_path / "explicit"


def test_disk_round_trip_bit_identical(tmp_path):
    bundle = make_bundle("vid-42", 0.123456789123)
    digest = bundle_digest(bundle)
    path = write_through(bundle, digest, root=tmp_path)
    assert path == tmp_path / f"{digest}.bundle.json"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text(encoding="utf-8") == dumps_bundle(bundle)
    loaded = load_bundle(path)
    assert dumps_bundle(loaded) == dumps_bundle(bundle)
    assert bundle_digest(loaded) == digest
