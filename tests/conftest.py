import pytest
from hypothesis import settings

# More examples for the properties that read the loaded profile's count
# (``--hypothesis-profile=thorough``); CI runs the byte-equality
# properties under it.
settings.register_profile("thorough", max_examples=2000, deadline=None)

_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): marks a test as one acceptance criterion",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, title = marker.args
        if report.passed:
            outcome = "PASS"
        elif report.skipped:
            outcome = "SKIP"
        else:
            outcome = "FAIL"
        _CRITERIA[num] = (outcome, title)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        outcome, title = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num:02d} {outcome}: {title}")


@pytest.fixture()
def rich_bundle():
    """A bundle with every section, and floats that a lossy format would
    change: -0.0, the smallest subnormal and 17-significant-digit values."""
    import numpy as np

    from himu.experts import (
        ExpertBundle,
        OcrFrameText,
        ScoreTable,
        TranscriptSegment,
    )
    from himu.tree import ExpertKind

    T = 40
    dog = np.linspace(0.05, 0.35, T)
    dog[:4] = (-0.0, 5e-324, 0.30000000000000004, 1.0000000000000002)
    dog[10:14] = 0.9
    cat = np.full(T, 0.25)
    cat[5] = -0.0
    barking = np.full(T, 0.1234567890123456789)
    barking[25:28] = 0.7
    return ExpertBundle(
        video_id="vid-rich",
        num_frames=T,
        frame_rate=2.0,
        clip_table=ScoreTable(ExpertKind.CLIP, "vid-rich", (("a dog", dog), ("a cat", cat))),
        clap_table=ScoreTable(ExpertKind.CLAP, "vid-rich", (("barking", barking),)),
        transcript=(
            TranscriptSegment(9.5, 11.25, "fetch the ball, Straße"),
            TranscriptSegment(5e-324, 1.0000000000000002, "good boy"),
        ),
        ocr=(OcrFrameText(4, ("PARK", "Exit")), OcrFrameText(T - 1, ("park",))),
        meta={"source": "unit-test", "nested": {"x": [1, 2.5, None]}, "ü": "ß"},
    )
