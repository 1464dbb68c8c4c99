"""The benchmark traces himu by patching module attributes by name; a
refactor that renames or deletes one of them would otherwise go unnoticed
until the benchmark itself runs."""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_trace_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    points = [point[:2] for point in spans.SPAN_POINTS + spans.COUNT_POINTS]
    missing = [
        f"{module}.{attribute}"
        for module, attribute in points
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert points and not missing
