"""Run ``himu select`` with the span wrappers installed, then write the spans.

Usage: python3 perfbench/traced_cli.py SPANS.json select --tree ... --out ...

Everything after the spans path is passed to ``himu.cli.main`` unchanged.
himu is imported from PYTHONPATH, as for the untraced ``python3 -m
himu.cli`` runs, so the two differ only by the wrappers.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import himu.cli
from spans import Recorder, Tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    recorder = Recorder()
    with Tracing(recorder):
        code = himu.cli.main(cli_args)
    spans_path.write_text(json.dumps(recorder.to_obj()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
