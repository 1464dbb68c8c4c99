"""Command-line front door.

Four commands: validate a tree document, run selection end-to-end on a
bundle, generate synthetic artifacts from event scripts, and run the recall
benchmark. Selection emits four JSON artifacts (selection, curve,
attribution, stats) so external tools can plot curves and per-leaf
heatmaps without any plotting code here.

Exit codes: 0 success; 2 tree syntax, or a usage error argparse reports;
3 schema (tree, config file or engine flag); 4 arity; 5 inactive expert;
1 any other failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .cache import entry_key, file_key, read_entry, write_through
from .config import SCALAR_KEYS, EngineConfig, config_from_obj, load_config
from .errors import (
    ArityError,
    BundleFormatError,
    HimuError,
    InactiveExpertError,
    SchemaError,
    TreeError,
    TreeSyntaxError,
)
from .experts.bundle import (
    bundle_digest,  # traced by perfbench/spans.py; cmd_select keys by file bytes
    load_ovd_source,
    loads_bundle,
    save_bundle,
    save_ovd_source,
)
from .experts.scoring import ProviderCounters
from .jsonio import atomic_file, decode_text, read_text, save_json
from .pipeline import STRATEGIES, run_pipeline
from .tree import ExpertKind, parse_tree

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SYNTAX = 2
EXIT_SCHEMA = 3
EXIT_ARITY = 4
EXIT_INACTIVE_EXPERT = 5

_SIGMA_FLAGS = {f"sigma_{kind.value.lower()}": kind for kind in ExpertKind}


def _number_flag(text: str):
    """An int literal as int, a float literal as float, else the raw string.

    Numeric engine flags are converted this loosely so that argparse never
    rejects them: ``config_from_obj`` checks the value's type and range the
    same way for a flag as for a config file, and raises ``SchemaError``.
    """
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine configuration")
    group.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    group.add_argument("--gamma", type=_number_flag, help="sigmoid sharpness for normalization")
    group.add_argument("--delta", type=_number_flag,
                       help="scale guard added to the spread estimate")
    group.add_argument("--kappa", type=_number_flag, help="adjacency decay rate")
    for flag, kind in _SIGMA_FLAGS.items():
        group.add_argument(
            f"--{flag.replace('_', '-')}",
            type=_number_flag,
            dest=flag,
            help=f"smoothing bandwidth for {kind.value}",
        )
    group.add_argument(
        "--experts",
        help="comma-separated active expert set (default: all)",
    )
    group.add_argument(
        "--strict-schema",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="reject unknown fields in tree documents (default: strict)",
    )
    group.add_argument("--peaks", type=_number_flag, dest="max_peaks", metavar="PEAKS",
                       help="max peaks kept in phase 1")
    group.add_argument("--neighbors", type=_number_flag, dest="neighbors_per_peak",
                       metavar="NEIGHBORS", help="neighbors added per peak in phase 2")
    group.add_argument("--window", type=_number_flag, help="neighbor window width")
    group.add_argument("--min-dist", type=_number_flag, dest="min_distance", metavar="MIN_DIST",
                       help="minimum distance between peaks")


def _config_from_args(args) -> EngineConfig:
    """Defaults, then the ``--config`` file, then the flags that were given.

    Each engine flag's argparse ``dest`` is its config key, so the given
    flags form one config document, keyed like the file, and pass the same
    checks in ``config_from_obj``.
    """
    config = load_config(args.config) if args.config else EngineConfig()
    flags = {
        key: getattr(args, key)
        for key in SCALAR_KEYS
        if getattr(args, key, None) is not None
    }
    sigmas = {
        kind.value: getattr(args, dest)
        for dest, kind in _SIGMA_FLAGS.items()
        if getattr(args, dest) is not None
    }
    if sigmas:
        flags["sigma_by_expert"] = sigmas
    if args.experts is not None:
        flags["active_experts"] = list(_list_flag("--experts", args.experts))
    return config_from_obj(flags, config)


def _parse_tree_file(path, config: EngineConfig):
    return parse_tree(
        read_text(path, TreeSyntaxError, "tree file"),
        active_experts=config.active_experts,
        strict=config.strict_schema,
        max_depth=config.max_depth,
        max_leaves=config.max_leaves,
    )


def cmd_validate(args) -> int:
    config = _config_from_args(args)
    tree = _parse_tree_file(args.tree, config)
    experts = sorted({leaf.expert.value for leaf in tree.leaves})
    print(
        f"valid: depth {tree.depth}, leaves {tree.num_leaves}, "
        f"experts {','.join(experts)}"
    )
    return EXIT_OK


def _write_outputs(out_dir: Path, artifacts: dict[str, dict], bundle, key) -> list[Path]:
    """Write the artifacts, then the bundle's cache entry when ``key`` is set.

    If any write fails, the artifacts already written are removed, so a
    failed run leaves neither part of the set nor a cache entry behind.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, obj in artifacts.items():
            save_json(obj, out_dir / name)
            written.append(out_dir / name)
        if key is not None:
            write_through(bundle, key)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def _read_bundle(path, use_cache: bool):
    """The bundle in ``path``, its cache key (None without the cache) and
    whether it came from a cache entry, in which case the file is not parsed.

    The lookup hashes the file in pieces, and the file is read whole only on
    a miss. The key of a miss is then taken from the bytes that are parsed,
    so a file replaced between the two reads never gets an entry for content
    it does not hold.
    """
    if use_cache:
        key = file_key(path)
        bundle = read_entry(key)
        if bundle is not None:
            return bundle, key, True
    data = Path(path).read_bytes()
    key = entry_key(data) if use_cache else None
    text = decode_text(data, BundleFormatError, "bundle")
    # The bytes and the text are alive together only while decoding, which is
    # the peak of a cold load. The bytes go before parsing, and the parser
    # turns each table row into float64 as it reads it, so the table values
    # are never all Python floats at once.
    del data
    return loads_bundle(text), key, False


def cmd_select(args) -> int:
    config = _config_from_args(args)
    if args.frames < 1:
        raise ValueError("budget must be >= 1")
    tree = _parse_tree_file(args.tree, config)
    bundle, key, disk_hit = _read_bundle(args.bundle, not args.no_cache)
    ovd_source = load_ovd_source(args.ovd) if args.ovd else None

    counters = ProviderCounters()
    result = run_pipeline(
        tree,
        bundle,
        args.frames,
        config=config,
        ovd_source=ovd_source,
        counters=counters,
        strategy=args.strategy,
    )
    selection = result.selection
    # The bundle is cached only once the run and its artifacts have succeeded.
    ingest_key = key if not disk_hit else None

    selection_obj = {
        "video_id": bundle.video_id,
        "budget": args.frames,
        "strategy": selection.strategy,
        "frames": list(selection.frames),
        "phases": [
            {
                "frame": t,
                "phase": selection.phase[t].value,
                "score": selection.scores[i],
            }
            for i, t in enumerate(selection.frames)
        ],
        "peaks": list(selection.peaks),
    }
    curve_obj = {
        "video_id": bundle.video_id,
        "T": bundle.num_frames,
        "values": result.curve.values.tolist(),
    }
    attribution_obj = {
        "video_id": bundle.video_id,
        "frames": list(selection.frames),
        "leaves": [
            {"leaf_id": leaf.leaf_id, "expert": leaf.expert.value, "query": leaf.query}
            for leaf in tree.leaves
        ],
        "matrix": result.attribution.restrict(selection.frames).tolist(),
    }
    stats_obj = {
        "video_id": bundle.video_id,
        "providers": counters.snapshot(),
        "cache": {
            "bundle_ingested": int(ingest_key is not None),
            "disk_hit": disk_hit,
            "disabled": bool(args.no_cache),
        },
    }

    written = _write_outputs(
        Path(args.out),
        {
            "selection.json": selection_obj,
            "curve.json": curve_obj,
            "attribution.json": attribution_obj,
            "stats.json": stats_obj,
        },
        bundle,
        ingest_key,
    )
    frames_text = ",".join(str(t) for t in selection.frames)
    print(f"selected {len(selection.frames)} frames: {frames_text}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    scripts = bench_mod.load_scripts(args.scripts)
    if args.seed is not None:
        scripts = [replace(s, seed=args.seed) for s in scripts]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for script in scripts:
        instance = bench_mod.generate(script)
        save_bundle(instance.bundle, out_dir / f"{script.script_id}.bundle.json")
        if instance.ovd_source is not None:
            save_ovd_source(instance.ovd_source, out_dir / f"{script.script_id}.ovd.json")
        with atomic_file(out_dir / f"{script.script_id}.tree.json") as fh:
            fh.write(bench_mod.matched_tree_document(script) + "\n")
        print(f"generated {script.script_id}: T={script.num_frames}, "
              f"events={len(script.events)}")
    return EXIT_OK


def _list_flag(flag: str, value: str, convert=str) -> tuple:
    """The comma-separated fields of a list flag, stripped, blank ones
    dropped, each passed through ``convert``."""
    fields = []
    for field in value.split(","):
        field = field.strip()
        if not field:
            continue
        try:
            fields.append(convert(field))
        except ValueError:
            raise ValueError(f"{flag}: {field!r} is not a valid {convert.__name__}") from None
    return tuple(fields)


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    budgets = _list_flag("--budgets", args.budgets, int)
    selectors = _list_flag("--selectors", args.selectors)
    scripts = bench_mod.load_scripts(args.scripts)
    report = bench_mod.run_benchmark(
        scripts, selectors=selectors, budgets=budgets, config=config
    )
    bench_mod.save_report(report, args.out)
    for entry in report.entries:
        print(
            f"{entry.selector:>8} K={entry.budget:<3} "
            f"recall={entry.event_recall:.3f} "
            f"relevant={entry.relevant_fraction:.3f}"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="himu",
        description=(
            "Query-aware frame selection: evaluate a fuzzy temporal-logic "
            "tree over per-frame expert signals and pick a budgeted frame set."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a tree document")
    p_validate.add_argument("--tree", required=True, help="tree JSON path")
    _add_config_flags(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_select = sub.add_parser("select", help="run selection on a bundle")
    p_select.add_argument("--tree", required=True, help="tree JSON path")
    p_select.add_argument("--bundle", required=True, help="expert bundle path")
    p_select.add_argument("--ovd", help="detection score source path")
    p_select.add_argument("--frames", type=int, required=True, metavar="K",
                          help="frame budget")
    p_select.add_argument("--strategy", choices=STRATEGIES, default="pass")
    p_select.add_argument("--out", default="himu-out", help="output directory")
    p_select.add_argument("--no-cache", action="store_true",
                          help="skip the on-disk bundle cache")
    _add_config_flags(p_select)
    p_select.set_defaults(func=cmd_select)

    p_gen = sub.add_parser("gen", help="generate synthetic artifacts from scripts")
    p_gen.add_argument("--scripts", required=True, help="event-script JSON path")
    p_gen.add_argument("--out", default="himu-gen", help="output directory")
    p_gen.add_argument("--seed", type=int, help="override every script's seed")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run the recall benchmark")
    p_bench.add_argument("--scripts", required=True, help="event-script JSON path")
    p_bench.add_argument("--out", default="report.json", help="report path")
    p_bench.add_argument("--budgets", default="8,16,32,64",
                         help="comma-separated frame budgets")
    p_bench.add_argument("--selectors", default="uniform,topk,pass",
                         help="comma-separated selector names")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


# Tree-error kinds and exit codes; the first class that matches wins.
_TREE_ERRORS = (
    (TreeSyntaxError, "syntax", EXIT_SYNTAX),
    (ArityError, "arity", EXIT_ARITY),
    (InactiveExpertError, "inactive-expert", EXIT_INACTIVE_EXPERT),
    (SchemaError, "schema", EXIT_SCHEMA),
    (TreeError, "tree", EXIT_SCHEMA),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TreeError as exc:
        # str(exc) already starts with the path: "<path>: <message>".
        kind, code = next((k, c) for cls, k, c in _TREE_ERRORS if isinstance(exc, cls))
        print(f"error [{kind}] at {exc}", file=sys.stderr)
        return code
    except (HimuError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
