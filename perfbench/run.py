"""End-to-end and per-layer benchmark for himu.

Run from the repository root:

    python3 perfbench/run.py --workload speech_3h --seed 0 --seconds 8 --trace 0

Without ``--workload`` every workload runs in turn. The workloads, metric
names, units and bounds live in ``BENCHMARK.json`` at the repository root;
``perfbench/README.md`` describes them. The last line of each workload's
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). The exit code is 0 only when every output checked out.

Load model: a closed loop with one client. One process asks the next
question only after the previous answer is back, and ``himu select``
subprocesses run one at a time.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Recorder, Tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench-work"

DEFAULT_SEED = 0
TOL = 1e-12  # the oracle tolerance of the test suite
MIN_CYCLES = 2  # each kind of end-to-end step runs at least this often
SETUP_SLICE_S = 0.5  # a set-up step: at least one set-up, until this long
LOOP_SLICE_S = 2.0  # a question step: at least one round, until this long
TRACED_PAIRS = 2  # traced cold/warm himu select pairs in a per-layer run
REFERENCE_PROBE_S = 0.020  # host_probe() on the 2-vCPU VM it was tuned on, undisturbed
CLI_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
CURVE_SAMPLES = 256  # evenly spaced curve values kept in a reference
ARTIFACTS = ("selection.json", "curve.json", "attribution.json")


def _load_himu():
    """Import himu from this checkout's ``src``; None, with a message, if not there."""
    if not (SRC / "himu" / "__init__.py").is_file():
        print(f"error: no himu source tree at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import himu

    if SRC.resolve() not in Path(himu.__file__).resolve().parents:
        print(f"error: imported himu from {himu.__file__}, not {SRC}", file=sys.stderr)
        return None
    return himu


# --- outputs and their checks --------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    """What one answer is checked on: frames, full curve, attribution at frames."""

    frames: tuple[int, ...]
    curve: np.ndarray
    attribution: np.ndarray

    @classmethod
    def of(cls, result) -> "Outcome":
        frames = tuple(result.selection.frames)
        return cls(frames, result.curve.values, result.attribution.restrict(frames))

    @classmethod
    def from_artifacts(cls, out_dir: Path) -> "Outcome":
        selection = json.loads((out_dir / "selection.json").read_text(encoding="utf-8"))
        curve = json.loads((out_dir / "curve.json").read_text(encoding="utf-8"))
        attribution = json.loads((out_dir / "attribution.json").read_text(encoding="utf-8"))
        return cls(
            tuple(selection["frames"]),
            np.asarray(curve["values"], dtype=np.float64),
            np.asarray(attribution["matrix"], dtype=np.float64),
        )

    def reference(self) -> dict:
        idx = _curve_sample(len(self.curve))
        return {
            "frames": list(self.frames),
            "curve_at_frames": [float(v) for v in self.curve[list(self.frames)]],
            "curve_sample": [float(v) for v in self.curve[idx]],
            "attribution_at_frames": self.attribution.tolist(),
        }


def _curve_sample(length: int) -> np.ndarray:
    return np.unique(np.linspace(0, length - 1, CURVE_SAMPLES).astype(int))


def _close(name: str, expected, got) -> list[str]:
    expected, got = np.asarray(expected, dtype=np.float64), np.asarray(got, dtype=np.float64)
    if expected.shape != got.shape:
        return [f"{name} shape {got.shape} != {expected.shape}"]
    if expected.size and np.max(np.abs(expected - got)) > TOL:
        return [f"{name} differs by {np.max(np.abs(expected - got)):.3g}"]
    return []


def diff(expected: Outcome, got: Outcome) -> list[str]:
    if got.frames != expected.frames:
        return ["frames differ"]
    return _close("curve", expected.curve, got.curve) + _close(
        "attribution", expected.attribution, got.attribution
    )


def diff_reference(reference: dict, got: Outcome) -> list[str]:
    if list(got.frames) != reference["frames"]:
        return ["frames differ from the reference"]
    return (
        _close("curve at frames", reference["curve_at_frames"], got.curve[list(got.frames)])
        + _close("curve sample", reference["curve_sample"], got.curve[_curve_sample(len(got.curve))])
        + _close("attribution", reference["attribution_at_frames"], got.attribution)
    )


class Tally:
    """Attempted and failed operations; an operation fails on any problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def attempt(self, label: str, op):
        """Run op() -> (value, problems); an exception is one more problem."""
        try:
            value, problems = op()
        except Exception as exc:  # a benchmark keeps going and reports it
            value, problems = None, [f"raised {exc!r}"]
        self.record(label, problems)
        return value


# --- the library, in process ---------------------------------------------------

class Session:
    """One loaded workload answering questions in this process."""

    def __init__(self, himu, workload, recorder: Recorder | None = None):
        self.himu = himu
        self.workload = workload
        self.recorder = recorder
        self.tracing = Tracing(recorder) if recorder is not None else None
        self.bundle = None
        self.ovd = None
        self.asked = 0

    def _span(self, name: str):
        return nullcontext() if self.recorder is None else self.recorder.span(name)

    def setup(self) -> tuple[float, str]:
        """Read and parse the bundle and detection source, then digest them.

        The earlier copy is dropped and the garbage collected first, so a
        set-up does not pay for collecting what earlier work left behind.
        """
        self.bundle = self.ovd = None
        gc.collect()
        start = time.perf_counter()
        with self._span("bundle.read"):
            bundle = self.himu.load_bundle(self.workload.bundle_path)
            ovd = self.himu.load_ovd_source(self.workload.ovd_path)
        with self._span("bundle.digest"):
            digest = self.himu.bundle_digest(bundle)
        seconds = time.perf_counter() - start
        self.bundle, self.ovd = bundle, ovd
        return seconds, digest

    def answer(self, index: int):
        """Parse question ``index`` and run the pipeline on the loaded bundle.

        A traced session installs the span wrappers for this call only and
        gives its spans a fresh question id.
        """
        if self.recorder is None:
            return self._answer(index)
        self.recorder.question = self.asked
        self.asked += 1
        try:
            with self.tracing:
                return self._answer(index)
        finally:
            self.recorder.question = None

    def _answer(self, index: int):
        question = self.workload.questions[index]
        counters = self.himu.ProviderCounters()
        with self._span("tree.parse"):
            tree = self.himu.parse_tree(question.document)
        with self._span("pipeline"):
            result = self.himu.run_pipeline(
                tree, self.bundle, question.budget, ovd_source=self.ovd,
                counters=counters, strategy=question.strategy,
            )
        if self.recorder is not None:
            for expert, calls in counters.snapshot().items():
                self.recorder.count(f"scoring.calls.{expert}", calls)
        return result


# --- the shared machine's speed ---------------------------------------------------

_PROBE_PAIRS = [("amber badge cabin delta", "ambqr badge cabin delta eagle")] * 48
_PROBE_FLOATS = np.random.default_rng(0).random(200_000)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def host_probe() -> float:
    """Seconds of a fixed piece of work that uses no himu code.

    Edit distances in pure Python, a JSON round trip and a numpy
    convolution and sort: the kinds of work himu does. The faster of two
    runs is kept, so caches emptied by the work before do not count. The
    garbage collector is paused, so the size of the heap does not leak in.
    """
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            for a, b in _PROBE_PAIRS:
                _edit_distance(a, b)
            json.loads(json.dumps(_PROBE_FLOATS[:5000].tolist()))
            np.sort(np.convolve(_PROBE_FLOATS, np.ones(64), "same"))
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class HostSpeed:
    """Scales measured seconds to the speed of an undisturbed machine.

    The machine the benchmark runs on is shared with other virtual
    machines; its speed changes by up to 2x within seconds and drifts over
    minutes. A probe runs right before and right after each measurement,
    and the measurement is scaled by REFERENCE_PROBE_S over the mean of the
    two. Changes to himu do not touch the probe, so they show in full.
    """

    def __init__(self):
        self.before = host_probe()
        self.probes = [self.before]
        self.adjusted: dict[object, list[float]] = {}

    def refresh(self) -> None:
        """Probe again before a measurement that follows untimed work."""
        self.before = host_probe()
        self.probes.append(self.before)

    def record(self, samples: list[tuple[object, float]]) -> None:
        """Probe again and store each (key, seconds) measured since the last probe."""
        after = host_probe()
        self.probes.append(after)
        scale = REFERENCE_PROBE_S / ((self.before + after) / 2)
        self.before = after
        for key, seconds in samples:
            self.adjusted.setdefault(key, []).append(seconds * scale)


def timed_setups(session: Session, tally: Tally, times: list[float], digests: set,
                 min_seconds: float, host: HostSpeed | None = None) -> bool:
    """Set up at least once and for ``min_seconds``; False if a set-up failed."""
    spent = 0.0
    while spent < min_seconds or not spent:

        def op():
            seconds, digest = session.setup()
            digests.add(digest)
            frames = session.bundle.num_frames
            problems = [] if frames == session.workload.frames else [f"T={frames}"]
            if len(digests) != 1:
                problems.append("bundle digest changed between loads")
            return seconds, problems

        seconds = tally.attempt("setup", op)
        if seconds is None:
            return False
        times.append(seconds)
        if host is not None:
            host.record([("setup", seconds)])
        spent += seconds
    return True


def first_answers(session: Session, tally: Tally, seed: int) -> list[Outcome] | None:
    """Answer every question once (untimed) and check against the reference."""
    outcomes = []
    for i in range(len(session.workload.questions)):
        outcome = tally.attempt(f"question {i}", lambda: (Outcome.of(session.answer(i)), []))
        if outcome is None:
            return None
        outcomes.append(outcome)
    if seed == DEFAULT_SEED:
        path = REFERENCE_DIR / f"{session.workload.name}.json"
        if not path.is_file():
            tally.record("reference", [f"missing {path.name}"])
            return outcomes
        reference = json.loads(path.read_text(encoding="utf-8"))
        if reference["bundle_sha256"] != session.workload.bundle_sha256():
            tally.record("reference", ["generated inputs differ from the reference inputs"])
            return outcomes
        for i, (entry, outcome) in enumerate(zip(reference["questions"], outcomes)):
            tally.record(f"reference question {i}", diff_reference(entry, outcome))
    return outcomes


def closed_loop(session, tally, expected, seconds, plain, traced_session=None, traced=None,
                min_rounds=1, host: HostSpeed | None = None) -> int:
    """Ask whole rounds of questions until ``seconds`` have passed.

    ``plain`` holds one list per question; each answer's seconds go to its
    question's list. Returns the number of rounds. With ``traced_session``
    each question is asked twice per round, once in each session,
    alternating which goes first, and the traced times go to ``traced``.
    With ``host`` every round's untraced times are also recorded there,
    keyed by question index.
    """
    questions = range(len(session.workload.questions))
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < min_rounds:
        answered = sum(map(len, plain))
        this_round = []
        for i in questions:
            order = [(session, plain)]
            if traced_session is not None:
                order.append((traced_session, traced))
                if rounds % 2:
                    order.reverse()
            for who, times in order:

                def op():
                    t0 = time.perf_counter()
                    result = who.answer(i)
                    elapsed = time.perf_counter() - t0
                    return elapsed, diff(expected[i], Outcome.of(result))

                elapsed = tally.attempt(f"question {i}", op)
                if elapsed is not None:
                    times[i].append(elapsed)
                    if times is plain:
                        this_round.append((i, elapsed))
        if host is not None:
            host.record(this_round)
        rounds += 1
        if sum(map(len, plain)) == answered:  # every question failed; they are counted
            break
    return rounds


# --- the CLI, as a subprocess ---------------------------------------------------

class Launcher:
    """The small helper process (``launcher.py``) that starts every CLI run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], cwd: Path, env: dict, stderr: Path) -> dict:
        request = {"cmd": cmd, "cwd": str(cwd), "env": env, "stderr": str(stderr),
                   "timeout": CLI_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class SelectRunner:
    """Runs ``himu select`` on the workload's CLI question and checks its output.

    Every run gets its own ``--out`` and the cache directory it is given, so
    no run sees another's cache unless it is meant to (a warm run).
    """

    def __init__(self, launcher: Launcher, workload, run_dir: Path, tally: Tally,
                 expected: Outcome):
        self.launcher, self.workload, self.run_dir = launcher, workload, run_dir
        self.tally, self.expected = tally, expected
        self.first: dict[str, bytes] = {}  # artifacts of the first run
        self.peak_kib = 0
        self.runs = 0
        self.out_dir = run_dir

    def run(self, kind: str, cache_dir: Path, spans_path: Path | None = None):
        """Wall seconds of one cold or warm run; None if it failed."""
        self.out_dir = self.run_dir / f"out-{self.runs}"
        stderr = self.run_dir / f"stderr-{self.runs}.txt"
        self.runs += 1
        question = self.workload.questions[self.workload.cli_question]
        args = [
            "select", "--tree", str(self.workload.tree_path),
            "--bundle", str(self.workload.bundle_path), "--ovd", str(self.workload.ovd_path),
            "--frames", str(question.budget), "--strategy", question.strategy,
            "--out", str(self.out_dir),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "himu.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC), HIMU_CACHE_DIR=str(cache_dir))

        def op():
            result = self.launcher.run(cmd, self.run_dir, env, stderr)
            self.peak_kib = max(self.peak_kib, result["maxrss_kib"])
            if result["returncode"] != 0:
                message = stderr.read_text(encoding="utf-8", errors="replace").strip()
                return None, [f"exit {result['returncode']}: {message[-300:]}"]
            return result["seconds"], self._check(kind == "cold")

        label = "traced select" if spans_path else "select"
        return self.tally.attempt(f"{label} {kind} {self.runs}", op)

    def _check(self, cold: bool) -> list[str]:
        """Library equality, cache witness, byte-identical artifacts."""
        problems = diff(self.expected, Outcome.from_artifacts(self.out_dir))
        stats = json.loads((self.out_dir / "stats.json").read_text(encoding="utf-8"))
        if stats["cache"]["disk_hit"] is cold:
            problems.append(f"cache.disk_hit is {stats['cache']['disk_hit']} on a "
                            f"{'cold' if cold else 'warm'} run")
        for name in ARTIFACTS:
            data = (self.out_dir / name).read_bytes()
            if self.first.setdefault(name, data) != data:
                problems.append(f"{name} is not byte-identical across runs")
        return problems


# --- metrics --------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and its rank."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float("nan"), float("nan")
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Run:
    """What one workload run needs: inputs, checks, a work directory, the CLI."""

    himu: object
    workload: object
    run_dir: Path
    tally: Tally
    seed: int
    seconds: float
    launcher: Launcher
    spans_out: Path | None = None  # where a traced run writes its spans

    def select_runner(self, expected: list[Outcome]) -> SelectRunner:
        cli_expected = expected[self.workload.cli_question]
        return SelectRunner(self.launcher, self.workload, self.run_dir, self.tally, cli_expected)


def end_to_end(run: Run):
    """Untraced metrics from set-ups, question rounds and CLI runs in turn.

    The steps go round in this order: set-ups (at least one, for
    SETUP_SLICE_S), question rounds (at least one, for LOOP_SLICE_S), a
    cold ``himu select`` and a warm one on the cache the cold run filled.
    The run stops at the first step that has run MIN_CYCLES times already
    and, as long as the longest of its kind so far, would end after
    ``run.seconds``. Taking turns spreads each kind of measurement over the
    whole run.

    Every time is scaled by HostSpeed, and the medians of the measured
    wall times are printed next to the scaled ones.
    """
    session = Session(run.himu, run.workload)
    metrics, notes = {}, {}
    n = len(run.workload.questions)
    setups, digests, cold, warm = [], set(), [], []
    times: list[list[float]] = [[] for _ in range(n)]
    kinds = ("setup", "loop", "cold", "warm")
    longest = dict.fromkeys(kinds, 0.0)
    done = dict.fromkeys(kinds, 0)
    start = time.perf_counter()
    host = HostSpeed()
    if not timed_setups(session, run.tally, setups, digests, SETUP_SLICE_S, host):
        return metrics, notes
    longest["setup"], done["setup"] = time.perf_counter() - start, 1
    expected = first_answers(session, run.tally, run.seed)  # untimed
    if expected is None:
        return metrics, notes
    runner = run.select_runner(expected)
    rounds = 0
    cache_dir = run.run_dir / "cache"
    for step in itertools.count(1):
        kind = kinds[step % len(kinds)]
        if done[kind] >= MIN_CYCLES and time.perf_counter() - start + longest[kind] > run.seconds:
            break
        began = time.perf_counter()
        host.refresh()
        if kind == "setup":
            if not timed_setups(session, run.tally, setups, digests, SETUP_SLICE_S, host):
                break
        elif kind == "loop":
            rounds += closed_loop(session, run.tally, expected, LOOP_SLICE_S, times, host=host)
        else:
            if kind == "cold":
                cache_dir = run.run_dir / f"cache-{done[kind]}"
            seconds = runner.run(kind, cache_dir)
            if seconds is not None:
                (cold if kind == "cold" else warm).append(seconds)
                host.record([(kind, seconds)])
            shutil.rmtree(runner.out_dir, ignore_errors=True)
            if kind == "warm":
                # Deleted at once, the files never reach the disk, so their
                # write-back does not run during later measurements.
                shutil.rmtree(cache_dir, ignore_errors=True)
        longest[kind] = max(longest[kind], time.perf_counter() - began)
        done[kind] += 1
        if run.tally.failed:  # every later step would repeat the failure
            break
    shutil.rmtree(cache_dir, ignore_errors=True)
    if not all(times) or not cold or not warm:
        return metrics, notes
    scaled = host.adjusted
    per_question = [statistics.median(scaled[i]) for i in range(n)]
    tail_s, pct = tail([x for i in range(n) for x in scaled[i]])
    samples = sum(map(len, times))
    metrics = {
        "setup_s": statistics.median(scaled["setup"]),
        "pipeline_s": statistics.median(per_question),
        "pipeline_tail_s": tail_s,
        "questions_per_s": n / sum(per_question),
        "select_cold_s": statistics.median(scaled["cold"]),
        "select_warm_s": statistics.median(scaled["warm"]),
        "peak_rss_mb": runner.peak_kib / 1024.0,
        "setup_wall_s": statistics.median(setups),
        "pipeline_wall_s": statistics.median(statistics.median(t) for t in times),
        "select_cold_wall_s": statistics.median(cold),
        "select_warm_wall_s": statistics.median(warm),
        "host.probe_s": statistics.median(host.probes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} loads + digests",
        "pipeline_s": f"median over {n} question(s) of each one's median of {rounds} rounds",
        "pipeline_tail_s": f"p{pct:.1f} of {samples} question times, {TAIL_BEYOND} beyond",
        "questions_per_s": f"T={run.workload.frames}, one client, median round of each question",
        "select_cold_s": f"median of {len(cold)}, empty cache",
        "select_warm_s": f"median of {len(warm)}, cache filled by the cold run",
        "peak_rss_mb": f"max over {runner.runs} himu select processes",
        "host.probe_s": f"median of {len(host.probes)} probes; "
                        f"times above are scaled by {REFERENCE_PROBE_S} s over the probe",
    }
    notes.update({f"{name}_wall_s": "measured, not scaled"
                  for name in ("setup", "pipeline", "select_cold", "select_warm")})
    return metrics, notes


def _durations(recorder, name: str, questions: bool = True) -> float:
    """Total seconds of spans named ``name`` (in questions, or outside them)."""
    return sum(
        s.duration_ns for s in recorder.spans
        if s.name == name and (s.question is not None) == questions
    ) / 1e9


def _count(recorder, name: str) -> int:
    return sum(n for (_, key), n in recorder.counts.items() if key == name)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


LAYER_SPANS = (
    "tree.parse", "scoring.leaves", "scoring.asr", "scoring.ocr", "scoring.table",
    "scoring.ovd", "signals.normalize", "signals.smooth", "kernels.smooth",
    "kernels.seq", "kernels.right_after", "compose.and", "compose.or", "compose.seq",
    "compose.right_after", "select.pass", "select.topk", "select.uniform",
)
EXPERTS = ("CLIP", "OVD", "OCR", "ASR", "CLAP")


def per_layer(run: Run):
    """Per-layer metrics from a traced run, per round of the question list."""
    workload, tally = run.workload, run.tally
    recorder = Recorder()
    traced_session = Session(run.himu, workload, recorder)
    plain_session = Session(run.himu, workload)
    metrics, notes = {}, {}
    digests = set()
    for _ in range(MIN_CYCLES):
        if not timed_setups(traced_session, tally, [], digests, SETUP_SLICE_S):
            return metrics, notes
    plain_session.bundle, plain_session.ovd = traced_session.bundle, traced_session.ovd
    expected = first_answers(plain_session, tally, run.seed)
    if expected is None:
        return metrics, notes
    plain = [[] for _ in workload.questions]
    traced = [[] for _ in workload.questions]
    rounds = closed_loop(plain_session, tally, expected, run.seconds / 3, plain, traced_session,
                         traced, min_rounds=MIN_CYCLES)
    cli = traced_cli(run, run.select_runner(expected))
    cli_spans = cli.pop("spans", [])
    if run.spans_out is not None:
        spans = {"process": recorder.to_obj(), "himu_select": cli_spans}
        run.spans_out.write_text(json.dumps(spans), encoding="utf-8")

    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = _durations(recorder, name) / rounds
    read = [s.duration_ns / 1e9 for s in recorder.spans if s.name == "bundle.read"]
    digest = [s.duration_ns / 1e9 for s in recorder.spans if s.name == "bundle.digest"]
    metrics["bundle.read_s"] = statistics.median(read)
    metrics["bundle.digest_s"] = statistics.median(digest)
    metrics["bundle.bytes"] = workload.bundle_path.stat().st_size + workload.ovd_path.stat().st_size
    for kernel in ("smooth", "seq", "right_after"):
        metrics[f"kernels.{kernel}_bytes"] = _count(recorder, f"kernels.{kernel}_bytes") // rounds
    for expert in EXPERTS:
        metrics[f"scoring.calls.{expert}"] = _count(recorder, f"scoring.calls.{expert}") // rounds
    for matcher in ("windowed", "match", "levenshtein"):
        metrics[f"matching.{matcher}_calls"] = _count(recorder, f"matching.{matcher}_calls") // rounds
    calls = metrics["matching.windowed_calls"] + metrics["matching.match_calls"]
    hits = (_count(recorder, "matching.windowed_hits") + _count(recorder, "matching.match_hits")) // rounds
    metrics["matching.hit_ratio"] = hits / calls if calls else 0.0
    plain_best = sum(min(t) for t in plain)
    metrics["trace.overhead_frac"] = (sum(min(t) for t in traced) - plain_best) / plain_best
    metrics.update(workload.counts)
    metrics.update(cli)

    notes = {name: f"per round of {len(workload.questions)} question(s), {rounds} rounds"
             for name in metrics if name.startswith(("scoring.", "signals.", "kernels.",
                                                      "compose.", "select.", "tree.",
                                                      "matching."))}
    notes.update({
        "bundle.read_s": f"median of {len(read)} traced loads",
        "bundle.digest_s": f"median of {len(digest)} traced digests",
        "kernels.smooth_bytes": "computed: input and output array sizes",
        "kernels.seq_bytes": "computed: input and output array sizes",
        "kernels.right_after_bytes": "computed: input and output array sizes",
        "trace.overhead_frac": f"traced vs untraced, fastest of {rounds} rounds per question",
        "cli.cold_s": f"median of {TRACED_PAIRS} traced cold himu select runs",
        "cli.warm_s": f"median of {TRACED_PAIRS} traced warm himu select runs",
        "cache.write_s": f"median of {TRACED_PAIRS} traced cold himu select runs",
        "cli.self_s": f"self time of cmd_select, median of {TRACED_PAIRS} traced warm runs",
    })
    if all(name in metrics for name in ("cli.cold_s", "cli.warm_s", "cache.write_s")):
        text = metrics["scoring.asr_s"] + metrics["scoring.ocr_s"]
        io = metrics["bundle.read_s"] + metrics["bundle.digest_s"]
        gap = metrics["cli.cold_s"] - metrics["cli.warm_s"]
        notes["shape"] = (
            f"text scoring {text / (_durations(recorder, 'pipeline') / rounds):.1%} of the "
            f"pipeline; bundle read+digest {io / metrics['cli.warm_s']:.1%} of a warm select; "
            f"cache write {metrics['cache.write_s'] / gap:.1%} of the cold-warm gap"
        )
    return metrics, notes


def traced_cli(run: Run, runner: SelectRunner) -> dict:
    """Traced cold/warm ``himu select`` pairs: medians of cache and CLI self time."""
    samples: dict[str, list[float]] = {
        "cli.cold_s": [], "cli.warm_s": [], "cache.write_s": [], "cli.self_s": []
    }
    out = {}
    for i in range(TRACED_PAIRS):
        cache_dir = run.run_dir / f"cache-traced-{i}"
        for kind in ("cold", "warm"):
            spans_path = run.run_dir / f"spans-{kind}-{i}.json"
            seconds = runner.run(kind, cache_dir, spans_path)
            if seconds is None:
                continue
            samples[f"cli.{kind}_s"].append(seconds)
            cli_spans = json.loads(spans_path.read_text(encoding="utf-8"))
            out.setdefault("spans", []).append(cli_spans)
            recorder = Recorder.from_obj(cli_spans)
            if kind == "cold":
                samples["cache.write_s"].append(
                    _durations(recorder, "cache.write", questions=False)
                )
                out["cache.bytes_written"] = _dir_bytes(cache_dir)
            else:
                selfs = recorder.self_times_ns()
                samples["cli.self_s"].append(sum(
                    t for s, t in zip(recorder.spans, selfs) if s.name == "cli.select"
                ) / 1e9)
                out["cli.artifact_bytes"] = _dir_bytes(runner.out_dir)
    out.update({name: statistics.median(v) for name, v in samples.items() if v})
    return out


# --- command line ---------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(himu, benchmark: dict, name: str, args, launcher: Launcher) -> bool:
    from workloads import generate_workload

    seed, trace = args.seed, bool(args.trace)
    run_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tally = Tally()
    try:
        workload = generate_workload(name, seed, run_dir / "inputs")
        spans_out = Path(args.spans_out.format(workload=name)) if args.spans_out else None
        run = Run(himu, workload, run_dir, tally, seed, args.seconds, launcher, spans_out)
        metrics, notes = (per_layer if trace else end_to_end)(run)
    except Exception as exc:
        tally.record("run", [f"raised {exc!r}"])
        metrics, notes = {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _remove_if_empty(WORK_DIR)

    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"== {name} seed={seed} trace={int(trace)}")
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:<28} {_fmt(value):>14} {units.get(metric, _unit(metric))}{note}")
    if "shape" in notes:
        print(f"shape: {notes['shape']}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_frac':<28} {failed_frac:>14.6g} ratio  ({tally.failed} of {tally.attempted})")
    for error in tally.errors[:20]:
        print(f"FAILED {error}")

    wanted = benchmark["per_layer" if trace else "end_to_end"]
    reported = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if math.isfinite(metrics.get(m["name"], math.nan))
    }
    correct = tally.failed == 0 and len(reported) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": reported,
    }))
    return correct


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # absent, or another run still uses it
        pass


def _unit(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("bytes", "B"),
                         ("_frac", "ratio"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def write_references(himu, names) -> None:
    """Store the default seed's outputs as the reference for later runs."""
    from workloads import generate_workload

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        run_dir = WORK_DIR / f"reference-{name}-{os.getpid()}"
        try:
            workload = generate_workload(name, DEFAULT_SEED, run_dir)
            session = Session(himu, workload)
            session.setup()
            header = {"seed": DEFAULT_SEED, "bundle_sha256": workload.bundle_sha256()}
            questions = [
                json.dumps(Outcome.of(session.answer(i)).reference())
                for i in range(len(workload.questions))
            ]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            _remove_if_empty(WORK_DIR)
        # One line per question keeps the file small and its diffs readable.
        text = json.dumps(header)[:-1] + ', "questions": [\n' + ",\n".join(questions) + "\n]}\n"
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    benchmark_path = ROOT / "BENCHMARK.json"
    if not benchmark_path.is_file():
        print(f"error: {benchmark_path} is missing", file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", metavar="NAME",
                        help="default: every workload of BENCHMARK.json; "
                             "qa_session runs only when named")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of the timed question loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="with --trace 1, write the spans as JSON here "
                             "({workload} is replaced by the workload name)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store seed {DEFAULT_SEED} outputs in perfbench/reference")
    args = parser.parse_args(argv)

    himu = _load_himu()
    if himu is None:
        return 2
    from workloads import SPECS

    if args.workload is not None and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    selected = [args.workload] if args.workload else names
    if args.write_reference:
        write_references(himu, selected)
        return 0
    launcher = Launcher()
    try:
        ok = True
        for name in selected:
            ok &= run_workload(himu, benchmark, name, args, launcher)
    finally:
        launcher.close()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
