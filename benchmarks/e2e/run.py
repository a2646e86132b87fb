"""End-to-end benchmark of the default ``campion`` path.

Usage::

    # all four workloads: 10 timed rounds and 1 traced round each
    python benchmarks/e2e/run.py --seed 0 > result.json

    # one workload, timed rounds for about --seconds seconds
    python benchmarks/e2e/run.py --workload acl_pair --seed 0 --seconds 24 --trace 0

Each round runs the real CLI three times as child processes, one at a
time, on the default path (near compression, atoms backend, memo and
persistent cache on, ``workers`` unset): on an empty cache (cold), again
on the cache the cold run filled (warm), and after a one-device edit
(edit).  Every round gets a fresh ``--cache-dir``, every child an
environment with no ``CAMPION_*`` variables, and every output is checked
against the oracle reference that ``workloads.py`` computes.

With ``--trace 1`` each round also runs the three commands through
``traced_cli.py`` and the result carries the per-layer metrics instead
of the end-to-end ones.  End-to-end numbers never come from traced
runs.  See README.md for the metrics, workloads and findings.

The last line of standard output is one JSON object; progress goes to
standard error.  Run from anywhere inside a checkout holding ``src/``.
This process never imports ``repro``: generation and the oracle run in
a child, so the children's peak RSS is theirs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import workloads
from traced_cli import root_seconds, self_times, span_counts

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space: one directory per workload run, removed at its end,
#: and the children's bytecode cache.
WORK = HERE / ".work"
TRACED_CLI = HERE / "traced_cli.py"
WORKLOADS_PY = HERE / "workloads.py"

MODES = ("cold", "warm", "edit")
#: Timed rounds per workload of a full run.  With five, one slow sample
#: decides the upper quartile and so the spread compare.py judges.
FULL_ROUNDS = 10
#: A child that runs this long is killed and counted as crashed.
CHILD_TIMEOUT_S = 60.0
MB = 1024 * 1024

#: (name, unit, better) of the end-to-end metrics a run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("edit_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer self times: metric name -> span name in ``traced_cli``.
SELF_TIMES = {
    "parsers.s": "parsers",
    "cache.read_s": "cache.read",
    "cache.write_s": "cache.write",
    "fingerprint.template_s": "fingerprint.template",
    "near_symmetry.plan_s": "near_symmetry.plan",
    "parallel.matrix_s": "parallel.matrix",
    "fleet.self_s": "fleet",
    "fleet.expand_s": "fleet.expand",
    "config_diff.self_s": "config_diff",
    "semantic_diff.s": "semantic_diff",
    "header_localize.s": "header_localize",
    "ddnf.dag_s": "ddnf.dag",
    "coverage.s": "coverage",
    "serialize.s": "serialize",
    "cli.self_s": "cli",
}

#: (name, unit, better) of what one traced run reports, layer by layer.
LAYER_METRICS = (
    ("wall_s", "s", "lower"),
    ("parsers.s", "s", "lower"),
    ("parsers.lines", "count", "lower"),
    ("parsers.fingerprint_s", "s", "lower"),
    ("cache.read_s", "s", "lower"),
    ("cache.write_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.writes", "count", "lower"),
    ("fingerprint.template_s", "s", "lower"),
    ("near_symmetry.plan_s", "s", "lower"),
    ("near_symmetry.classes", "count", "lower"),
    ("near_symmetry.analyzed_pairs", "count", "lower"),
    ("near_symmetry.fallbacks", "count", "lower"),
    ("parallel.matrix_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.failed", "count", "lower"),
    ("parallel.retries", "count", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("fleet.expand_s", "s", "lower"),
    ("config_diff.self_s", "s", "lower"),
    ("config_diff.calls", "count", "lower"),
    ("semantic_diff.s", "s", "lower"),
    ("semantic_diff.classes", "count", "lower"),
    ("bdd.applies", "count", "lower"),
    ("setalg.atoms", "count", "lower"),
    ("header_localize.s", "s", "lower"),
    ("header_localize.calls", "count", "lower"),
    ("header_localize.ranges", "count", "lower"),
    ("ddnf.dag_s", "s", "lower"),
    ("ddnf.dag_hit_ratio", "ratio", "higher"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("memo.localization_replays", "count", "higher"),
    ("memo.stores", "count", "lower"),
    ("coverage.s", "s", "lower"),
    ("serialize.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = tuple(
    (f"{mode}.{name}", unit, better) for mode in MODES for name, unit, better in LAYER_METRICS
) + (("trace.overhead", "ratio", "lower"), ("cache.json_key_drift", "count", "lower"))


class BenchmarkError(Exception):
    """The benchmark cannot produce a result at all."""


def log(message: str) -> None:
    print(f"e2e: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildRun:
    """One finished child process."""

    seconds: float
    exit_code: int
    max_rss_kb: int
    stdout: bytes
    stderr: bytes

    def last_error_line(self) -> str:
        lines = self.stderr.decode("utf-8", "replace").strip().splitlines()
        return lines[-1] if lines else ""


def run_child(argv: List[str], cwd: pathlib.Path, env: Dict[str, str], scratch: pathlib.Path) -> ChildRun:
    """Run ``argv`` to completion; wall time and peak RSS come from ``wait4``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(seconds, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())


def child_env(scratch: pathlib.Path) -> Dict[str, str]:
    """The parent environment minus ``CAMPION_*``, importing ``src/``.

    Children keep compiled bytecode, as an installed ``campion`` does,
    in a cache under ``WORK`` that the first child (the workload
    preparation) fills; no child pays for compiling the sources.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("CAMPION_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch)
    return env


# ---------------------------------------------------------------------------
# Workloads on disk


@dataclass
class Prepared:
    """A workload written by ``workloads.py``, with its references."""

    directory: pathlib.Path
    name: str
    args: List[str]
    edit_filename: str
    #: variant ("base"/"edit") -> {"digest", "exit_code", "truth_problem"}
    references: Dict[str, Dict]

    @property
    def configs(self) -> pathlib.Path:
        return self.directory / "configs"

    def select(self, variant: str) -> None:
        """Put the ``"base"`` or ``"edit"`` text of the edited file in place."""
        shutil.copyfile(self.directory / "variants" / f"{variant}.cfg", self.configs / self.edit_filename)


def prepare(name: str, seed: int, scratch: pathlib.Path, env: Dict[str, str], tiny: bool = False) -> Prepared:
    """Generate workload ``name`` and its references in a child process."""
    directory = scratch / "workload"
    argv = [sys.executable, str(WORKLOADS_PY), name, str(seed), str(directory)] + (["--tiny"] if tiny else [])
    run = run_child(argv, scratch, env, scratch)
    if run.exit_code != 0:
        raise BenchmarkError(f"{name}: preparing the workload failed (exit {run.exit_code}): {run.last_error_line()}")
    spec = json.loads((directory / "workload.json").read_text())
    return Prepared(directory, name, spec["args"], spec["edit_filename"], spec["references"])


def failure(run: ChildRun, expected: Dict) -> Optional[str]:
    """Why a timed run failed, or ``None`` when its output is correct."""
    if run.exit_code < 0:
        return f"killed by signal {-run.exit_code}"
    if run.exit_code in (2, 3) or run.exit_code != expected["exit_code"]:
        return f"exit {run.exit_code}, expected {expected['exit_code']}"
    try:
        digest = workloads.canonical_digest(run.stdout)
    except ValueError:
        return "standard output is not JSON"
    if digest != expected["digest"]:
        return "report differs from the reference"
    return None


def line_drift(first: bytes, second: bytes) -> int:
    """Lines that differ between two outputs, position by position."""
    lines1, lines2 = first.splitlines(), second.splitlines()
    changed = sum(a != b for a, b in zip(lines1, lines2))
    return changed + abs(len(lines1) - len(lines2))


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(trace: Dict, stdout: bytes) -> Dict[str, float]:
    """Wall time, self times and work counts of one traced run."""
    spans = trace["spans"]
    own = self_times(spans)
    calls = span_counts(spans)
    counters = trace["perf"]["counters"]
    timers = trace["perf"]["timers"]
    facts = trace["facts"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    metrics = {name: own.get(span, 0.0) for name, span in SELF_TIMES.items()}
    metrics.update(
        {
            "wall_s": root_seconds(spans),
            "parsers.lines": count("parse.cisco.lines") + count("parse.juniper.lines"),
            "parsers.fingerprint_s": timers.get("parse.fingerprint", {}).get("total_s", 0.0),
            "cache.hit_ratio": _ratio(
                count("cache.device.hits") + count("cache.diff.hits"),
                count("cache.device.misses") + count("cache.diff.misses"),
            ),
            "cache.writes": count("cache.writes"),
            "near_symmetry.classes": facts.get("classes", 0),
            "near_symmetry.analyzed_pairs": facts.get("analyzed_pairs", 0),
            "near_symmetry.fallbacks": count("near_symmetry.fallbacks"),
            "parallel.tasks": count("parallel.tasks"),
            "parallel.failed": count("parallel.errors") + count("parallel.timeouts"),
            "parallel.retries": count("parallel.retries"),
            "config_diff.calls": calls.get("config_diff", 0),
            "semantic_diff.classes": count("semantic_diff.classes"),
            "bdd.applies": count("bdd.applies"),
            "setalg.atoms": count("setalg.atoms"),
            "header_localize.calls": calls.get("header_localize", 0),
            "header_localize.ranges": count("header_localize.ranges"),
            "ddnf.dag_hit_ratio": _ratio(
                count("header_localize.dag_cache_hits"), count("header_localize.dag_cache_misses")
            ),
            "memo.hit_ratio": _ratio(count("memo.hits"), count("memo.misses")),
            "memo.localization_replays": count("memo.localization_replays"),
            "memo.stores": count("memo.stores"),
            "cli.output_mb": len(stdout) / MB,
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# Measuring one workload


@dataclass
class Measurement:
    """Everything one workload's rounds produced."""

    setup: List[float] = field(default_factory=list)
    seconds: Dict[str, List[float]] = field(default_factory=lambda: {mode: [] for mode in MODES})
    peak_rss_mb: List[float] = field(default_factory=list)
    #: per traced round: "<mode>.<metric>" -> value
    layers: List[Dict[str, float]] = field(default_factory=list)
    traced_cold: List[float] = field(default_factory=list)
    drift: List[int] = field(default_factory=list)
    attempted: int = 0
    #: timed runs that crashed, exited 2 or 3, or printed a wrong report
    failures: List[str] = field(default_factory=list)
    #: anything else that makes the run incorrect (ground truth, set-up)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures and not self.problems


def measure(
    prepared: Prepared,
    scratch: pathlib.Path,
    env: Dict[str, str],
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    traced_rounds: int = 0,
) -> Measurement:
    """Time ``rounds`` rounds, or as many as fit in ``seconds``.

    Each of the first ``traced_rounds`` rounds is followed by a traced
    round.  A set-up sample precedes every timed child, so set-up and
    the runs see the same host conditions.
    """
    result = Measurement()
    result.problems = [
        f"{variant}: {reference['truth_problem']}"
        for variant, reference in prepared.references.items()
        if reference["truth_problem"]
    ]

    def setup_sample() -> None:
        run = run_child([sys.executable, "-c", "import repro.cli"], scratch, env, scratch)
        if run.exit_code != 0:
            result.problems.append(f"setup: exit {run.exit_code}: {run.last_error_line()}")
        result.setup.append(run.seconds)

    def one_round(index: int, traced: bool) -> None:
        cache = scratch / f"cache-{index}-{'traced' if traced else 'timed'}"
        passed: Dict[str, ChildRun] = {}
        for mode in MODES:
            if not traced:
                setup_sample()
            variant = "edit" if mode == "edit" else "base"
            prepared.select(variant)
            trace_path = scratch / f"trace-{index}-{mode}.json"
            launcher = [str(TRACED_CLI), str(trace_path), f"{mode}-{index}", "--"] if traced else ["-m", "repro.cli"]
            argv = [sys.executable, *launcher, "--cache-dir", str(cache), *prepared.args]
            run = run_child(argv, prepared.configs, env, scratch)
            result.attempted += 1
            reason = failure(run, prepared.references[variant])
            if reason is not None:
                kind = "traced " if traced else ""
                result.failures.append(f"{kind}{mode} round {index}: {reason} [{run.last_error_line()}]")
                continue
            passed[mode] = run
            if traced:
                with open(trace_path) as handle:
                    metrics = layer_metrics(json.load(handle), run.stdout)
                result.layers[-1].update({f"{mode}.{name}": value for name, value in metrics.items()})
            else:
                result.seconds[mode].append(run.seconds)
                if mode == "cold":
                    result.peak_rss_mb.append(run.max_rss_kb / 1024)
        if traced and "cold" in passed:
            result.traced_cold.append(passed["cold"].seconds)
        if not traced and "cold" in passed and "warm" in passed:
            result.drift.append(line_drift(passed["cold"].stdout, passed["warm"].stdout))
        shutil.rmtree(cache, ignore_errors=True)

    started = time.perf_counter()
    durations: List[float] = []
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif index and time.perf_counter() - started + statistics.mean(durations) > seconds:
            break
        began = time.perf_counter()
        one_round(index, traced=False)
        if index < traced_rounds:
            result.layers.append({})
            one_round(index, traced=True)
        durations.append(time.perf_counter() - began)
        index += 1
    log(f"{prepared.name}: {index} round(s) in {time.perf_counter() - started:.1f}s")
    return result


def run_workload(
    name: str,
    seed: int,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    traced_rounds: int = 0,
    tiny: bool = False,
) -> Measurement:
    """Prepare and measure one workload in a scratch directory of its own."""
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        env = child_env(scratch)
        started = time.perf_counter()
        prepared = prepare(name, seed, scratch, env, tiny)
        log(f"{name}: workload and references ready in {time.perf_counter() - started:.1f}s")
        return measure(prepared, scratch, env, rounds, seconds, traced_rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reporting


def summary(values: List[float]) -> Dict:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def end_to_end_values(result: Measurement) -> Dict[str, List[float]]:
    """Samples of each end-to-end metric (empty lists when none)."""
    values = {"setup_s": result.setup, "peak_rss_mb": result.peak_rss_mb}
    values.update({f"{mode}_s": result.seconds[mode] for mode in MODES})
    return values


def per_layer_values(result: Measurement) -> Dict[str, float]:
    """Median over traced rounds of every per-layer metric."""
    medians: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        samples = [layers[name] for layers in result.layers if name in layers]
        if samples:
            medians[name] = statistics.median(samples)
    if result.traced_cold and result.seconds["cold"]:
        medians["trace.overhead"] = statistics.median(result.traced_cold) / statistics.median(result.seconds["cold"])
    if result.drift:
        medians["cache.json_key_drift"] = statistics.median(result.drift)
    return medians


def one_workload_result(result: Measurement, trace: bool) -> Dict:
    """The one-workload result: medians of the end-to-end or per-layer metrics."""
    if trace:
        values = per_layer_values(result)
        spec = PER_LAYER
    else:
        values = {name: statistics.median(samples) for name, samples in end_to_end_values(result).items() if samples}
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec if name in values}
    return {
        "correct": result.correct and len(metrics) == len(spec),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }


def workload_report(result: Measurement) -> Dict:
    """The full-mode report of one workload."""
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    end_to_end = {
        name: {"unit": units[name], **summary(values)}
        for name, values in end_to_end_values(result).items()
        if values
    }
    fail_frac = len(result.failures) / result.attempted if result.attempted else 1.0
    end_to_end["fail_frac"] = {"unit": "ratio", **summary([fail_frac]), "n": result.attempted}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures,
        "problems": result.problems,
        "end_to_end": end_to_end,
        "per_layer": {name: {"value": value, "unit": units[name]} for name, value in per_layer_values(result).items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=24.0, help="timed-round budget of a one-workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="report per-layer metrics (one-workload run)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"e2e: error: no campion source tree at {SRC}", file=sys.stderr)
        return 2

    try:
        if args.workload is not None:
            result = run_workload(
                args.workload, args.seed, seconds=args.seconds, traced_rounds=sys.maxsize if args.trace else 0
            )
            for problem in result.failures + result.problems:
                log(problem)
            print(json.dumps(one_workload_result(result, bool(args.trace))))
            return 0

        reports = {}
        for name in workloads.WORKLOADS:
            reports[name] = workload_report(run_workload(name, args.seed, rounds=FULL_ROUNDS, traced_rounds=1))
            for metric, stats in reports[name]["end_to_end"].items():
                log(
                    f"{name:18s} {metric:12s} median {stats['median']:.4f} {stats['unit']}"
                    f" (q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n={stats['n']})"
                )
            for problem in reports[name]["failures"] + reports[name]["problems"]:
                log(f"{name}: {problem}")
    except BenchmarkError as exc:
        print(f"e2e: error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "seed": args.seed,
                "rounds": FULL_ROUNDS,
                "correct": all(report["correct"] for report in reports.values()),
                "workloads": reports,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
