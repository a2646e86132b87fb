"""Fingerprint memoization and the persistent cache — BENCH_fleet_memo.json.

Two measurements behind one JSON artifact:

1. **Fleet comparison, memoized vs plain recompute.**  The 12-device
   templated gateway workload through ``compare_fleet`` twice: once
   with ``use_memo=False`` (every pair recomputes every component) and
   once with the default fingerprint memoization.  Both runs pass
   ``compress="off"``, so every matrix pair is analyzed and the ratio
   measures what the memo alone saves: with the default near
   compression the fingerprint classes already collapse the clones'
   pairs in *both* arms, which leaves the memo nothing to win.  The
   serialized reports must be identical; the interesting number is
   the speedup, which grows with fleet size because a templated fleet
   has O(1) unique component contents but O(n²) pairs.

2. **CLI warm vs cold cache.**  ``campion fleet --json`` is invoked
   in-process twice against a fresh ``--cache-dir``: the cold run
   parses every config and computes every diff, the warm run replays
   both from disk.  Stdout must be byte-identical (the ``--json`` view
   is deliberately timing-free) and the warm run is expected to finish
   in a small fraction of the cold wall time.

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_MEMO_FLEET`` (devices, default 12),
``CAMPION_BENCH_MEMO_RULES`` (rules per gateway, default 40).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_fleet_memo.py``.  With
``--write-configs DIR`` it instead materializes the fleet's config
files into DIR (for the CI fleet checks) and exits.
"""

import contextlib
import gc
import io
import os
import pathlib
import sys
import tempfile
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.cli import main as campion_main
from repro.core import compare_fleet, fleet_report_to_dict
from repro.workloads.datacenter import gateway_fleet

FLEET_SIZE = int(os.environ.get("CAMPION_BENCH_MEMO_FLEET", "12"))
FLEET_RULES = int(os.environ.get("CAMPION_BENCH_MEMO_RULES", "40"))
OUTLIERS = 2
SEED = 11

#: The speedup/warm-fraction bars only apply at full scale; smoke runs
#: with tiny workloads spend their time in fixed overheads.
FULL_SCALE = FLEET_SIZE >= 12 and FLEET_RULES >= 40


def _memo_microbench() -> dict:
    devices, expected_outliers = gateway_fleet(
        count=FLEET_SIZE, outliers=OUTLIERS, rule_count=FLEET_RULES, seed=SEED
    )
    result = {
        "devices": FLEET_SIZE,
        "rules_per_device": FLEET_RULES,
        "outliers_injected": OUTLIERS,
    }
    gc.collect()
    start = time.perf_counter()
    baseline = compare_fleet(devices, use_memo=False, compress="off")
    result["baseline_seconds"] = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    memoized = compare_fleet(devices, compress="off")
    result["memoized_seconds"] = time.perf_counter() - start
    result["speedup"] = result["baseline_seconds"] / result["memoized_seconds"]
    result["outliers"] = memoized.outliers
    result["identical_reports"] = fleet_report_to_dict(
        baseline
    ) == fleet_report_to_dict(memoized)
    assert result["identical_reports"], "memoized fleet report diverged"
    assert set(memoized.outliers) == set(expected_outliers)
    return result


def _run_cli(argv, cwd_configs) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = campion_main(argv)
    elapsed = time.perf_counter() - start
    return code, stdout.getvalue(), stderr.getvalue(), elapsed


def write_fleet_configs(directory: pathlib.Path, count=None, rules=None,
                        outliers=None, seed=SEED) -> list:
    """Materialize the benchmark fleet as config files; returns paths."""
    devices, _ = gateway_fleet(
        count=count or FLEET_SIZE,
        outliers=OUTLIERS if outliers is None else outliers,
        rule_count=rules or FLEET_RULES,
        seed=seed,
    )
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for device in devices:
        path = directory / f"{device.hostname}.cfg"
        path.write_text("\n".join(device.raw_lines) + "\n")
        paths.append(str(path))
    return paths


def _cache_microbench() -> dict:
    with tempfile.TemporaryDirectory(prefix="campion-bench-") as workdir:
        workdir = pathlib.Path(workdir)
        paths = write_fleet_configs(workdir / "configs")
        cache_dir = str(workdir / "cache")
        argv = ["--cache-dir", cache_dir, "fleet", "--json"] + paths
        cold_code, cold_out, cold_err, cold_s = _run_cli(argv, workdir)
        # Warm wall times are tens of milliseconds; take the best of a
        # few repeats so scheduler noise doesn't swamp the measurement.
        warm_s = float("inf")
        for _ in range(3):
            warm_code, warm_out, warm_err, elapsed = _run_cli(argv, workdir)
            assert cold_code == warm_code, (cold_code, warm_code)
            assert cold_out == warm_out, "warm fleet --json diverged from cold"
            warm_s = min(warm_s, elapsed)
    assert "hits=0" in cold_err.splitlines()[-1], cold_err
    result = {
        "devices": FLEET_SIZE,
        "rules_per_device": FLEET_RULES,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_fraction": warm_s / cold_s,
        "stdout_identical": cold_out == warm_out,
        "cold_cache_line": cold_err.strip().splitlines()[-1],
        "warm_cache_line": warm_err.strip().splitlines()[-1],
    }
    return result


def _run_all() -> dict:
    perf.reset()
    payload = {
        "fleet_memoization": _memo_microbench(),
        "cli_cache": _cache_microbench(),
        "perf": perf.snapshot(),
    }
    return payload


def _write(payload: dict) -> pathlib.Path:
    return write_artifact(
        "BENCH_fleet_memo.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    memo = payload["fleet_memoization"]
    cache = payload["cli_cache"]
    lines = [
        "Fingerprint memoization and the persistent artifact cache",
        "",
        f"Fleet of {memo['devices']} gateways ({memo['rules_per_device']} rules each):",
        f"  recompute every pair  {memo['baseline_seconds']:.2f}s",
        f"  fingerprint memo      {memo['memoized_seconds']:.2f}s"
        f"  ({memo['speedup']:.2f}x, identical reports: {memo['identical_reports']})",
        "",
        "campion fleet --json, fresh --cache-dir:",
        f"  cold cache  {cache['cold_seconds']:.2f}s   ({cache['cold_cache_line']})",
        f"  warm cache  {cache['warm_seconds']:.2f}s   ({cache['warm_cache_line']})",
        f"  warm/cold   {cache['warm_fraction']:.2f}"
        f"  (stdout identical: {cache['stdout_identical']})",
    ]
    return "\n".join(lines)


def test_fleet_memo(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_fleet_memo", _render(payload))

    assert payload["fleet_memoization"]["identical_reports"]
    assert payload["cli_cache"]["stdout_identical"]
    if FULL_SCALE:
        speedup = payload["fleet_memoization"]["speedup"]
        assert speedup >= 3.0, f"memoization only {speedup:.2f}x"
        fraction = payload["cli_cache"]["warm_fraction"]
        assert fraction < 0.25, f"warm cache run at {fraction:.2f} of cold"


if __name__ == "__main__":
    if "--write-configs" in sys.argv:
        flags = dict(
            zip(sys.argv[1::2], sys.argv[2::2])
        )  # --write-configs DIR [--devices N] [--rules R] [--outliers K]
        paths = write_fleet_configs(
            pathlib.Path(flags["--write-configs"]),
            count=int(flags.get("--devices", FLEET_SIZE)),
            rules=int(flags.get("--rules", FLEET_RULES)),
            outliers=(
                int(flags["--outliers"]) if "--outliers" in flags else None
            ),
        )
        print("\n".join(paths))
        sys.exit(0)
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
