"""Parallel fleet comparison, serial vs workers — BENCH_kernels.json.

The 16-device datacenter gateway workload through ``compare_fleet``
with ``workers=1`` and ``workers=N``, asserting the reports serialize
identically.  The speedup scales with *physical cores* (the matrix
fan-out is CPU-bound); ``cpu_count`` is recorded so single-core CI
numbers read honestly.  This is the one timing of the worker pool.

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_FLEET`` (devices, default 16),
``CAMPION_BENCH_FLEET_RULES`` (rules per gateway, default 40) and
``CAMPION_BENCH_WORKERS`` (default 4).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_kernel_fastpaths.py``.
"""

import gc
import os
import pathlib
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, report_to_json
from repro.workloads.datacenter import gateway_fleet

FLEET_SIZE = int(os.environ.get("CAMPION_BENCH_FLEET", "16"))
FLEET_RULES = int(os.environ.get("CAMPION_BENCH_FLEET_RULES", "40"))
WORKERS = int(os.environ.get("CAMPION_BENCH_WORKERS", "4"))


def _fleet_microbench() -> dict:
    devices, expected_outliers = gateway_fleet(
        count=FLEET_SIZE, outliers=3, rule_count=FLEET_RULES, seed=3
    )
    result = {
        "devices": FLEET_SIZE,
        "rules_per_device": FLEET_RULES,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
    }
    gc.collect()
    start = time.perf_counter()
    serial = compare_fleet(devices, workers=1)
    result["serial_seconds"] = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    parallel = compare_fleet(devices, workers=WORKERS)
    result["parallel_seconds"] = time.perf_counter() - start
    result["speedup"] = result["serial_seconds"] / result["parallel_seconds"]
    result["outliers"] = parallel.outliers
    serial_json = {h: report_to_json(r) for h, r in serial.reports.items()}
    parallel_json = {h: report_to_json(r) for h, r in parallel.reports.items()}
    result["byte_identical"] = (
        serial_json == parallel_json
        and serial.matrix == parallel.matrix
        and serial.reference == parallel.reference
    )
    assert result["byte_identical"], "parallel fleet report diverged from serial"
    assert set(parallel.outliers) == set(expected_outliers)
    return result


def _run_all() -> dict:
    perf.reset()
    return {
        "fleet_comparison": _fleet_microbench(),
        "perf": perf.snapshot(),
    }


def _write(payload: dict) -> pathlib.Path:
    return write_artifact(
        "BENCH_kernels.json",
        payload,
        "full" if FLEET_SIZE >= 16 and FLEET_RULES >= 40 else "smoke",
    )


def _render(payload: dict) -> str:
    fleet = payload["fleet_comparison"]
    lines = [
        "Parallel fleet comparison, serial vs workers",
        "",
        f"Fleet of {fleet['devices']} gateways ({fleet['rules_per_device']} rules each),"
        f" {fleet['cpu_count']} CPU(s):",
        f"  serial        {fleet['serial_seconds']:.2f}s",
        f"  workers={fleet['workers']}     {fleet['parallel_seconds']:.2f}s"
        f"  ({fleet['speedup']:.2f}x, byte-identical: {fleet['byte_identical']})",
    ]
    return "\n".join(lines)


def test_kernel_fastpaths(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_kernels", _render(payload))

    assert payload["fleet_comparison"]["byte_identical"]


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
