"""Fleet symmetry compression — BENCH_near_symmetry.json.

The matrix phase of ``compare_fleet`` with compression ``off`` and at
its default (``near``), on two fleets:

* the *templated* Clos fleet: a few role templates stamped onto many
  hostnames, so the device-fingerprint classes (near planning's first
  step) already collapse the fleet to one class per role;
* the *parameterized* Clos fleet: every device carries unique
  loopbacks, interface subnets, and BGP neighbors, so no two devices
  are byte-identical and fingerprint classes find nothing.  Near
  planning abstracts the rewritable literals into template holes,
  partitions by template fingerprint, and analyzes one pair per
  joint-equality signature — O(R^2) pairs on an R-role fleet regardless
  of N, with every other pair's outcome replayed.

Uncompressed, the matrix runs all N(N-1)/2 pairs.  All runs are
serial, cold, and memo-free (``use_memo=False`` keeps the per-pair diff
cost honest — with the memo on, repeated component diffs already replay
as arithmetic and the gap narrows to the per-pair walk).  The guarded
ratios are ``matrix_speedup`` (parameterized fleet, off matrix seconds
/ near matrix seconds, with a >=5x assertion) and
``templated.matrix_speedup``.  Both fleets' serialized reports must be
identical across the two modes — the speedup is only meaningful if the
answers are (the oracle's ``symmetry`` and ``near-symmetry`` generators
check the same identity on shrunken counterexamples).

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_NEARSYM_DEVICES`` (default 32),
``CAMPION_BENCH_NEARSYM_ROLES`` (default 3),
``CAMPION_BENCH_NEARSYM_RULES`` (rules per role ACL, default 24),
``CAMPION_BENCH_NEARSYM_UPLINKS`` (interfaces/neighbors per
parameterized device, default 2).  The templated fleet is all-Cisco,
matching the single-vendor fleets the paper measures.

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_near_symmetry.py``.
"""

import gc
import os
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict
from repro.workloads.datacenter import (
    parameterized_clos_fleet,
    templated_clos_fleet,
)

DEVICES = int(os.environ.get("CAMPION_BENCH_NEARSYM_DEVICES", "32"))
ROLES = int(os.environ.get("CAMPION_BENCH_NEARSYM_ROLES", "3"))
RULES = int(os.environ.get("CAMPION_BENCH_NEARSYM_RULES", "24"))
UPLINKS = int(os.environ.get("CAMPION_BENCH_NEARSYM_UPLINKS", "2"))

#: Scale gate for the artifact's ``workload_scale`` stamp.  The >=5x
#: bar holds at smoke scale too: the uncompressed matrix grows with N^2
#: while near stays O(roles^2), so even a 12-device smoke fleet clears
#: it with margin.
FULL_SCALE = DEVICES >= 32 and RULES >= 24


def _matrix_seconds() -> float:
    timers = perf.REGISTRY.snapshot()["timers"]
    return timers.get("fleet.matrix", {}).get("total_s", 0.0)


def _run_fleet(devices) -> dict:
    """Off and near on one fleet: timings, plan size, report identity."""
    result = {}
    reports = {}
    for compress in ("off", "near"):
        gc.collect()
        perf.reset()
        start = time.perf_counter()
        report = compare_fleet(devices, use_memo=False, compress=compress)
        result[f"{compress}_seconds"] = time.perf_counter() - start
        result[f"{compress}_matrix_seconds"] = _matrix_seconds()
        reports[compress] = fleet_report_to_dict(report)
    stats = report.symmetry
    result["classes"] = stats.classes
    result["analyzed_pairs"] = stats.analyzed_pairs
    result["matrix_pairs"] = stats.total_pairs
    result["fallback_pairs"] = stats.fallback_pairs
    result["matrix_speedup"] = (
        result["off_matrix_seconds"] / result["near_matrix_seconds"]
    )
    result["total_speedup"] = result["off_seconds"] / result["near_seconds"]
    result["identical_reports"] = reports["near"] == reports["off"]
    assert result["identical_reports"], "compressed report diverged"
    return result


def _run_all() -> dict:
    templated, _ = templated_clos_fleet(
        count=DEVICES, roles=ROLES, rule_count=RULES, seed=21, vendors=1
    )
    parameterized, _ = parameterized_clos_fleet(
        count=DEVICES, roles=ROLES, rule_count=RULES, seed=33, uplinks=UPLINKS
    )
    result = {
        "devices": DEVICES,
        "roles": ROLES,
        "rules_per_role": RULES,
        "uplinks": UPLINKS,
        "templated": _run_fleet(templated),
        "parameterized": _run_fleet(parameterized),
    }
    result["matrix_speedup"] = result["parameterized"]["matrix_speedup"]
    result["identical_reports"] = (
        result["templated"]["identical_reports"]
        and result["parameterized"]["identical_reports"]
    )
    return result


def _write(payload: dict):
    return write_artifact(
        "BENCH_near_symmetry.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    lines = [
        "Fleet matrix with symmetry compression (off vs near,"
        " use_memo=False)",
        "",
        f"{payload['devices']} devices, {payload['roles']} roles,"
        f" {payload['rules_per_role']} rules/role,"
        f" {payload['uplinks']} parameterized uplinks",
    ]
    for name, label in (
        ("templated", "Templated Clos (clones per role)"),
        ("parameterized", "Parameterized Clos (unique loopbacks/subnets/peers)"),
    ):
        fleet = payload[name]
        lines += [
            f"{label}:",
            f"  template classes           {fleet['classes']}"
            f" (analyzed {fleet['analyzed_pairs']} of"
            f" {fleet['matrix_pairs']} pairs,"
            f" {fleet['fallback_pairs']} fallback)",
            f"  off matrix                 {fleet['off_matrix_seconds']:.2f}s",
            f"  near matrix                {fleet['near_matrix_seconds']:.2f}s",
            f"  matrix speedup             {fleet['matrix_speedup']:.2f}x",
            f"  total speedup              {fleet['total_speedup']:.2f}x",
        ]
    lines.append(f"identical reports (both fleets)  {payload['identical_reports']}")
    return "\n".join(lines)


def test_near_symmetry(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_near_symmetry", _render(payload))

    assert payload["identical_reports"]
    for name in ("templated", "parameterized"):
        fleet = payload[name]
        assert fleet["fallback_pairs"] == 0
        assert fleet["analyzed_pairs"] < fleet["matrix_pairs"]
        speedup = fleet["matrix_speedup"]
        assert speedup >= 5.0, (
            f"{name}: compression only {speedup:.2f}x over off on the matrix"
        )


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
