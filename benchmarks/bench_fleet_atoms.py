"""Fleet-scale shared-atom universe — BENCH_fleet_atoms.json.

The cold-path fleet comparison on the default path against the per-pair
``use_memo=False`` atoms baseline.  The workload is adversarial for
memoization on purpose: every gateway is an outlier
(``outliers = count - 1``), so all ACL fingerprints are distinct and
the baseline genuinely pays the encode+refine cost for each of the
O(N²) pairings.  The default path folds the missing ACL pairs into one
shared atom universe up front (O(N) BDD work), seeds the diff memo with
bitwise-computed counts, and the matrix replays them with zero BDD
applies.  The ``bdd`` backend (per-pair, no seeding) is timed as a
second reference.

Every run uses a fresh in-process memo (no persistent cache), so all
timings are cold.  Serialized reports must be identical across all
three runs — the speedup is only meaningful if the answers are.

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_FLEET_ATOMS_DEVICES`` (default 16),
``CAMPION_BENCH_FLEET_ATOMS_RULES`` (rules per gateway, default 24).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_fleet_atoms.py``.
"""

import gc
import os
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict
from repro.workloads.datacenter import gateway_fleet

DEVICES = int(os.environ.get("CAMPION_BENCH_FLEET_ATOMS_DEVICES", "16"))
RULES = int(os.environ.get("CAMPION_BENCH_FLEET_ATOMS_RULES", "24"))
SEED = 13

#: The ≥5x bar only applies at full scale (a ≥12-device fleet); smoke
#: runs with tiny workloads spend their time in fixed overheads.
FULL_SCALE = DEVICES >= 12 and RULES >= 24

#: name -> compare_fleet options; "default" is the seeded path.
RUNS = {
    "atoms": {"use_memo": False},
    "bdd": {"use_memo": False, "set_backend": "bdd"},
    "default": {},
}


def _run_all() -> dict:
    devices, _ = gateway_fleet(
        count=DEVICES, outliers=DEVICES - 1, rule_count=RULES, seed=SEED
    )
    result = {
        "devices": DEVICES,
        "rules_per_device": RULES,
        "distinct_fingerprints": len(
            {d.fingerprints.acls[name] for d in devices for name in d.acls}
        ),
    }
    perf.reset()
    reports = {}
    for name, options in RUNS.items():
        gc.collect()
        start = time.perf_counter()
        report = compare_fleet(devices, **options)
        result[f"{name}_seconds"] = time.perf_counter() - start
        reports[name] = fleet_report_to_dict(report)
    result["speedup_vs_atoms"] = (
        result["atoms_seconds"] / result["default_seconds"]
    )
    result["speedup_vs_bdd"] = result["bdd_seconds"] / result["default_seconds"]
    result["identical_reports"] = (
        reports["default"] == reports["atoms"]
        and reports["default"] == reports["bdd"]
    )
    assert result["identical_reports"], "seeded default report diverged"
    counters = perf.REGISTRY.counters
    result["universe_atoms"] = counters.get("fleet_atoms.atoms", 0)
    result["pairs_seeded"] = counters.get("memo.seeds", 0)
    result["budget_fallbacks"] = counters.get("fleet_atoms.budget_fallbacks", 0)
    return result


def _write(payload: dict):
    return write_artifact(
        "BENCH_fleet_atoms.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    lines = [
        "Fleet comparison, cold path, all-distinct ACL fingerprints",
        "",
        f"Fleet of {payload['devices']} gateways, {payload['rules_per_device']}"
        f" rules each, {payload['distinct_fingerprints']} distinct ACLs:",
        f"  atoms (per-pair)   {payload['atoms_seconds']:.2f}s",
        f"  bdd (per-pair)     {payload['bdd_seconds']:.2f}s",
        f"  default (seeded)   {payload['default_seconds']:.2f}s",
        f"  speedup vs atoms   {payload['speedup_vs_atoms']:.2f}x",
        f"  speedup vs bdd     {payload['speedup_vs_bdd']:.2f}x",
        f"  identical reports  {payload['identical_reports']}",
        f"  universe atoms     {payload['universe_atoms']}"
        f"  (seeded {payload['pairs_seeded']} pair entries,"
        f" {payload['budget_fallbacks']} budget fallbacks)",
    ]
    return "\n".join(lines)


def test_fleet_atoms(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_fleet_atoms", _render(payload))

    assert payload["identical_reports"]
    assert payload["budget_fallbacks"] == 0
    if FULL_SCALE:
        speedup = payload["speedup_vs_atoms"]
        assert speedup >= 5.0, f"seeded default only {speedup:.2f}x vs atoms"


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
