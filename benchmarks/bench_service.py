"""Analysis-service round-trip latency — BENCH_service.json.

Pushes the templated gateway fleet through a live ``ServiceThread``
(the same supervised job engine behind ``campion serve``) twice over
one persistent cache directory:

* the **cold** push parses every config and computes every diff;
* the **warm** push replays parses and diffs from the content-addressed
  cache, so its wall time is dominated by the HTTP+queue round-trip.

The tracked ratio is ``warm_push.speedup`` (cold over warm, measured
in the same process), which is what makes the committed baseline
meaningful on CI runners with different absolute speeds.  Correctness
rides along: the cold report must be byte-identical to an in-process
``compare_fleet`` over the same devices, and the warm push must serve
every device parse from the cache with zero memo misses.

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_SERVICE_FLEET`` (devices, default 8) and
``CAMPION_BENCH_SERVICE_RULES`` (rules per gateway, default 16).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_service.py``.
"""

import gc
import json
import os
import pathlib
import tempfile
import time
import urllib.request

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict
from repro.service.app import ServiceConfig, ServiceThread
from repro.workloads.datacenter import gateway_fleet

FLEET_SIZE = int(os.environ.get("CAMPION_BENCH_SERVICE_FLEET", "8"))
FLEET_RULES = int(os.environ.get("CAMPION_BENCH_SERVICE_RULES", "16"))
OUTLIERS = 2
SEED = 11

#: Speedup bars only apply at full scale; smoke runs spend their time
#: in fixed overheads (HTTP round-trip, journal fsyncs).
FULL_SCALE = FLEET_SIZE >= 8 and FLEET_RULES >= 16


def _http_json(url, body=None, timeout=60.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _push_and_wait(url, configs):
    """One fleet push, submit to terminal state; returns (doc, seconds)."""
    gc.collect()
    start = time.perf_counter()
    body = _http_json(f"{url}/v1/fleet", {"configs": configs})
    job_id = body["job"]["id"]
    while True:
        doc = _http_json(f"{url}/v1/jobs/{job_id}")
        if doc["job"]["state"] in ("done", "failed", "dead-letter"):
            elapsed = time.perf_counter() - start
            assert doc["job"]["state"] == "done", doc["job"]
            return doc, elapsed
        time.sleep(0.01)


def _run_all() -> dict:
    perf.reset()
    devices, expected_outliers = gateway_fleet(
        count=FLEET_SIZE, outliers=OUTLIERS, rule_count=FLEET_RULES, seed=SEED
    )
    configs = [
        {
            "name": f"{device.hostname}.cfg",
            "text": "\n".join(device.raw_lines) + "\n",
        }
        for device in devices
    ]
    expected = fleet_report_to_dict(compare_fleet(devices))

    with tempfile.TemporaryDirectory(prefix="campion-bench-svc-") as workdir:
        workdir = pathlib.Path(workdir)
        config = ServiceConfig(
            port=0,
            journal_path=workdir / "journal.jsonl",
            cache_dir=str(workdir / "cache"),
            job_concurrency=1,
        )
        with ServiceThread(config) as thread:
            cold_doc, cold_s = _push_and_wait(thread.url, configs)
            # Warm wall times are tens of milliseconds; take the best of
            # a few repeats so scheduler noise doesn't swamp the ratio.
            warm_s = float("inf")
            for _ in range(3):
                warm_doc, elapsed = _push_and_wait(thread.url, configs)
                warm_s = min(warm_s, elapsed)

    cold_report = json.dumps(cold_doc["result"]["report"], sort_keys=True)
    identical = cold_report == json.dumps(expected, sort_keys=True)
    assert identical, "service report diverged from in-process compare_fleet"
    warm_cache = warm_doc["result"]["cache"]
    assert warm_cache["device_hits"] == len(configs), warm_cache
    assert warm_cache["memo_misses"] == 0, warm_cache
    assert set(cold_doc["result"]["report"]["outliers"]) == set(
        expected_outliers
    )

    return {
        "service_fleet": {
            "devices": FLEET_SIZE,
            "rules_per_device": FLEET_RULES,
            "outliers_injected": OUTLIERS,
            "identical_to_in_process": identical,
            "outliers": cold_doc["result"]["report"]["outliers"],
        },
        "warm_push": {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s,
            "warm_device_hits": warm_cache["device_hits"],
            "warm_memo_misses": warm_cache["memo_misses"],
        },
        "perf": perf.snapshot(),
    }


def _write(payload: dict) -> pathlib.Path:
    return write_artifact(
        "BENCH_service.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    fleet = payload["service_fleet"]
    warm = payload["warm_push"]
    return "\n".join(
        [
            "Always-on analysis service: fleet push round-trip",
            "",
            f"Fleet of {fleet['devices']} gateways"
            f" ({fleet['rules_per_device']} rules each) over HTTP:",
            f"  cold push  {warm['cold_seconds']:.2f}s",
            f"  warm push  {warm['warm_seconds']:.2f}s"
            f"  ({warm['speedup']:.2f}x,"
            f" device hits {warm['warm_device_hits']},"
            f" memo misses {warm['warm_memo_misses']})",
            f"  report identical to in-process compare_fleet:"
            f" {fleet['identical_to_in_process']}",
        ]
    )


def test_service(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_service", _render(payload))

    assert payload["service_fleet"]["identical_to_in_process"]
    assert payload["warm_push"]["warm_memo_misses"] == 0
    if FULL_SCALE:
        speedup = payload["warm_push"]["speedup"]
        assert speedup >= 2.0, f"warm push only {speedup:.2f}x"


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
