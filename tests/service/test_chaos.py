"""Chaos acceptance: the daemon survives corrupt cache entries,
malformed pushes, and queue overflow; jobs always reach a terminal
state; a warm re-push after restart reuses cached analysis.
"""

from repro.service.app import ServiceConfig, ServiceThread

from .conftest import fleet_configs, http_json
from .test_api import wait_for_job


def service_config(tmp_path, **overrides):
    options = dict(
        port=0,
        journal_path=tmp_path / "journal.jsonl",
        cache_dir=str(tmp_path / "cache"),
        job_concurrency=1,
        queue_limit=8,
    )
    options.update(overrides)
    return ServiceConfig(**options)


class TestChaosGauntlet:
    def test_daemon_survives_the_gauntlet(self, tmp_path):
        """Malformed push, queue overflow and a corrupt cache entry,
        one after another — the daemon keeps serving and every accepted
        job reaches a terminal state."""
        configs, devices, expected_outliers = fleet_configs()
        config = service_config(tmp_path, queue_limit=2)
        with ServiceThread(config) as thread:
            # 1. malformed pushes: protocol errors are rejected at the
            # door; payload errors are accepted and fail permanently
            status, _ = http_json(f"{thread.url}/v1/fleet", {"configs": "x"})
            assert status == 400
            status, body = http_json(
                f"{thread.url}/v1/fleet", {"configs": [{"text": "a"}]}
            )
            assert status == 202
            final = wait_for_job(thread.url, body["job"]["id"], timeout=60)
            assert final["job"]["state"] == "failed"

            # 2. overflow: keep pushing until the queue says 429
            status, body = http_json(
                f"{thread.url}/v1/fleet", {"configs": configs}
            )
            assert status == 202
            first_id = body["job"]["id"]
            saw_429 = False
            for _ in range(8):
                status, _ = http_json(
                    f"{thread.url}/v1/fleet", {"configs": configs}
                )
                if status == 429:
                    saw_429 = True
                    break
            assert saw_429

            final = wait_for_job(thread.url, first_id, timeout=120)
            assert final["job"]["state"] == "done"
            assert (
                final["result"]["report"]["outliers"]
                == sorted(expected_outliers)
            )

            # 3. corrupt a cached artifact, then push again
            cache_root = tmp_path / "cache"
            corrupted = 0
            for path in cache_root.rglob("*"):
                if path.is_file() and path.suffix in (".pickle", ".json"):
                    path.write_bytes(b"\x00garbage\x00")
                    corrupted += 1
            assert corrupted > 0

            # drain whatever the overflow loop admitted first
            _, listing = http_json(f"{thread.url}/v1/jobs")
            for job in listing["jobs"]:
                wait_for_job(thread.url, job["id"], timeout=120)

            status, body = http_json(
                f"{thread.url}/v1/fleet", {"configs": configs}
            )
            assert status == 202
            final = wait_for_job(thread.url, body["job"]["id"], timeout=120)
            assert final["job"]["state"] == "done"
            assert (
                final["result"]["report"]["outliers"]
                == sorted(expected_outliers)
            )

            # 4. the daemon is still healthy and every job is terminal
            status, health = http_json(f"{thread.url}/healthz")
            assert status == 200
            assert health["queue"]["depth"] == 0
            _, listing = http_json(f"{thread.url}/v1/jobs")
            terminal = {"done", "failed", "dead-letter"}
            assert all(job["state"] in terminal for job in listing["jobs"])


class TestWarmRestart:
    def test_warm_repush_reuses_cached_analysis(self, tmp_path):
        """After a restart over the same journal + cache, an identical
        push re-parses nothing and re-diffs nothing; changing one
        device re-analyzes only that device's pairs."""
        configs, devices, _ = fleet_configs(count=5, outliers=1, seed=11)
        config = service_config(tmp_path)

        with ServiceThread(config) as thread:
            _, body = http_json(f"{thread.url}/v1/fleet", {"configs": configs})
            cold = wait_for_job(thread.url, body["job"]["id"], timeout=120)
        assert cold["job"]["state"] == "done"
        cold_cache = cold["result"]["cache"]
        assert cold_cache["memo_misses"] > 0

        # restart: fresh ServiceThread over the same journal and cache
        with ServiceThread(service_config(tmp_path)) as thread:
            recovery_counts = http_json(f"{thread.url}/healthz")[1]["recovery"]
            assert recovery_counts["replayed"] >= 1

            _, body = http_json(f"{thread.url}/v1/fleet", {"configs": configs})
            warm = wait_for_job(thread.url, body["job"]["id"], timeout=120)
            assert warm["job"]["state"] == "done"
            warm_cache = warm["result"]["cache"]
            # identical push: every device parse and every diff is served
            # from the persistent cache
            assert warm_cache["device_hits"] == len(configs)
            assert warm_cache["memo_misses"] == 0
            assert warm["result"]["report"] == cold["result"]["report"]

            # change one non-reference device: only its pairs recompute
            reference = cold["result"]["report"]["reference"]
            changed = [dict(entry) for entry in configs]
            victim = next(
                index
                for index, entry in enumerate(changed)
                if not entry["name"].startswith(reference)
            )
            changed[victim]["text"] += "ip route 10.99.0.0 255.255.255.0 Null0\n"
            _, body = http_json(f"{thread.url}/v1/fleet", {"configs": changed})
            partial = wait_for_job(thread.url, body["job"]["id"], timeout=120)
            assert partial["job"]["state"] == "done"
            partial_cache = partial["result"]["cache"]
            assert partial_cache["device_hits"] == len(configs) - 1
            assert 0 < partial_cache["memo_misses"] < cold_cache["memo_misses"]
            assert partial["result"]["report"] != cold["result"]["report"]
