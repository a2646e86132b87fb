"""HTTP API surface: submit/poll, health, errors, backpressure."""

import json
import time
import urllib.request

import pytest

from repro.service.app import ServiceConfig, ServiceThread

from .conftest import fleet_configs, http_json


def wait_for_job(url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = http_json(f"{url}/v1/jobs/{job_id}")
        assert status == 200
        if body["job"]["state"] in ("done", "failed", "dead-letter"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle within {timeout}s")


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        port=0,
        journal_path=tmp_path / "journal.jsonl",
        no_cache=True,
        job_concurrency=1,
        queue_limit=4,
    )
    with ServiceThread(config) as thread:
        yield thread


class TestSubmitAndPoll:
    def test_fleet_round_trip(self, service, small_fleet):
        configs, _, expected_outliers = small_fleet
        status, body = http_json(
            f"{service.url}/v1/fleet", {"configs": configs}
        )
        assert status == 202
        assert body["href"] == f"/v1/jobs/{body['job']['id']}"
        final = wait_for_job(service.url, body["job"]["id"])
        assert final["job"]["state"] == "done"
        report = final["result"]["report"]
        assert report["outliers"] == sorted(expected_outliers)

    def test_job_listing(self, service, small_fleet):
        configs, _, _ = small_fleet
        _, body = http_json(f"{service.url}/v1/fleet", {"configs": configs})
        wait_for_job(service.url, body["job"]["id"])
        status, listing = http_json(f"{service.url}/v1/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [body["job"]["id"]]

    def test_permanent_failure_surfaces_error(self, service):
        status, body = http_json(
            f"{service.url}/v1/fleet",
            {"configs": [{"text": "hostname a\n"}, {"text": "hostname a\n"}]},
        )
        assert status == 202
        final = wait_for_job(service.url, body["job"]["id"])
        assert final["job"]["state"] == "failed"
        assert final["job"]["error"]


    @pytest.mark.parametrize(
        "option,message",
        [
            ({"timeout": "nan"}, "must be positive"),
            ({"node_limit": 0}, "must be at least 2"),
        ],
    )
    def test_invalid_budget_fails_permanently(
        self, service, small_fleet, option, message
    ):
        configs, _, _ = small_fleet
        _, body = http_json(
            f"{service.url}/v1/fleet", {"configs": configs, **option}
        )
        final = wait_for_job(service.url, body["job"]["id"])
        assert final["job"]["state"] == "failed"
        assert final["job"]["attempts"] == 1  # permanent: never retried
        assert message in final["job"]["error"]

    def test_workers_key_is_ignored(self, service, small_fleet):
        configs, _, _ = small_fleet
        reports = []
        for extra in ({}, {"workers": 2}, {"workers": "two"}):
            _, body = http_json(
                f"{service.url}/v1/fleet", {"configs": configs, **extra}
            )
            final = wait_for_job(service.url, body["job"]["id"])
            assert final["job"]["state"] == "done"
            reports.append(final["result"]["report"])
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


class TestHealth:
    def test_healthz_reports_queue_and_workers(self, service):
        status, body = http_json(f"{service.url}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue"]["depth"] == 0
        assert body["workers"] == {"job_concurrency": 1}
        assert "counters" in body

    def test_no_pool_supervision_fields(self, service, small_fleet):
        """Nothing runs a worker pool, so neither a job result nor the
        health document carries pool, breaker or quarantine fields."""
        configs, _, _ = small_fleet
        _, body = http_json(f"{service.url}/v1/fleet", {"configs": configs})
        final = wait_for_job(service.url, body["job"]["id"])
        assert final["job"]["state"] == "done"
        assert "supervision" not in final["result"]
        _, health = http_json(f"{service.url}/healthz")
        assert health["workers"] == {"job_concurrency": 1}
        assert not [
            name
            for name in health["counters"]
            if name.startswith("service.breaker.")
            or name
            in (
                "service.jobs.degraded_serial",
                "service.jobs.quarantined_pairs",
                "parallel.worker_crashes",
                "parallel.pool_respawns",
            )
        ]

    def test_readyz_ready_when_idle(self, service):
        status, body = http_json(f"{service.url}/readyz")
        assert status == 200
        assert body["ready"] is True


class TestProtocolErrors:
    def test_unknown_path_404(self, service):
        status, _ = http_json(f"{service.url}/v1/nope")
        assert status == 404

    def test_unknown_job_404(self, service):
        status, _ = http_json(f"{service.url}/v1/jobs/ffffffffffff")
        assert status == 404

    def test_wrong_method_405(self, service):
        status, _ = http_json(f"{service.url}/healthz", {"x": 1})
        assert status == 405

    def test_malformed_json_400(self, service):
        request = urllib.request.Request(
            f"{service.url}/v1/fleet",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30):
                raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_configs_must_be_list_400(self, service):
        status, body = http_json(
            f"{service.url}/v1/fleet", {"configs": "nope"}
        )
        assert status == 400
        assert "configs" in body["error"]

    def test_oversize_body_413(self, tmp_path):
        config = ServiceConfig(
            port=0,
            journal_path=tmp_path / "journal.jsonl",
            no_cache=True,
            max_body=1024,
        )
        with ServiceThread(config) as thread:
            big = {"configs": [{"text": "x" * 4096}, {"text": "y"}]}
            status, _ = http_json(f"{thread.url}/v1/fleet", big)
            assert status == 413


class TestBackpressure:
    def test_queue_overflow_yields_429(self, tmp_path, small_fleet):
        configs, _, _ = small_fleet
        config = ServiceConfig(
            port=0,
            journal_path=tmp_path / "journal.jsonl",
            no_cache=True,
            job_concurrency=1,
            queue_limit=2,
            tenant_quota=1,
        )
        with ServiceThread(config) as thread:
            statuses = []
            for _ in range(6):
                status, body = http_json(
                    f"{thread.url}/v1/fleet", {"configs": configs}
                )
                statuses.append(status)
            assert 429 in statuses
            # accepted jobs still reach a terminal state
            _, listing = http_json(f"{thread.url}/v1/jobs")
            for job in listing["jobs"]:
                wait_for_job(thread.url, job["id"])

    def test_429_carries_retry_after(self, tmp_path, small_fleet):
        configs, _, _ = small_fleet
        config = ServiceConfig(
            port=0,
            journal_path=tmp_path / "journal.jsonl",
            no_cache=True,
            job_concurrency=1,
            queue_limit=1,
        )
        with ServiceThread(config) as thread:
            seen_429 = None
            for _ in range(4):
                request = urllib.request.Request(
                    f"{thread.url}/v1/fleet",
                    data=json.dumps({"configs": configs}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    urllib.request.urlopen(request, timeout=30).close()
                except urllib.error.HTTPError as error:
                    if error.code == 429:
                        seen_429 = error
                        break
            assert seen_429 is not None
            assert seen_429.headers.get("Retry-After")
