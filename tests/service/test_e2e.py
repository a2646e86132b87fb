"""End-to-end daemon lifecycle via ``campion serve`` subprocesses.

These are the same scenarios the CI ``test`` job drives:
graceful SIGTERM drain with exit code 0, and kill -9 crash recovery
over a shared journal.
"""

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from .conftest import fleet_configs, http_json
from .test_api import wait_for_job

REPO = pathlib.Path(__file__).resolve().parents[2]


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_daemon(tmp_path, port, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "--cache-dir",
        str(tmp_path / "cache"),
        "serve",
        "--port",
        str(port),
        "--journal",
        str(tmp_path / "journal.jsonl"),
        *extra,
    ]
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_ready(port, process, timeout=30.0):
    url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited early: {process.returncode}\n"
                f"{process.stderr.read()}"
            )
        try:
            status, _ = http_json(f"{url}/healthz", timeout=2.0)
            if status == 200:
                return url
        except OSError:
            pass
        time.sleep(0.1)
    raise AssertionError("daemon did not become ready")


def reap(process):
    if process.poll() is None:
        process.kill()
    process.communicate(timeout=30)


class TestGracefulShutdown:
    def test_sigterm_drains_in_flight_job_and_exits_zero(self, tmp_path):
        configs, _, _ = fleet_configs(count=6, outliers=1, rules=10, seed=5)
        port = free_port()
        process = spawn_daemon(tmp_path, port)
        try:
            url = wait_ready(port, process)
            status, body = http_json(f"{url}/v1/fleet", {"configs": configs})
            assert status == 202
            job_id = body["job"]["id"]
            # SIGTERM while the job is (most likely) still in flight
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            assert "drained and stopped" in err
            # the drained daemon journaled a terminal (or requeueable)
            # state: a fresh daemon over the same journal serves it
            port2 = free_port()
            revived = spawn_daemon(tmp_path, port2)
            try:
                url2 = wait_ready(port2, revived)
                final = wait_for_job(url2, job_id, timeout=120)
                assert final["job"]["state"] == "done"
            finally:
                reap(revived)
        finally:
            reap(process)


class TestCrashRecovery:
    def test_kill9_mid_job_recovers_on_restart(self, tmp_path):
        configs, _, expected_outliers = fleet_configs(
            count=8, outliers=2, rules=16, seed=9
        )
        port = free_port()
        process = spawn_daemon(tmp_path, port)
        try:
            url = wait_ready(port, process)
            status, body = http_json(f"{url}/v1/fleet", {"configs": configs})
            assert status == 202
            job_id = body["job"]["id"]
            # wait until the job has been claimed, then kill -9
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, doc = http_json(f"{url}/v1/jobs/{job_id}", timeout=5.0)
                if doc["job"]["state"] != "queued":
                    break
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
            process.communicate(timeout=30)
            assert process.returncode != 0

            port2 = free_port()
            revived = spawn_daemon(tmp_path, port2)
            try:
                url2 = wait_ready(port2, revived)
                _, health = http_json(f"{url2}/healthz")
                assert health["recovery"]["replayed"] >= 1
                final = wait_for_job(url2, job_id, timeout=180)
                assert final["job"]["state"] == "done"
                assert (
                    final["result"]["report"]["outliers"]
                    == sorted(expected_outliers)
                )
            finally:
                reap(revived)
        finally:
            reap(process)
