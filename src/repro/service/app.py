"""The analysis daemon: lifecycle, admission control, job runners.

:class:`AnalysisService` wires the journal-backed queue, the
supervisor, and the HTTP front end into one ``asyncio`` process:

* **Startup** replays the journal (:meth:`JobQueue.recover`) — jobs
  the previous daemon died holding are re-queued or dead-lettered —
  then binds the API socket and starts ``job_concurrency`` runner
  coroutines.
* **Runners** claim queued jobs (per-tenant quotas + backoff gates
  enforced by the queue) and execute them on a thread pool via
  :meth:`Supervisor.run_job`, each tenant against its own cache
  namespace.  Blocking analysis never runs on the event loop.
* **Admission** is bounded: a full queue answers 429 with
  ``Retry-After``; ``/readyz`` flips to 503 the moment a new job
  would be refused, while ``/healthz`` stays 200 for liveness even
  when degraded.
* **Shutdown** (SIGTERM/SIGINT, or :meth:`request_shutdown`) drains:
  new work is refused (503), running jobs get ``drain_grace`` seconds
  to finish, the journal is compacted, and the process exits 0.  A job
  still running when the grace expires stays ``running`` in the
  journal and is recovered by the next daemon.

:class:`ServiceThread` hosts the same service on a background thread
with an ephemeral port — the harness used by the test suite, the
oracle's ``service`` generator, and ``bench_service.py``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import pathlib
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from .. import perf
from ..cache import ArtifactCache, resolve_cache_dir
from .api import HttpServer, JsonResponse
from .journal import Journal
from .queue import JobQueue, QueueFull
from .supervisor import JobError, Supervisor

__all__ = ["ServiceConfig", "AnalysisService", "ServiceThread"]

JOURNAL_ENV = "CAMPION_JOURNAL"


def default_journal_path() -> pathlib.Path:
    """``$CAMPION_JOURNAL`` or ``<cache root>/service/journal.jsonl``."""
    env = os.environ.get(JOURNAL_ENV, "").strip()
    if env:
        return pathlib.Path(env)
    return resolve_cache_dir() / "service" / "journal.jsonl"


@dataclass
class ServiceConfig:
    """Everything the daemon needs, resolved before startup."""

    host: str = "127.0.0.1"
    port: int = 8642
    journal_path: Optional[os.PathLike] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    queue_limit: int = 64
    max_attempts: int = 3
    tenant_quota: int = 1
    job_concurrency: int = 2
    timeout: Optional[float] = None
    node_limit: Optional[int] = None
    drain_grace: float = 30.0
    max_body: int = 8 * 1024 * 1024


class AnalysisService:
    """One daemon process: queue + supervisor + HTTP API + lifecycle."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        journal_path = self.config.journal_path or default_journal_path()
        self.journal = Journal(journal_path)
        self.queue = JobQueue(
            self.journal,
            limit=self.config.queue_limit,
            max_attempts=self.config.max_attempts,
            tenant_quota=self.config.tenant_quota,
        )
        self.cache: Optional[ArtifactCache] = (
            None
            if self.config.no_cache
            else ArtifactCache(resolve_cache_dir(self.config.cache_dir))
        )
        self.supervisor = Supervisor(
            cache=self.cache,
            timeout=self.config.timeout,
            node_limit=self.config.node_limit,
        )
        self.http = HttpServer(
            self._handle,
            host=self.config.host,
            port=self.config.port,
            max_body=self.config.max_body,
        )
        self.started = threading.Event()
        self.recovery: Dict[str, int] = {}
        self._started_at = time.time()
        self._draining = False
        self._stop: Optional[asyncio.Event] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.job_concurrency,
            thread_name_prefix="campion-job",
        )

    # -- lifecycle -----------------------------------------------------------
    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, thread-safe via loop)."""
        if self._stop is not None:
            self._stop.set()

    async def serve(self) -> None:
        """Run until a shutdown is requested, then drain and exit."""
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.recovery = self.queue.recover()
        if self.recovery.get("requeued") or self.recovery.get(
            "dead_lettered"
        ):
            print(
                "campion serve: recovered journal:"
                f" {self.recovery['requeued']} job(s) re-queued,"
                f" {self.recovery['dead_lettered']} dead-lettered",
                file=sys.stderr,
            )
        await self.http.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread (ServiceThread) or odd platform
        runners = [
            asyncio.create_task(self._runner())
            for _ in range(self.config.job_concurrency)
        ]
        self.started.set()
        try:
            await self._stop.wait()
        finally:
            self._draining = True
            _, still_running = await asyncio.wait(
                runners, timeout=self.config.drain_grace
            )
            for task in still_running:
                # Grace expired mid-analysis: abandon the thread; the
                # job stays `running` in the journal and the next
                # daemon's recovery re-queues or dead-letters it.
                task.cancel()
            await asyncio.gather(*runners, return_exceptions=True)
            self.queue.compact()
            await self.http.stop()
            self._executor.shutdown(wait=False)

    async def _runner(self) -> None:
        """One claim-execute-settle loop; several run concurrently."""
        loop = asyncio.get_running_loop()
        while not self._stop.is_set():
            job = self.queue.claim()
            if job is None:
                gate = self.queue.next_wakeup()
                delay = 0.05 if gate is None else min(max(gate, 0.01), 0.5)
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                continue
            tenant_cache = (
                self.cache.namespace(job.tenant)
                if self.cache is not None
                else None
            )
            try:
                result = await loop.run_in_executor(
                    self._executor,
                    self.supervisor.run_job,
                    job.payload,
                    tenant_cache,
                )
            except JobError as exc:
                self.queue.fail(job, str(exc), permanent=exc.permanent)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - runner must survive
                self.queue.fail(
                    job,
                    f"internal error ({type(exc).__name__}: {exc})",
                    permanent=False,
                )
            else:
                self.queue.complete(job, result)

    # -- HTTP ----------------------------------------------------------------
    async def _handle(
        self, method: str, path: str, body: Optional[Dict]
    ) -> JsonResponse:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self._health(), {}
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            depth = self.queue.depth()
            ready = not self._draining and depth < self.config.queue_limit
            return (
                (200 if ready else 503),
                {
                    "ready": ready,
                    "draining": self._draining,
                    "queue_depth": depth,
                    "queue_limit": self.config.queue_limit,
                },
                {},
            )
        if path == "/v1/fleet":
            if method != "POST":
                return 405, {"error": "use POST"}, {}
            return self._submit(body)
        if path == "/v1/jobs":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return (
                200,
                {"jobs": [job.summary() for job in self.queue.jobs()]},
                {},
            )
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            job = self.queue.get(path[len("/v1/jobs/") :])
            if job is None:
                return 404, {"error": "no such job"}, {}
            document: Dict = {"job": job.summary()}
            if job.result is not None:
                document["result"] = job.result
            return 200, document, {}
        return 404, {"error": f"no route for {path}"}, {}

    def _submit(self, body: Optional[Dict]) -> JsonResponse:
        if self._draining:
            return 503, {"error": "draining; not accepting new jobs"}, {}
        if body is None or not isinstance(body.get("configs"), list):
            return (
                400,
                {
                    "error": "body must be a JSON object with a"
                    " 'configs' list of {name, text} objects"
                },
                {},
            )
        tenant = str(body.get("tenant") or "default")
        try:
            job = self.queue.submit(payload=body, tenant=tenant)
        except QueueFull as exc:
            return 429, {"error": str(exc)}, {"Retry-After": "1"}
        return (
            202,
            {"job": job.summary(), "href": f"/v1/jobs/{job.id}"},
            {},
        )

    def _health(self) -> Dict:
        counters = dict(perf.REGISTRY.counters)
        device_reads = counters.get("cache.device.hits", 0) + counters.get(
            "cache.device.misses", 0
        )
        diff_reads = counters.get("cache.diff.hits", 0) + counters.get(
            "cache.diff.misses", 0
        )
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "queue": {
                "depth": self.queue.depth(),
                "limit": self.config.queue_limit,
                "states": self.queue.counts(),
            },
            "workers": {"job_concurrency": self.config.job_concurrency},
            "cache": {
                "enabled": self.cache is not None,
                "root": str(self.cache.root) if self.cache else None,
                "device_hit_rate": (
                    counters.get("cache.device.hits", 0) / device_reads
                    if device_reads
                    else None
                ),
                "diff_hit_rate": (
                    counters.get("cache.diff.hits", 0) / diff_reads
                    if diff_reads
                    else None
                ),
            },
            "recovery": self.recovery,
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith(
                    ("service.", "parallel.", "cache.", "memo.")
                )
            },
        }


class ServiceThread:
    """Host an :class:`AnalysisService` on a background thread.

    The harness for in-process integration: tests, the oracle's
    ``service`` selfcheck generator, and the service benchmark all
    talk HTTP to a daemon running on an ephemeral port in the same
    process.  Usable as a context manager.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        config = config or ServiceConfig(port=0)
        self.service = AnalysisService(config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> "ServiceThread":
        """Run the daemon on a background thread; wait until ready."""
        self._thread = threading.Thread(
            target=self._run, name="campion-serve", daemon=True
        )
        self._thread.start()
        if not self.service.started.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.serve())
        finally:
            asyncio.set_event_loop(None)
            self._loop.close()

    @property
    def port(self) -> int:
        """The bound TCP port (resolved, even when configured as 0)."""
        return self.service.http.port

    @property
    def url(self) -> str:
        """Base URL of the running daemon."""
        return f"http://{self.service.config.host}:{self.port}"

    def stop(self, timeout: float = 60.0) -> None:
        """Request a graceful drain and join the daemon thread."""
        if self._loop is not None and self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.service.request_shutdown
                )
            except RuntimeError:  # loop already closed
                pass
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
