"""Durable job queue: journaled transitions, retries, dead-lettering.

Job lifecycle::

            submit            claim              complete
    (new) ────────► queued ────────► running ─────────────► done
                      ▲                │ fail(transient)
                      │   attempts <   │
                      └── max_attempts ┤ (backoff delay)
                                       │ attempts == max_attempts
                                       ├─────────────────► dead-letter
                                       │ fail(permanent)
                                       └─────────────────► failed

Every transition is journaled *before* it takes effect in memory, so a
``kill -9`` at any point leaves the journal describing a job that is
either in its previous state or its next one — never lost.  On restart
:meth:`JobQueue.recover` folds the journal: jobs found ``running``
(the daemon died mid-analysis) are re-queued with their attempt count
intact, or dead-lettered if the crash burned their last attempt.

Retries use jittered exponential backoff (``not_before`` gate on
claim).  Transient failures (internal errors) retry; permanent
failures (malformed payloads, duplicate hostnames — errors a retry
cannot fix) go straight to ``failed``.

Admission control: the queue is bounded (``limit``) over non-terminal
jobs; :meth:`submit` raises :class:`QueueFull` so the HTTP layer can
answer 429.  All methods are thread-safe — the asyncio loop claims and
settles while analysis runs in executor threads.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import perf
from .journal import Journal

__all__ = [
    "Job",
    "JobQueue",
    "QueueFull",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "DEAD_LETTER",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
DEAD_LETTER = "dead-letter"

TERMINAL_STATES = frozenset({DONE, FAILED, DEAD_LETTER})

#: Backoff schedule: base * 2^(attempts-1), jittered, capped.
_BACKOFF_BASE = 0.25
_BACKOFF_CAP = 30.0

#: Terminal jobs kept in memory/journal after compaction (newest win).
_TERMINAL_KEEP = 256


class QueueFull(Exception):
    """The bounded queue refused a new job (HTTP 429 upstream)."""


@dataclass
class Job:
    """One analysis request and its full lifecycle state."""

    id: str
    tenant: str
    payload: Dict
    state: str = QUEUED
    attempts: int = 0
    max_attempts: int = 3
    error: Optional[str] = None
    result: Optional[Dict] = None
    not_before: float = 0.0
    seq: int = 0

    def to_record(self) -> Dict:
        """The journal record for the job's current state."""
        return {
            "type": "job",
            "id": self.id,
            "tenant": self.tenant,
            "payload": self.payload,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "result": self.result,
            "seq": self.seq,
        }

    def summary(self) -> Dict:
        """The wire-format job view (results fetched separately)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: Dict) -> Optional["Job"]:
        """Rebuild a job from a journal record (None if not a job)."""
        if record.get("type") != "job" or not record.get("id"):
            return None
        return cls(
            id=str(record["id"]),
            tenant=str(record.get("tenant") or "default"),
            payload=record.get("payload") or {},
            state=str(record.get("state") or QUEUED),
            attempts=int(record.get("attempts") or 0),
            max_attempts=int(record.get("max_attempts") or 3),
            error=record.get("error"),
            result=record.get("result"),
            seq=int(record.get("seq") or 0),
        )


class JobQueue:
    """Bounded, journal-backed FIFO of analysis jobs."""

    def __init__(
        self,
        journal: Journal,
        limit: int = 64,
        max_attempts: int = 3,
        tenant_quota: int = 1,
    ) -> None:
        self.journal = journal
        self.limit = limit
        self.max_attempts = max_attempts
        self.tenant_quota = tenant_quota
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    # -- admission -----------------------------------------------------------
    def submit(
        self,
        payload: Dict,
        tenant: str = "default",
        max_attempts: Optional[int] = None,
    ) -> Job:
        """Journal and enqueue a new job; raises :class:`QueueFull`."""
        with self._lock:
            if self._depth_locked() >= self.limit:
                perf.add("service.queue.rejected")
                raise QueueFull(
                    f"queue depth {self._depth_locked()} at limit {self.limit}"
                )
            job = Job(
                id=uuid.uuid4().hex[:12],
                tenant=tenant,
                payload=payload,
                max_attempts=max_attempts or self.max_attempts,
                seq=next(self._seq),
            )
            self.journal.append(job.to_record())
            self._jobs[job.id] = job
            perf.add("service.jobs.submitted")
            return job

    # -- scheduling ----------------------------------------------------------
    def claim(self, now: Optional[float] = None) -> Optional[Job]:
        """The oldest runnable queued job, moved to ``running``.

        Respects per-job backoff gates (``not_before``) and the
        per-tenant concurrency quota (a tenant with ``tenant_quota``
        jobs already running is skipped — one tenant's burst cannot
        monopolize the job runners).  The attempt counter increments at
        claim time, so a crash mid-run burns the attempt — a poison
        job cannot loop forever through recovery.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            running_per_tenant: Dict[str, int] = {}
            for job in self._jobs.values():
                if job.state == RUNNING:
                    running_per_tenant[job.tenant] = (
                        running_per_tenant.get(job.tenant, 0) + 1
                    )
            candidates = sorted(
                (
                    job
                    for job in self._jobs.values()
                    if job.state == QUEUED and job.not_before <= now
                ),
                key=lambda job: job.seq,
            )
            for job in candidates:
                if running_per_tenant.get(job.tenant, 0) >= self.tenant_quota:
                    continue
                job.state = RUNNING
                job.attempts += 1
                self.journal.append(job.to_record())
                return job
            return None

    def next_wakeup(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest backoff gate opens (None: nothing
        is waiting on a gate)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            gates = [
                job.not_before - now
                for job in self._jobs.values()
                if job.state == QUEUED and job.not_before > now
            ]
        return min(gates) if gates else None

    # -- settlement ----------------------------------------------------------
    def complete(self, job: Job, result: Dict) -> None:
        """Settle ``job`` as done, journaling its result document."""
        with self._lock:
            job.state = DONE
            job.error = None
            job.result = result
            self.journal.append(job.to_record())
            perf.add("service.jobs.done")

    def fail(self, job: Job, error: str, permanent: bool = False) -> None:
        """Settle a failed attempt: retry, fail, or dead-letter."""
        with self._lock:
            job.error = error
            if permanent:
                job.state = FAILED
                perf.add("service.jobs.failed")
            elif job.attempts >= job.max_attempts:
                job.state = DEAD_LETTER
                perf.add("service.jobs.dead_letter")
            else:
                job.state = QUEUED
                delay = min(
                    _BACKOFF_CAP,
                    _BACKOFF_BASE * (2 ** (job.attempts - 1)),
                )
                job.not_before = time.monotonic() + delay * (
                    1.0 + random.random()
                )
                perf.add("service.jobs.retries")
            self.journal.append(job.to_record())

    # -- introspection -------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job in submission (seq) order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def depth(self) -> int:
        """Non-terminal jobs (the bound :meth:`submit` enforces)."""
        with self._lock:
            return self._depth_locked()

    def counts(self) -> Dict[str, int]:
        """Job tally per state, for /healthz."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def _depth_locked(self) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state not in TERMINAL_STATES
        )

    # -- durability ----------------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Fold the journal back into memory after a restart.

        The latest record per job id wins.  Jobs recorded ``running``
        died with the previous daemon: re-queued (attempt already
        burned at claim) or dead-lettered if that was their last
        attempt.  Returns counters describing what happened.
        """
        stats = {"replayed": 0, "requeued": 0, "dead_lettered": 0}
        with self._lock:
            merged: Dict[str, Job] = {}
            for record in self.journal.replay():
                job = Job.from_record(record)
                if job is not None:
                    merged[job.id] = job
            max_seq = 0
            for job in merged.values():
                stats["replayed"] += 1
                max_seq = max(max_seq, job.seq)
                if job.state == RUNNING:
                    if job.attempts >= job.max_attempts:
                        job.state = DEAD_LETTER
                        job.error = (
                            "daemon restarted while the job was running on"
                            " its final attempt"
                        )
                        stats["dead_lettered"] += 1
                        perf.add("service.jobs.dead_letter")
                    else:
                        job.state = QUEUED
                        job.not_before = 0.0
                        stats["requeued"] += 1
                        perf.add("service.jobs.recovered")
                self._jobs[job.id] = job
            self._seq = itertools.count(max_seq + 1)
            self._compact_locked()
        return stats

    def compact(self) -> None:
        """Rewrite the journal to one record per job (see recover)."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        """One record per job; oldest terminal jobs beyond the keep
        window are dropped so the journal stays bounded."""
        jobs = sorted(self._jobs.values(), key=lambda job: job.seq)
        terminal = [job for job in jobs if job.state in TERMINAL_STATES]
        drop = {
            job.id for job in terminal[: max(0, len(terminal) - _TERMINAL_KEEP)]
        }
        for job_id in drop:
            del self._jobs[job_id]
        self.journal.compact(
            job.to_record() for job in jobs if job.id not in drop
        )
