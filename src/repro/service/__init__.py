"""Always-on analysis service: supervised job engine over the pipeline.

The batch CLI (``campion fleet``) re-ran the whole pipeline per
invocation; this package wraps the same incremental substrate —
content-addressed parse cache, :class:`~repro.core.memo.DiffMemo`,
:func:`~repro.core.fleet.compare_fleet` — in a long-running daemon
(``campion serve``) so config pushes cost only the changed pairs.
Robustness is the first-class design axis:

* :mod:`repro.service.journal` — crash-safe append-only JSONL journal
  with torn-tail tolerance and atomic compaction.
* :mod:`repro.service.queue` — durable job queue (every transition
  journaled), per-job retry with jittered exponential backoff, a
  dead-letter state after ``max_attempts``, and restart recovery of
  in-flight jobs.
* :mod:`repro.service.supervisor` — runs each job through the
  pipeline on a job thread, one pair at a time under the job's BDD
  time and node budgets; a failing pair lands in the report's
  ``failed_pairs`` and the job still succeeds.  Errors are classified
  permanent (bad payload) or transient (retried by the queue).
* :mod:`repro.service.api` — minimal stdlib ``asyncio`` HTTP/1.1
  JSON API (submit fleets, poll jobs, ``/healthz``/``/readyz``).
* :mod:`repro.service.app` — the daemon: admission control (bounded
  queue → HTTP 429, per-tenant cache namespaces + concurrency quotas),
  SIGTERM/SIGINT drain, and the in-thread harness used by tests, the
  oracle, and benchmarks.

Everything is stdlib-only; no new dependencies.
"""

from .app import AnalysisService, ServiceConfig, ServiceThread
from .journal import Journal
from .queue import Job, JobQueue, QueueFull
from .supervisor import Supervisor

__all__ = [
    "AnalysisService",
    "ServiceConfig",
    "ServiceThread",
    "Journal",
    "Job",
    "JobQueue",
    "QueueFull",
    "Supervisor",
]
