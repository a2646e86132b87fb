"""Process-parallel fan-out for fleet and multi-pair comparisons.

BDD managers are process-local by design: nodes are integer ids into a
manager's private arrays, so handles cannot cross process boundaries.
The fan-out therefore ships *configurations* out and brings *picklable
results* back — difference counts for the fleet matrix, or full report
dictionaries produced by :mod:`repro.core.serialize` for batch pairwise
comparison.  Each worker runs :func:`repro.core.config_diff.config_diff`
with its own fresh managers (``config_diff`` allocates its spaces
internally), so no shared state is needed.

Fault isolation (the part the first parallel cut lacked): every task
produces a :class:`PairOutcome` — ``ok``, ``error``, ``timeout``, or
``crashed`` — instead of letting one worker exception poison the whole
fan-out.  A Python-level worker exception travels back as ``error``;
*worker death* (OOM kill, segfault, a stray ``SIGKILL``) surfaces as
``BrokenProcessPool`` from the executor and is classified as
``crashed`` with a ``worker-crashed`` diagnostic rather than an
unhandled traceback.  The pool is respawned with jittered backoff (up
to ``_MAX_POOL_RESPAWNS`` generations per fan-out, counted under
``parallel.pool_respawns``) and the still-unresolved tasks resubmitted;
results that completed before the pool died are harvested, never
recomputed.  Failed pairs get one automatic in-parent serial retry
(bounded by the pair time budget via the BDD engine's deadline checks),
and worker processes are killed and joined deterministically on both
``KeyboardInterrupt`` and normal exit, so stuck workers never outlive
the run as leaked fork children.

Worker resolution: an explicit ``workers=N`` argument, else 1
(serial).  ``workers=1`` never touches :mod:`multiprocessing` — callers
on constrained platforms keep the exact serial code path.  The per-pair
wall-clock timeout is the ``timeout=`` argument, else ``None``
(unbounded).

The ``fork`` start method is preferred (cheap, inherits the parsed
configs' module state); platforms without it fall back to the default
context, which is why the worker entry points are module-level
functions.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .config_diff import config_diff, config_diff_summary
from .match_policies import PolicyPairing
from .memo import DiffMemo
from .near_symmetry import SymmetryPlan  # re-export for existing importers
from .serialize import report_to_dict

__all__ = [
    "PairOutcome",
    "SymmetryPlan",
    "resolve_workers",
    "resolve_timeout",
    "pairwise_counts",
    "pairwise_count_outcomes",
    "diff_pairs",
    "diff_pair_outcomes",
]

#: Fresh pool generations granted per fan-out after worker death.  The
#: cap bounds the worst case — a task that deterministically kills its
#: worker burns one generation per respawn — while one environmental
#: kill (OOM reaper picking a victim) heals on the first respawn.
_MAX_POOL_RESPAWNS = 2

#: Base of the jittered exponential backoff between pool respawns, in
#: seconds.  Small on purpose: a respawn is cheap, and the jitter only
#: needs to decorrelate sibling fan-outs hammering a loaded machine.
_RESPAWN_BACKOFF = 0.05

#: Diagnostic attached to pairs whose worker died.  Structured ("worker
#: -crashed" prefix) so the service supervisor and fleet reports can
#: recognize crash casualties without string-matching tracebacks.
_CRASH_DIAGNOSTIC = (
    "worker-crashed: worker process died (OOM kill, segfault, or external"
    " signal) before returning a result"
)

_Pair = Tuple[DeviceConfig, DeviceConfig]

# Task tuple shipped to workers: the pair plus the analysis options that
# must apply inside the worker process (budgets arm the worker's own BDD
# managers, so a blow-up degrades in-worker before the parent-side
# timeout ever has to fire).  Slot 5 is the fingerprint-keyed DiffMemo
# (or None): every task in one fan-out references the same memo object,
# so each worker process accumulates component results across its tasks
# and drains them back via ``PairOutcome.memo_updates``.  Slot 6 is the
# SemanticDiff set-algebra backend *name* (or None for atoms) — backend
# instances hold BDD handles and never cross processes, names always
# pickle.  Slot 7 is the pair's MatchPolicies
# result when the caller already computed it (or None to match in the
# worker).
_Task = Tuple[
    DeviceConfig,
    DeviceConfig,
    bool,
    Optional[int],
    Optional[float],
    Optional[DiffMemo],
    Optional[str],
    Optional[PolicyPairing],
]


@dataclass
class PairOutcome:
    """Result of one fanned-out pair comparison.

    ``status`` is ``"ok"`` (``result`` holds the payload), ``"error"``
    (the worker raised; ``error`` holds the rendered cause),
    ``"timeout"`` (the pair exceeded its wall-clock budget and its
    worker was terminated), or ``"crashed"`` (the worker process died —
    OOM kill, segfault — and the pool's respawn budget ran out before
    the pair completed).  ``retried`` marks outcomes that went through
    the automatic in-parent serial retry — whatever its final status.
    """

    index: int
    status: str
    result: Optional[object] = None
    error: str = ""
    retried: bool = False
    # Memo entries this task's process computed (fingerprint key ->
    # entry dict); the parent merges them so later pairs — and the
    # fleet reference phase — replay instead of recomputing.
    memo_updates: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the pair produced a result."""
        return self.status == "ok"

    def describe(self) -> str:
        """Short failure description for summaries."""
        if self.ok:
            return "ok"
        suffix = " (after retry)" if self.retried else ""
        return f"{self.status}: {self.error}{suffix}"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument, else 1."""
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-pair wall-clock timeout in seconds: argument,
    else ``None`` (unbounded)."""
    if timeout is None:
        return None
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return timeout


def _count_pair(task: _Task) -> int:
    (
        device1,
        device2,
        exhaustive,
        node_limit,
        time_budget,
        memo,
        backend,
        pairing,
    ) = task
    if memo is not None:
        return config_diff_summary(
            device1,
            device2,
            pairing=pairing,
            exhaustive_communities=exhaustive,
            node_limit=node_limit,
            time_budget=time_budget,
            memo=memo,
            set_backend=backend,
        )
    report = config_diff(
        device1,
        device2,
        pairing=pairing,
        exhaustive_communities=exhaustive,
        node_limit=node_limit,
        time_budget=time_budget,
        set_backend=backend,
    )
    return report.total_differences()


def _diff_pair(task: _Task) -> Dict:
    (
        device1,
        device2,
        exhaustive,
        node_limit,
        time_budget,
        memo,
        backend,
        pairing,
    ) = task
    report = config_diff(
        device1,
        device2,
        pairing=pairing,
        exhaustive_communities=exhaustive,
        node_limit=node_limit,
        time_budget=time_budget,
        memo=memo,
        set_backend=backend,
    )
    return report_to_dict(report)


# The shared task list is shipped to each worker once (inherited for
# free under ``fork``, pickled once per worker otherwise) and tasks are
# dispatched by index, so per-task IPC is a couple of integers instead
# of two full device configurations.
_WORKER_TASKS: Optional[List] = None


def _init_worker(tasks: List) -> None:
    global _WORKER_TASKS
    _WORKER_TASKS = tasks


def _count_at(index: int) -> Tuple[str, object]:
    return _guarded_call(_count_pair, _WORKER_TASKS[index])


def _diff_at(index: int) -> Tuple[str, object]:
    return _guarded_call(_diff_pair, _WORKER_TASKS[index])


def _guarded_call(
    function: Callable, task: _Task
) -> Tuple[str, object, Dict]:
    """Run one task in a worker, returning a tagged, always-picklable
    triple ``(status, payload, memo_updates)``.

    Catching here (rather than at ``.get()`` in the parent) keeps
    arbitrary — possibly unpicklable — worker exceptions from breaking
    result transport.  Memo updates are drained even on error: entries
    recorded before the failure are clean, completed component results
    and stay valid.
    """
    memo = task[5] if len(task) > 5 else None

    def _updates() -> Dict:
        return memo.take_updates() if isinstance(memo, DiffMemo) else {}

    try:
        result = function(task)
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        return ("error", f"{type(exc).__name__}: {exc}", _updates())
    return ("ok", result, _updates())


def _build_tasks(
    pairs: Sequence[_Pair],
    exhaustive_communities: bool,
    node_limit: Optional[int],
    timeout: Optional[float],
    memo: Optional[DiffMemo],
    set_backend: Optional[str],
    pairings: Optional[Sequence[PolicyPairing]],
) -> List[_Task]:
    if pairings is None:
        pairings = [None] * len(pairs)
    return [
        (
            d1,
            d2,
            exhaustive_communities,
            node_limit,
            timeout,
            memo,
            set_backend,
            pairing,
        )
        for (d1, d2), pairing in zip(pairs, pairings)
    ]


def _serial_outcomes(function: Callable, tasks: List[_Task]) -> List[PairOutcome]:
    """The workers=1 path: no multiprocessing, failures still isolated.

    Wall-clock timeouts cannot terminate an in-process task; the pair
    time budget shipped inside each task bounds the BDD phase via the
    engine's deadline checks instead, so a blow-up degrades into a
    partial report rather than hanging the run.
    """
    outcomes = []
    for index, task in enumerate(tasks):
        tag, payload, updates = _guarded_call(function, task)
        if tag == "ok":
            outcomes.append(
                PairOutcome(index, "ok", result=payload, memo_updates=updates)
            )
        else:
            perf.add("parallel.errors")
            outcomes.append(
                PairOutcome(
                    index, "error", error=str(payload), memo_updates=updates
                )
            )
    return outcomes


def _make_executor(
    tasks: List[_Task], workers: int
) -> concurrent.futures.ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        context = multiprocessing.get_context()
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=context,
        initializer=_init_worker,
        initargs=(tasks,),
    )


def _shutdown_executor(
    executor: concurrent.futures.ProcessPoolExecutor,
) -> None:
    """Deterministic teardown: kill stragglers and reap every child.

    Timed-out pairs are still grinding in their worker, so a plain
    ``shutdown(wait=True)`` could block on them indefinitely; pending
    futures are cancelled, the worker processes killed outright, and
    only then does the final ``shutdown`` join the (now dead) children
    — the executor equivalent of the old ``terminate()``/``join()``.
    """
    # shutdown() drops the executor's process table, so grab it first.
    processes = dict(getattr(executor, "_processes", None) or {})
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in list(processes.values()):
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


def _settle(
    outcomes: List[Optional[PairOutcome]],
    index: int,
    tag: str,
    payload: object,
    updates: Dict,
) -> None:
    """Record one transported worker result as this task's outcome."""
    if tag == "ok":
        outcomes[index] = PairOutcome(
            index, "ok", result=payload, memo_updates=updates
        )
    else:
        perf.add("parallel.errors")
        outcomes[index] = PairOutcome(
            index, "error", error=str(payload), memo_updates=updates
        )


def _pool_round(
    indexed: Callable,
    tasks: List[_Task],
    workers: int,
    timeout: Optional[float],
    pending: List[int],
    outcomes: List[Optional[PairOutcome]],
) -> bool:
    """Run one executor generation over the still-unresolved tasks.

    Settles an outcome for every task it can; returns ``True`` when the
    pool broke (a worker process died) leaving tasks unresolved, so the
    caller can decide whether to respawn.  Collection is sequential
    while execution is concurrent, so the per-future ``timeout`` wait
    is an upper bound on useful work per pair rather than an exact
    stopwatch — the same contract the old ``apply_async`` loop had.
    """
    executor = _make_executor(tasks, workers)
    futures: Dict[int, concurrent.futures.Future] = {}
    broken = False
    try:
        try:
            for index in pending:
                futures[index] = executor.submit(indexed, index)
        except (BrokenProcessPool, RuntimeError):
            # The pool died while we were still submitting (e.g. the
            # initializer's worker was killed); whatever got in is
            # collected below, the rest stays pending for the respawn.
            broken = True
        for index in pending:
            future = futures.get(index)
            if future is None:
                break
            try:
                tag, payload, updates = future.result(timeout)
            except concurrent.futures.TimeoutError:
                perf.add("parallel.timeouts")
                outcomes[index] = PairOutcome(
                    index,
                    "timeout",
                    error=f"pair exceeded {timeout:.1f}s wall-clock timeout",
                )
            except BrokenProcessPool:
                broken = True
                break
            except concurrent.futures.CancelledError:
                broken = True
                break
            except Exception as exc:  # transport failure
                perf.add("parallel.errors")
                outcomes[index] = PairOutcome(
                    index, "error", error=f"{type(exc).__name__}: {exc}"
                )
            else:
                _settle(outcomes, index, tag, payload, updates)
        if broken:
            # Harvest everything that completed before the pool died —
            # those results are clean and must not be recomputed.
            for index in pending:
                future = futures.get(index)
                if (
                    future is None
                    or outcomes[index] is not None
                    or not future.done()
                ):
                    continue
                try:
                    tag, payload, updates = future.result(0)
                except Exception:  # broken/cancelled: stays pending
                    continue
                _settle(outcomes, index, tag, payload, updates)
    finally:
        _shutdown_executor(executor)
    return broken


def _pool_outcomes(
    indexed: Callable,
    tasks: List[_Task],
    workers: int,
    timeout: Optional[float],
) -> List[PairOutcome]:
    """Fan tasks over worker processes, one PairOutcome per task.

    Worker *death* (as opposed to a worker exception, which travels
    back as a tagged result) surfaces as ``BrokenProcessPool``: the
    generation's completed results are harvested, the pool is respawned
    with jittered exponential backoff, and the unresolved tasks are
    resubmitted.  A broken pool cannot name its victim — *every*
    unfinished future breaks — so when the batch respawn budget runs
    out (a task that deterministically kills its worker burns one
    generation per round), the survivors move to an *isolation pass*:
    one single-task pool each.  A lone task that breaks its own pool is
    definitively the culprit and is classified ``crashed`` with a
    structured ``worker-crashed`` diagnostic (the in-parent serial
    retry, :func:`_retry_failures`, remains its last chance); innocent
    bystanders complete normally instead of being misblamed.
    """
    outcomes: List[Optional[PairOutcome]] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    respawns_left = _MAX_POOL_RESPAWNS
    generation = 0
    while pending:
        broken = _pool_round(
            indexed, tasks, workers, timeout, pending, outcomes
        )
        pending = [index for index in pending if outcomes[index] is None]
        if not pending:
            break
        if not broken:  # pragma: no cover - defensive: round settles all
            for index in pending:
                outcomes[index] = PairOutcome(
                    index, "error", error="pool round left no outcome"
                )
            break
        perf.add("parallel.worker_crashes")
        if respawns_left <= 0:
            break
        respawns_left -= 1
        perf.add("parallel.pool_respawns")
        time.sleep(
            _RESPAWN_BACKOFF * (2**generation) * (1.0 + random.random())
        )
        generation += 1
    # Isolation pass: definitive blame for repeated pool deaths.
    for index in pending:
        if outcomes[index] is not None:
            continue
        perf.add("parallel.pool_respawns")
        _pool_round(indexed, tasks, 1, timeout, [index], outcomes)
        if outcomes[index] is None:
            perf.add("parallel.errors")
            outcomes[index] = PairOutcome(
                index, "crashed", error=_CRASH_DIAGNOSTIC
            )
    return outcomes  # type: ignore[return-value]


def _retry_failures(
    function: Callable,
    tasks: List[_Task],
    outcomes: List[PairOutcome],
    timeout: Optional[float],
) -> None:
    """One in-parent serial retry for each failed pair, in place.

    A worker crash can be environmental (OOM killer, fork-state
    corruption); the retry runs in the parent where the BDD deadline —
    shipped inside the task as its time budget — bounds the attempt, so
    a genuinely pathological pair degrades into a budget-aborted report
    instead of hanging the parent.
    """
    for index, outcome in enumerate(outcomes):
        if outcome.ok:
            continue
        perf.add("parallel.retries")
        tag, payload, updates = _guarded_call(function, tasks[index])
        if tag == "ok":
            outcomes[index] = PairOutcome(
                index, "ok", result=payload, retried=True, memo_updates=updates
            )
        else:
            outcomes[index] = PairOutcome(
                index, outcome.status, error=outcome.error or str(payload),
                retried=True, memo_updates=updates,
            )


def _run_outcomes(
    function: Callable,
    indexed: Callable,
    pairs: Sequence[_Pair],
    workers: Optional[int],
    exhaustive_communities: bool,
    timeout: Optional[float],
    node_limit: Optional[int],
    retry: bool,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
    pairings: Optional[Sequence[PolicyPairing]] = None,
) -> List[PairOutcome]:
    workers = resolve_workers(workers)
    timeout = resolve_timeout(timeout)
    tasks = _build_tasks(
        pairs,
        exhaustive_communities,
        node_limit,
        timeout,
        memo,
        set_backend,
        pairings,
    )
    perf.add("parallel.tasks", len(tasks))
    with perf.timer("parallel.map"):
        if workers == 1 or len(tasks) <= 1:
            outcomes = _serial_outcomes(function, tasks)
        else:
            outcomes = _pool_outcomes(indexed, tasks, workers, timeout)
        if retry and any(not outcome.ok for outcome in outcomes):
            _retry_failures(function, tasks, outcomes, timeout)
    if memo is not None:
        # Fold worker-computed entries into the parent memo in input
        # order (deterministic whatever the completion order; entries
        # for equal keys are identical, so collisions are benign).
        for outcome in outcomes:
            if outcome.memo_updates:
                memo.merge(outcome.memo_updates)
    return outcomes


def pairwise_count_outcomes(
    pairs: Sequence[_Pair],
    workers: Optional[int] = None,
    exhaustive_communities: bool = False,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    retry: bool = True,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
    pairings: Optional[Sequence[PolicyPairing]] = None,
) -> List[PairOutcome]:
    """Difference-count outcomes for each device pair, fanned over workers.

    Outcomes are in input order; ``ok`` results are identical to running
    ``config_diff`` serially on each pair (``config_diff`` is
    deterministic), only the wall-clock differs.  With ``memo`` each
    unique fingerprint-pair component diff runs once per process at
    most; worker-computed entries are merged back into the parent memo
    before this returns.  ``set_backend`` names the SemanticDiff
    set-algebra backend applied inside each worker (``None`` = atoms);
    results are backend-independent.
    ``pairings`` (aligned with ``pairs``) hands over MatchPolicies
    results the caller already computed, so no pair is matched twice.
    """
    return _run_outcomes(
        _count_pair,
        _count_at,
        pairs,
        workers,
        exhaustive_communities,
        timeout,
        node_limit,
        retry,
        memo=memo,
        set_backend=set_backend,
        pairings=pairings,
    )


def diff_pair_outcomes(
    pairs: Sequence[_Pair],
    workers: Optional[int] = None,
    exhaustive_communities: bool = False,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    retry: bool = True,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
) -> List[PairOutcome]:
    """Full ConfigDiff report-dict outcomes for each pair, fanned out.

    ``ok`` outcomes carry :func:`repro.core.serialize.report_to_dict`
    output (the BDD handles inside a :class:`CampionReport` cannot cross
    processes, the serialized form can).  Order matches the input pairs.
    ``memo`` lets zero-difference components be skipped per pair, and
    ``set_backend`` names the per-worker set-algebra backend; the
    reports are identical either way.
    """
    return _run_outcomes(
        _diff_pair,
        _diff_at,
        pairs,
        workers,
        exhaustive_communities,
        timeout,
        node_limit,
        retry,
        memo=memo,
        set_backend=set_backend,
    )


def _unwrap(outcomes: List[PairOutcome]) -> List:
    """Strict view: results in order, raising on the first failed pair."""
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(f"pair {outcome.index} failed: {outcome.describe()}")
    return [outcome.result for outcome in outcomes]


def pairwise_counts(
    pairs: Sequence[_Pair],
    workers: Optional[int] = None,
    exhaustive_communities: bool = False,
) -> List[int]:
    """Difference counts for each device pair (strict; raises on failure).

    The historical all-or-nothing interface; fault-tolerant callers
    want :func:`pairwise_count_outcomes`.
    """
    return _unwrap(
        pairwise_count_outcomes(
            pairs,
            workers=workers,
            exhaustive_communities=exhaustive_communities,
            timeout=None,
            retry=False,
        )
    )


def diff_pairs(
    pairs: Sequence[_Pair],
    workers: Optional[int] = None,
    exhaustive_communities: bool = False,
) -> List[Dict]:
    """Full ConfigDiff report dictionaries per pair (strict; raises on
    failure).  Fault-tolerant callers want :func:`diff_pair_outcomes`."""
    return _unwrap(
        diff_pair_outcomes(
            pairs,
            workers=workers,
            exhaustive_communities=exhaustive_communities,
            timeout=None,
            retry=False,
        )
    )
