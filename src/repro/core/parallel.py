"""Per-pair isolation for the fleet difference matrix.

Campion's unit of work is one router pair.  :func:`pairwise_count_outcomes`
runs the matrix's pairs one at a time, in this process, and turns each
into a :class:`PairOutcome` instead of letting one pair's exception sink
the whole matrix: ``ok`` with the pair's difference count, or ``error``
with the rendered cause.  A failed pair gets one retry (counted under
``parallel.retries``); if that fails too, its cause is reported with an
`` (after retry)`` suffix.

A pair is bounded by the BDD engine's own budgets, not by killing it:
the ``timeout`` argument becomes the pair's time budget, checked at the
engine's deadline points, and ``node_limit`` its node budget.  A
blow-up therefore degrades into a budget-aborted count rather than
hanging the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .config_diff import config_diff, config_diff_summary
from .match_policies import PolicyPairing
from .memo import DiffMemo
from .near_symmetry import SymmetryPlan  # re-export for existing importers

__all__ = [
    "PairOutcome",
    "SymmetryPlan",
    "resolve_timeout",
    "pairwise_count_outcomes",
]

_Pair = Tuple[DeviceConfig, DeviceConfig]

# One pair's analysis: the two devices, then exhaustive-communities
# mode, the node limit, the time budget, the fingerprint-keyed DiffMemo
# (or None), the SemanticDiff set-algebra backend name (or None for
# atoms), and the pair's MatchPolicies result when the caller already
# computed it (or None to match here).
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
    """Result of one pair comparison.

    ``status`` is ``"ok"`` (``result`` holds the difference count) or
    ``"error"`` (the analysis raised; ``error`` holds the rendered
    cause).  ``retried`` marks outcomes that went through the automatic
    retry, whatever its final status.
    """

    index: int
    status: str
    result: Optional[object] = None
    error: str = ""
    retried: bool = False

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


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-pair time budget in seconds: argument, else
    ``None`` (unbounded)."""
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


def _guarded_call(index: int, task: _Task) -> PairOutcome:
    """Run :func:`_count_pair` on one task; an exception becomes an
    ``error`` outcome carrying its type and message.

    Memo entries recorded before a failure stay: they are clean,
    completed component results.
    """
    try:
        # Looked up at call time so a patched ``_count_pair`` applies.
        result = _count_pair(task)
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        return PairOutcome(
            index, "error", error=f"{type(exc).__name__}: {exc}"
        )
    return PairOutcome(index, "ok", result=result)


def pairwise_count_outcomes(
    pairs: Sequence[_Pair],
    exhaustive_communities: bool = False,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    retry: bool = True,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
    pairings: Optional[Sequence[PolicyPairing]] = None,
) -> List[PairOutcome]:
    """Difference-count outcomes for each device pair, in input order.

    ``ok`` results equal ``config_diff(...).total_differences()`` on
    each pair.  With ``memo`` each unique fingerprint-pair component
    diff runs once at most.  ``set_backend`` names the SemanticDiff
    set-algebra backend (``None`` = atoms); results are
    backend-independent.  ``pairings`` (aligned with ``pairs``) hands
    over MatchPolicies results the caller already computed, so no pair
    is matched twice.  A failed pair is retried once unless ``retry``
    is false; the retry keeps the first attempt's cause if it fails.
    """
    timeout = resolve_timeout(timeout)
    if pairings is None:
        pairings = [None] * len(pairs)
    perf.add("parallel.tasks", len(pairs))
    outcomes: List[PairOutcome] = []
    with perf.timer("parallel.map"):
        for index, ((device1, device2), pairing) in enumerate(
            zip(pairs, pairings)
        ):
            task = (
                device1,
                device2,
                exhaustive_communities,
                node_limit,
                timeout,
                memo,
                set_backend,
                pairing,
            )
            outcome = _guarded_call(index, task)
            if not outcome.ok:
                perf.add("parallel.errors")
                if retry:
                    perf.add("parallel.retries")
                    again = _guarded_call(index, task)
                    if again.ok:
                        outcome = again
                    outcome.retried = True
            outcomes.append(outcome)
    return outcomes
