"""Per-pair isolation for the fleet difference matrix.

Campion's unit of work is one router pair.  :func:`pairwise_count_outcomes`
runs the matrix's pairs one at a time, in this process, and turns each
into a :class:`PairOutcome` instead of letting one pair's exception sink
the whole matrix: the pair's difference count, or the rendered cause
of its failure.  A failed pair gets one retry (counted under
``parallel.retries``); if that fails too, its cause is reported with an
`` (after retry)`` suffix.

A pair is bounded by the BDD engine's own budgets, not by killing it:
the ``timeout`` argument becomes the pair's time budget, checked at the
engine's deadline points, and ``node_limit`` its node budget.  A
blow-up therefore fails the pair (:class:`~repro.core.config_diff.
PairAborted`) rather than hanging the run or counting the aborted
component as no differences.  Such a pair is not retried: the abort is
the answer to the budget it was given (a node-limit abort recurs
exactly, and the memo would replay either kind at once), so its outcome
is marked ``aborted`` instead.  :func:`resolve_timeout` and
:func:`resolve_node_limit` hold the budgets' validity rules for the
library, the CLI and the service alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .config_diff import (
    PairAborted,
    config_diff,
    config_diff_summary,
    pair_count,
)
from .match_policies import PolicyPairing
from .memo import DiffMemo
from .near_symmetry import SymmetryPlan  # re-export for existing importers

__all__ = [
    "PairOutcome",
    "SymmetryPlan",
    "resolve_node_limit",
    "resolve_timeout",
    "pairwise_count_outcomes",
]

_Pair = Tuple[DeviceConfig, DeviceConfig]


@dataclass
class PairOutcome:
    """Result of one pair comparison.

    ``result`` holds the difference count, or ``error`` the rendered
    cause when the analysis raised.  ``retried`` marks outcomes that
    went through the automatic retry, whatever its result; ``aborted``
    marks an error that is a budget abort
    (:class:`~repro.core.config_diff.PairAborted`), which is never
    retried.
    """

    result: Optional[int] = None
    error: str = ""
    retried: bool = False
    aborted: bool = False

    @property
    def ok(self) -> bool:
        """Whether the pair produced a result."""
        return not self.error

    def describe(self) -> str:
        """Short failure description for summaries."""
        if self.ok:
            return "ok"
        suffix = " (after retry)" if self.retried else ""
        return f"error: {self.error}{suffix}"


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Validate the per-pair time budget in seconds: ``None``
    (unbounded) or a positive number; NaN is not one."""
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return timeout


def resolve_node_limit(node_limit: Optional[int] = None) -> Optional[int]:
    """Validate the per-pair BDD node budget: ``None`` (unbounded) or
    at least 2, which covers the two terminals."""
    if node_limit is not None and node_limit < 2:
        raise ValueError(
            "node_limit must be at least 2 (the BDD terminals),"
            f" got {node_limit}"
        )
    return node_limit


def _count_pair(
    device1: DeviceConfig,
    device2: DeviceConfig,
    memo: Optional[DiffMemo] = None,
    **options,
) -> int:
    """One pair's difference count; ``options`` are
    :func:`~repro.core.config_diff.config_diff`'s keyword arguments.

    Looked up at call time, for the first attempt and the retry alike,
    so a test can patch it to inject a pair fault.
    """
    if memo is not None:
        return config_diff_summary(device1, device2, memo=memo, **options)
    return pair_count(config_diff(device1, device2, **options))


def _attempt(device1: DeviceConfig, device2: DeviceConfig, options) -> PairOutcome:
    """One attempt at a pair; an exception becomes an error outcome.

    Memo entries recorded before a failure stay: they are clean,
    completed component results.
    """
    try:
        return PairOutcome(result=_count_pair(device1, device2, **options))
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        return PairOutcome(
            error=f"{type(exc).__name__}: {exc}",
            aborted=isinstance(exc, PairAborted),
        )


def pairwise_count_outcomes(
    pairs: Sequence[_Pair],
    exhaustive_communities: bool = False,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
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
    is matched twice.  A failed pair is retried once unless a budget
    aborted it; the retry keeps the first attempt's cause if it fails.
    """
    options = dict(
        exhaustive_communities=exhaustive_communities,
        node_limit=resolve_node_limit(node_limit),
        time_budget=resolve_timeout(timeout),
        memo=memo,
        set_backend=set_backend,
    )
    if pairings is None:
        pairings = [None] * len(pairs)
    perf.add("parallel.tasks", len(pairs))
    outcomes: List[PairOutcome] = []
    with perf.timer("parallel.map"):
        for (device1, device2), pairing in zip(pairs, pairings):
            options["pairing"] = pairing
            outcome = _attempt(device1, device2, options)
            if not outcome.ok:
                perf.add("parallel.errors")
                if not outcome.aborted:
                    perf.add("parallel.retries")
                    again = _attempt(device1, device2, options)
                    if again.ok:
                        outcome = again
                    outcome.retried = True
            outcomes.append(outcome)
    return outcomes
