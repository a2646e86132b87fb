"""Fleet comparison — n-way equivalence with outlier detection.

§5.1 Scenario 3 wants *all* gateway routers to enforce identical
policy; Campion's unit of work is a pair.  This module lifts ConfigDiff
to a fleet: it computes the pairwise difference matrix, elects the
*medoid* configuration (the device minimizing total differences to the
rest — the fleet's de-facto intent, in the spirit of the outlier-
detection related work the paper cites) and reports every other device
against it, so each outlier comes with Campion's full localization.

Failures are isolated, not fatal: the matrix phase runs one pair at a
time and consumes :class:`~repro.core.parallel.PairOutcome` objects,
so a pair whose analysis raises (twice: it gets one retry) is recorded
in ``failed_pairs`` while every surviving pair still lands in the
matrix.  The BDD time and node budgets bound each pair.
The medoid is then elected over *surviving* pairs (mean differences per
surviving pair, so devices with failed pairs are not advantaged by
their missing entries), and devices whose reference report cannot be
produced are listed in ``failed`` alongside ``outliers``/``conforming``.

**Symmetry compression**: real fleets are heavily templated, so before
the matrix :func:`~repro.core.near_symmetry.plan_near_pairs` partitions
the devices by *device fingerprint* (equality means ConfigDiff would
find zero differences; see :mod:`repro.model.fingerprint`), then
groups those class representatives by *template fingerprint* (equal
configurations modulo an allowlisted parameter substitution —
per-device loopbacks, router-ids, BGP peers) and analyzes one pair per
replay signature, replaying its count across the class; see
:mod:`repro.core.near_symmetry` for the soundness conditions and the
fallback-to-concrete rules.  The reference reports still run per
device (through the representative-warmed memo, so clones replay at
memo speed): spans, hostnames, and parse diagnostics are
device-specific and deliberately excluded from fingerprints, and
running them live is what keeps the report — and its serialized form —
byte-identical to the uncompressed run.  Compression is therefore not
a user choice: the CLI and the service always run it, and
``compress="off"`` (every device its own class, every pair analyzed)
stays in the library only as the reference the oracle's ``symmetry``
and ``near-symmetry`` selfcheck generators and the tests compare
against.  Both modes share one matrix path; only the plan differs.

For a fleet of n devices the uncompressed matrix costs n(n-1)/2
comparisons, down to s analyzed pairs for s distinct replay signatures
under ``near``; pass ``reference=<hostname>`` to skip the election and
compare everything against a known-good device in n-1 comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .config_diff import config_diff
from .coverage import DeviceCoverage, compute_fleet_coverage
from .fleet_atoms import seed_acl_counts
from .match_policies import match_policies
from .memo import DiffMemo
from .near_symmetry import FALLBACK_COUNTER, SymmetryPlan, plan_near_pairs
from .parallel import (
    pairwise_count_outcomes,
    resolve_node_limit,
    resolve_timeout,
)
from .results import CampionReport

__all__ = [
    "COMPRESS_MODES",
    "FleetReport",
    "SymmetryStats",
    "compare_fleet",
    "resolve_compress",
]

#: The matrix-compression modes: ``off`` is the oracle baseline.
COMPRESS_MODES = ("off", "near")


def resolve_compress(compress: Optional[str] = None) -> str:
    """Resolve the symmetry-compression mode: ``off`` or ``near``.

    ``None`` means the default, ``near`` — compression never changes
    the report, only how much of the matrix is computed versus
    replayed.  Names are case- and whitespace-insensitive; anything
    else, booleans included, is a :class:`ValueError`.
    """
    if compress is None:
        return "near"
    mode = str(compress).strip().lower()
    if mode not in COMPRESS_MODES:
        raise ValueError(
            f"compress must be one of {', '.join(COMPRESS_MODES)};"
            f" got {compress!r}"
        )
    return mode


def _elect_medoid(
    candidates: Sequence[str], survivors: Dict[str, List[int]]
) -> str:
    """The device with the smallest mean difference count to its peers.

    Deterministic under ties by construction: candidates are ranked by
    ``(exact mean, hostname)``.  Means are compared as
    :class:`~fractions.Fraction` — float division could round two
    genuinely-equal means (different survivor counts) to unequal
    floats, or vice versa, making the winner depend on accumulated
    rounding rather than the hostname tie-break.  Input ordering never
    affects the result: the hostname component of the key already
    totally orders the candidates, so no pre-sorting is needed.
    """
    return min(
        candidates,
        key=lambda hostname: (
            Fraction(sum(survivors[hostname]), len(survivors[hostname])),
            hostname,
        ),
    )


@dataclass(frozen=True)
class SymmetryStats:
    """How much of the matrix phase symmetry compression avoided.

    Informational only — deliberately *not* serialized (like timings),
    so compressed and uncompressed runs stay byte-identical in JSON.
    """

    devices: int
    classes: int
    #: all unordered pairs the uncompressed matrix would compare
    total_pairs: int
    #: pairs actually analyzed (representatives, plus any pairs that
    #: fell back to concrete analysis)
    analyzed_pairs: int
    #: pairs analyzed concretely because the representative pair they
    #: would have replayed failed
    fallback_pairs: int = 0

    @property
    def expanded_pairs(self) -> int:
        """Pairs whose counts were expanded instead of computed."""
        return self.total_pairs - self.analyzed_pairs

    def render(self) -> str:
        """One summary line for CLI/stderr output."""
        line = (
            f"near-symmetry: {self.devices} device(s) in "
            f"{self.classes} template class(es); analyzed "
            f"{self.analyzed_pairs} of {self.total_pairs} matrix "
            f"pair(s)"
        )
        if self.fallback_pairs:
            line += f"; {self.fallback_pairs} fallback pair(s)"
        return line


@dataclass
class FleetReport:
    """Result of an n-way comparison."""

    reference: str
    hostnames: List[str]
    # difference counts for every unordered pair (by hostname) that
    # completed; failed pairs appear in failed_pairs instead
    matrix: Dict[Tuple[str, str], int] = field(default_factory=dict)
    # full reports of each non-reference device against the reference
    reports: Dict[str, CampionReport] = field(default_factory=dict)
    # pairs whose comparison failed, with the cause
    failed_pairs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # devices whose reference report could not be produced, with the cause
    failed_reports: Dict[str, str] = field(default_factory=dict)
    # diagnostics (e.g. near-symmetry fallbacks); kept sorted and
    # deduplicated so the serialized form (schema v4 carries notes)
    # stays byte-identical across backends and compression modes
    notes: List[str] = field(default_factory=list)
    # per-device configuration coverage (schema v4): which policy lines
    # participated in some localized diff vs. untouched policy
    coverage: Dict[str, DeviceCoverage] = field(default_factory=dict)
    # symmetry-compression statistics for the matrix phase, or None
    # when no compressed matrix phase ran; excluded from serialization
    # (like timings) so compressed == uncompressed output holds
    symmetry: Optional[SymmetryStats] = None

    @property
    def outliers(self) -> List[str]:
        """Devices that differ from the reference."""
        return sorted(
            hostname
            for hostname, report in self.reports.items()
            if not report.is_equivalent()
        )

    @property
    def conforming(self) -> List[str]:
        """Devices equivalent to the reference."""
        return sorted(
            hostname
            for hostname, report in self.reports.items()
            if report.is_equivalent()
        )

    @property
    def failed(self) -> List[str]:
        """Devices with no usable reference report."""
        return sorted(self.failed_reports)

    def is_partial(self) -> bool:
        """Whether any part of the fleet analysis is missing or degraded."""
        return bool(
            self.failed_pairs
            or self.failed_reports
            or any(report.is_degraded() for report in self.reports.values())
        )

    def pair_count(self, first: str, second: str) -> int:
        """Difference count between two devices (order-insensitive).

        Raises :class:`KeyError` with a message naming the pair when it
        has no count — because a hostname is unknown, because the
        pair's comparison failed (the recorded cause is included), or
        because the two names are the same device.
        """
        key = (min(first, second), max(first, second))
        if key in self.matrix:
            return self.matrix[key]
        unknown = sorted({first, second} - set(self.hostnames))
        if unknown:
            raise KeyError(
                f"no such device(s) in the fleet: {', '.join(unknown)}"
                f" (fleet: {', '.join(self.hostnames)})"
            )
        if key in self.failed_pairs:
            raise KeyError(
                f"pair {key[0]} vs {key[1]} has no difference count: "
                f"comparison failed ({self.failed_pairs[key]})"
            )
        if first == second:
            raise KeyError(
                f"pair {first} vs {second} is one device, not a pair"
            )
        raise KeyError(f"pair {key[0]} vs {key[1]} was not compared")

    def render_summary(self) -> str:
        """One-paragraph fleet verdict for CLI output."""
        conforming = self.conforming
        outliers = self.outliers
        failed = self.failed
        lines = [
            f"fleet of {len(self.hostnames)}; reference: {self.reference}",
            f"conforming: {len(conforming)}; outliers: {len(outliers)}"
            + (f"; failed: {len(failed)}" if failed else ""),
        ]
        for hostname in outliers:
            report = self.reports[hostname]
            lines.append(
                f"  {hostname}: {report.total_differences()} difference(s) vs {self.reference}"
            )
        for hostname in failed:
            lines.append(
                f"  {hostname}: comparison failed ({self.failed_reports[hostname]})"
            )
        if self.failed_pairs:
            lines.append(f"failed pairs: {len(self.failed_pairs)}")
            for (first, second), cause in sorted(self.failed_pairs.items()):
                lines.append(f"  {first} vs {second}: {cause}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_coverage(self) -> str:
        """Per-device configuration-coverage section for CLI output."""
        lines = ["configuration coverage (policy lines in localized diffs):"]
        for hostname in sorted(self.coverage):
            lines.append(f"  {self.coverage[hostname].render()}")
        return "\n".join(lines)


def compare_fleet(
    devices: Sequence[DeviceConfig],
    reference: Optional[str] = None,
    exhaustive_communities: bool = False,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    memo: Optional[DiffMemo] = None,
    use_memo: bool = True,
    set_backend: Optional[str] = None,
    compress: str = "near",
) -> FleetReport:
    """Compare a fleet of configurations intended to be identical.

    With ``reference=None`` the medoid is elected from the pairwise
    difference matrix: the device with the smallest *mean* difference
    count over its surviving pairs (mean, not total, so a device whose
    pairs failed is not advantaged by the missing entries); ties break
    toward the lexicographically-smallest hostname for determinism.
    Devices with no surviving pair at all cannot stand for election.

    The matrix phase is planned with
    :func:`~repro.core.near_symmetry.plan_near_pairs` —
    device-fingerprint classes first, then template classes — and
    analyzes one pair per replay signature; every other pair's count is
    expanded from its representative (0 within a fingerprint class).
    On templated fleets the matrix phase shrinks from O(n²) toward
    O(k²) for k distinct templates.  A failed representative pair fails
    the content-identical pairs it stands for with the same cause
    (matching the uncompressed outcome for content-deterministic
    failures — the only reproducible kind), while merely near-symmetric
    pairs *fall back to concrete analysis* (counted under
    ``near_symmetry.fallbacks`` and noted on ``FleetReport.notes``),
    since a fault observed on one substitution instance says nothing
    about the others.  A budget abort is not such a fault: every pair a
    budget-aborted representative stands for fails with its cause.
    ``compress="off"`` analyzes every pair instead; it is the reference
    the default is checked against, with identical reports, election
    and serialized output.

    ``timeout`` is each pair's BDD time budget in seconds (``None`` =
    unbounded); ``node_limit`` bounds each pair's BDD allocation.  An
    invalid budget (a timeout that is not positive, NaN included, or a
    node limit below 2) raises :class:`ValueError` before any work.
    Either tripping aborts only the offending component rather than
    sinking the run: the matrix pair fails (listed in ``failed_pairs``
    with the abort, without a retry; the election runs over the
    surviving pairs), and the reference report lists the component as
    aborted (so the report is partial).  With a memo, each component
    spends a budget once per run: a later pair or report holding the
    same component pair is recorded aborted at once.

    Fingerprint memoization is on by default (``use_memo=True``): each
    unique component-content pair is diffed once and replayed across
    the matrix and the reference reports, which is what makes templated
    fleets near-linear instead of quadratic.  Pass a ``memo`` (e.g. a
    :class:`~repro.core.memo.DiffMemo` backed by the persistent
    :class:`~repro.cache.ArtifactCache`) to share results across runs,
    or ``use_memo=False`` for the plain recompute-every-pair baseline.
    Reports and counts are identical in every mode.

    ``set_backend`` names the SemanticDiff set-algebra backend used in
    the matrix and the reference reports (``None`` = ``atoms``;
    see :mod:`repro.core.setalg`) — another knob that changes
    only the wall clock, never the report.

    With a memo on the ``atoms`` backend, each matrix phase is
    preceded by fleet-scale atomization
    (:func:`~repro.core.fleet_atoms.seed_acl_counts`): the ACL pairs it
    will analyze that miss the memo and its cache are folded into
    shared atom universes and their exact counts seeded (and
    persisted), so the matrix replays them with zero BDD applies.
    A ``node_limit`` turns seeding off: under a node budget a per-pair
    abort is part of the matrix's answer, and a shared universe cannot
    tell which pairs would abort.

    The report also carries per-device *configuration coverage*
    (``FleetReport.coverage``, serialized under schema v4): which
    ACL/route-map lines participated in some localized difference
    versus policies the run found nothing to say about.
    """
    if len(devices) < 2:
        raise ValueError("a fleet comparison needs at least two devices")
    by_name = {device.hostname: device for device in devices}
    if len(by_name) != len(devices):
        seen: Dict[str, int] = {}
        for device in devices:
            seen[device.hostname] = seen.get(device.hostname, 0) + 1
        duplicates = sorted(name for name, count in seen.items() if count > 1)
        raise ValueError(
            "fleet hostnames must be unique; duplicated: " + ", ".join(duplicates)
        )
    hostnames = sorted(by_name)
    timeout = resolve_timeout(timeout)
    node_limit = resolve_node_limit(node_limit)
    compress = resolve_compress(compress)
    if memo is None and use_memo:
        memo = DiffMemo()
    seeding = (
        memo is not None
        and node_limit is None
        and set_backend in (None, "atoms")
    )

    def count_outcomes(pair_keys: List[Tuple[str, str]]):
        """Matrix outcomes for ``pair_keys``, seeded first when possible."""
        with perf.timer("fleet.matrix"):
            pairs = [(by_name[a], by_name[b]) for a, b in pair_keys]
            pairings = None
            if seeding:
                pairings = [match_policies(d1, d2) for d1, d2 in pairs]
                seed_acl_counts(pairs, pairings, memo)
            return pairwise_count_outcomes(
                pairs,
                exhaustive_communities=exhaustive_communities,
                timeout=timeout,
                node_limit=node_limit,
                memo=memo,
                set_backend=set_backend,
                pairings=pairings,
            )

    notes: List[str] = []
    matrix: Dict[Tuple[str, str], int] = {}
    failed_pairs: Dict[Tuple[str, str], str] = {}
    symmetry: Optional[SymmetryStats] = None

    if reference is None:
        with perf.timer("fleet.plan"):
            if compress == "near":
                plan, plan_notes = plan_near_pairs(devices)
                notes.extend(plan_notes)
            else:
                # Every device its own class: every pair is analyzed.
                plan = SymmetryPlan(
                    representative={h: h for h in hostnames},
                    members={h: (h,) for h in hostnames},
                    pair_keys=tuple(combinations(hostnames, 2)),
                )
        pair_keys = list(plan.pair_keys)
        outcomes = count_outcomes(pair_keys)
        total_pairs = len(hostnames) * (len(hostnames) - 1) // 2
        with perf.timer("fleet.expand"):
            matrix, failed_pairs, fallback = plan.expand_near(
                hostnames, dict(zip(pair_keys, outcomes))
            )
        if fallback:
            # A failed representative pair must not poison its merely
            # near-symmetric members: analyze them concretely, under
            # the same matrix timer.
            perf.add(FALLBACK_COUNTER, len(fallback))
            notes.append(
                f"near-symmetry: {len(fallback)} pair(s) fell back"
                " to concrete analysis after their representative"
                " pair failed"
            )
            for key, outcome in zip(fallback, count_outcomes(fallback)):
                if outcome.ok:
                    matrix[key] = outcome.result
                else:
                    failed_pairs[key] = outcome.describe()
        if compress == "near":
            symmetry = SymmetryStats(
                devices=len(hostnames),
                classes=plan.class_count,
                total_pairs=total_pairs,
                analyzed_pairs=len(pair_keys) + len(fallback),
                fallback_pairs=len(fallback),
            )
            perf.add(
                "fleet.symmetry.pairs_expanded", symmetry.expanded_pairs
            )
        survivors: Dict[str, List[int]] = {h: [] for h in hostnames}
        for (first, second), count in matrix.items():
            survivors[first].append(count)
            survivors[second].append(count)
        candidates = [h for h in hostnames if survivors[h]]
        if not candidates:
            analyzed = len(pair_keys) + len(fallback)
            detail = f"{analyzed} analyzed of {total_pairs} fleet pairs"
            if fallback:
                detail += f", {len(fallback)} of them near-symmetry fallbacks"
            raise RuntimeError(
                f"fleet comparison failed: all {analyzed} pairwise "
                f"comparisons failed ({detail})"
            )
        reference = _elect_medoid(candidates, survivors)
    elif reference not in by_name:
        raise ValueError(f"reference {reference!r} is not in the fleet")

    result = FleetReport(
        reference=reference,
        hostnames=hostnames,
        matrix=matrix,
        failed_pairs=failed_pairs,
        notes=sorted(set(notes)),
        symmetry=symmetry,
    )
    with perf.timer("fleet.reports"):
        for hostname in hostnames:
            if hostname == reference:
                continue
            key = (min(reference, hostname), max(reference, hostname))
            # Always re-run oriented reference-first so reports read
            # uniformly; a component the matrix saw abort is recorded
            # aborted from the memo instead of repeating the blow-up.
            try:
                report = config_diff(
                    by_name[reference],
                    by_name[hostname],
                    exhaustive_communities=exhaustive_communities,
                    node_limit=node_limit,
                    time_budget=timeout,
                    memo=memo,
                    set_backend=set_backend,
                )
            except Exception as exc:  # noqa: BLE001 - isolate per-device failure
                result.failed_reports[hostname] = f"{type(exc).__name__}: {exc}"
                continue
            result.reports[hostname] = report
            if not report.aborted:  # an aborted report has no count
                result.matrix.setdefault(key, report.total_differences())
                result.failed_pairs.pop(key, None)
    result.coverage = compute_fleet_coverage(by_name, result)
    return result
