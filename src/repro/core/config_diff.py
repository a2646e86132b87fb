"""ConfigDiff — Campion's top-level algorithm (§3).

    func ConfigDiff(C1, C2):
        pairs <- MatchPolicies(C1, C2)
        for (p1, p2) in pairs:
            for d in Diff(p1, p2):           # Semantic- or StructuralDiff
                result.append(Present(d))
        return result

``Diff`` dispatches per Table 1: SemanticDiff for ACLs and route maps,
StructuralDiff for everything else; ``Present`` attaches HeaderLocalize
output and renders.

Both entry points run the *same* component walk, optionally through a
:class:`~repro.core.memo.DiffMemo`:

* :func:`config_diff` produces a full live :class:`CampionReport`.  A
  memo hit with zero differences skips the component outright (it would
  contribute nothing to the report); a *localized* hit whose provenance
  digest matches this pair is replayed verbatim with span filenames
  rewritten (:mod:`repro.core.replay`); any other hit is recomputed
  live so localization points at this pair's actual lines.
* :func:`config_diff_summary` produces only the difference *count* (the
  fleet matrix's currency): memo hits of any count are replayed as
  arithmetic, misses are computed exactly once per unique fingerprint
  pair.  Count mode skips HeaderLocalize entirely — localization
  annotates differences (spans, exhaustive sets, examples) but never
  changes how many there are — so the matrix phase pays for
  SemanticDiff only.

Using one walk for both modes is what makes the count-parity invariant
(``config_diff_summary(...) == config_diff(...).total_differences()``)
structural rather than a matter of keeping two loops in sync.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .match_policies import PolicyPairing, match_policies
from .memo import (
    DiffMemo,
    MemoKey,
    acl_key,
    route_map_key,
    semantic_entry,
    structural_entry,
    structural_key,
)
from .replay import (
    provenance_digest,
    replay_augmentation,
    replay_semantic_differences,
)
from .results import (
    AbortedAnalysis,
    CampionReport,
    ComponentKind,
    UnmatchedPolicy,
)

__all__ = [
    "COMPONENT_CHECKS",
    "PairAborted",
    "config_diff",
    "config_diff_summary",
    "pair_count",
]

# Table 1: Components supported by Campion and the check used for each.
COMPONENT_CHECKS: Dict[ComponentKind, str] = {
    kind: kind.check_used() for kind in ComponentKind
}


class PairAborted(RuntimeError):
    """A budget aborted a component of a count-mode pair.

    The pair's count would leave that component out, so
    :func:`pair_count` raises instead of returning an undercount; the
    fleet matrix records the pair as failed.
    """


def pair_count(report: CampionReport) -> int:
    """A count-mode pair's difference count.

    An aborted component has no count, so a report with one raises
    :class:`PairAborted` naming the first instead of returning a total
    that leaves it out.
    """
    if report.aborted:
        raise PairAborted(report.aborted[0].render())
    return report.total_differences()


def diff_acls(*args, **kwargs):
    """SemanticDiff of two ACLs (:func:`repro.core.semantic_diff.diff_acls`).

    The BDD engine loads here, on the first component a memo cannot
    answer, so a fully warm run never imports it.
    """
    from .semantic_diff import diff_acls as diff

    return diff(*args, **kwargs)


def diff_route_maps(*args, **kwargs):
    """SemanticDiff of two route maps
    (:func:`repro.core.semantic_diff.diff_route_maps`), imported on
    first use like :func:`diff_acls`."""
    from .semantic_diff import diff_route_maps as diff

    return diff(*args, **kwargs)


def _component_label(name1: str, name2: str, prefix: str) -> str:
    """Readable component label covering differently-named pairings."""
    if name1 == name2:
        return f"{prefix} {name1}"
    return f"{prefix} {name1}/{name2}"


def config_diff(
    device1: DeviceConfig,
    device2: DeviceConfig,
    pairing: Optional[PolicyPairing] = None,
    exhaustive_communities: bool = False,
    node_limit: Optional[int] = None,
    time_budget: Optional[float] = None,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
) -> CampionReport:
    """Find and localize all differences between two router configurations.

    ``pairing`` overrides MatchPolicies' heuristics when supplied (the
    paper allows user-provided component correspondences).
    ``exhaustive_communities`` enables the §4 future-work extension:
    full DNF localization of the community dimension instead of one
    example.

    ``node_limit`` bounds BDD nodes per compared component and
    ``time_budget`` bounds this whole pair's wall clock; a component
    whose analysis trips either budget is recorded on
    ``report.aborted`` (its verdict is unknown) while every other
    component's result — still sound per Theorem 3.3 — stands.  With a
    ``memo``, a component that already aborted under the same budgets
    in this run is recorded aborted at once.  The report also carries both devices' error-severity parse diagnostics
    so downstream consumers can flag reduced coverage.

    ``memo`` enables fingerprint-keyed reuse: components whose memoized
    result is *no differences* are skipped (identical report, zero BDD
    work), localized entries matching this pair's provenance are
    replayed without recomputation, and fresh clean results are
    recorded for later pairs — the report itself is identical to a
    memo-less run.

    ``set_backend`` selects the SemanticDiff set-algebra backend by name
    (see :mod:`repro.core.setalg`); ``None`` uses ``atoms``.
    Reports are identical for every backend.
    """
    report, _ = _walk_components(
        device1,
        device2,
        pairing=pairing,
        exhaustive_communities=exhaustive_communities,
        node_limit=node_limit,
        time_budget=time_budget,
        memo=memo,
        collect=True,
        set_backend=set_backend,
    )
    return report


def config_diff_summary(
    device1: DeviceConfig,
    device2: DeviceConfig,
    pairing: Optional[PolicyPairing] = None,
    exhaustive_communities: bool = False,
    node_limit: Optional[int] = None,
    time_budget: Optional[float] = None,
    memo: Optional[DiffMemo] = None,
    set_backend: Optional[str] = None,
) -> int:
    """The pair's total difference count, replaying memoized components.

    Equals ``config_diff(...).total_differences()`` for the same inputs
    (same walk, same SemanticDiff/StructuralDiff on memo misses, no
    HeaderLocalize — localization never changes a difference count);
    with a warm memo a fully-shared pair costs MatchPolicies plus table
    lookups — no BDD work at all.  This is what the fleet matrix
    runs.

    A component aborted by ``node_limit`` or ``time_budget`` has no
    count, so the pair raises :class:`PairAborted` (:func:`pair_count`).
    """
    report, replayed = _walk_components(
        device1,
        device2,
        pairing=pairing,
        exhaustive_communities=exhaustive_communities,
        node_limit=node_limit,
        time_budget=time_budget,
        memo=memo,
        collect=False,
        set_backend=set_backend,
    )
    return pair_count(report) + replayed


def _walk_components(
    device1: DeviceConfig,
    device2: DeviceConfig,
    pairing: Optional[PolicyPairing],
    exhaustive_communities: bool,
    node_limit: Optional[int],
    time_budget: Optional[float],
    memo: Optional[DiffMemo],
    collect: bool,
    set_backend: Optional[str] = None,
) -> Tuple[CampionReport, int]:
    """The shared component walk behind both ConfigDiff entry points.

    Returns ``(report, replayed)`` where ``replayed`` counts memoized
    differences that were *not* materialized on the report (non-zero
    hits in count mode); in collect mode it is always 0.
    """
    if pairing is None:
        pairing = match_policies(device1, device2)
    fps1 = device1.fingerprints if memo is not None else None
    fps2 = device2.fingerprints if memo is not None else None

    report = CampionReport(router1=device1.hostname, router2=device2.hostname)
    report.unmatched = list(pairing.unmatched)
    for device in (device1, device2):
        errors = device.parse_errors()
        if errors:
            report.parse_diagnostics[device.hostname] = errors

    deadline = (
        time.monotonic() + time_budget if time_budget is not None else None
    )

    def _remaining(component: str, kind: ComponentKind) -> Optional[float]:
        """Seconds left in the pair budget; records an abort when spent."""
        if deadline is None:
            return None
        left = deadline - time.monotonic()
        if left <= 0:
            report.aborted.append(
                AbortedAnalysis(
                    kind=kind,
                    component=component,
                    reason=f"pair time budget of {time_budget:.1f}s exhausted",
                    resource="deadline",
                )
            )
            return 0.0
        return left

    def _semantic(
        kind: ComponentKind,
        pair,
        policy1,
        policy2,
        key: Optional[MemoKey],
        context: str,
        entry_context: str,
        prefix: str,
        diff,
    ) -> int:
        """SemanticDiff one matched ACL or route-map pair onto ``report``.

        A memo hit is replayed when it can be: as a count in count
        mode, as localized differences in collect mode when its
        provenance digest matches this pair.  Anything else runs
        ``diff`` under the pair budget (plus Present's localization in
        collect mode) and records the clean result under ``key`` with
        ``entry_context``, or the abort when a budget trips; a
        component the memo knows aborted under the same budgets is
        reported aborted without running.  Returns the differences
        replayed as a count only, which the caller adds to
        ``replayed``.
        """
        entry = provenance = None
        if memo is not None:
            entry = memo.get(key)
            if entry is not None:
                if entry["count"] == 0:
                    return 0  # nothing to add to any report
                if not collect:
                    return entry["count"]
            if collect:
                span_kind = "acl" if kind is ComponentKind.ACL else "route-map"
                provenance = provenance_digest(
                    device1.reachable_spans[(span_kind, pair.name1)],
                    device2.reachable_spans[(span_kind, pair.name2)],
                    context,
                    pair.name1,
                    pair.name2,
                )
            if (
                entry is not None
                and entry.get("localized")
                and entry.get("provenance") == provenance
            ):
                rebuilt = replay_semantic_differences(entry, device1, device2)
                report.semantic.extend(rebuilt)
                perf.add("memo.localization_replays", len(rebuilt))
                return 0
            # Otherwise collect mode recomputes live below (a hit whose
            # provenance differs came from a clone at other file
            # offsets; its localization would report the wrong lines).
        component = _component_label(pair.name1, pair.name2, prefix)
        if memo is not None:
            budget = (node_limit, time_budget)
            known = memo.known_abort(key, budget, collect)
            if known is not None:
                reason, resource = known
                report.aborted.append(
                    AbortedAnalysis(
                        kind=kind,
                        component=component,
                        reason=reason,
                        resource=resource,
                    )
                )
                return 0
        left = _remaining(component, kind)
        if left is not None and left <= 0:
            return 0
        from ..bdd.engine import AnalysisBudgetExceeded

        try:
            space, differences = diff(
                policy1,
                policy2,
                router1=device1.hostname,
                router2=device2.hostname,
                context=context,
                node_limit=node_limit,
                time_budget=left,
                set_backend=set_backend,
            )
            if collect:
                from . import present

                if kind is ComponentKind.ROUTE_MAP:
                    present.localize_route_map_differences(
                        space,
                        differences,
                        policy1,
                        policy2,
                        exhaustive_communities=exhaustive_communities,
                        backend=set_backend,
                    )
                else:
                    present.localize_acl_differences(
                        space, differences, policy1, policy2, backend=set_backend
                    )
        except AnalysisBudgetExceeded as exc:
            report.aborted.append(
                AbortedAnalysis(
                    kind=kind,
                    component=component,
                    reason=str(exc),
                    resource=exc.resource,
                )
            )
            if memo is not None:
                # Never a memo entry, but a repeat under the same
                # budget fails at once instead of spending it again.
                memo.put_abort(key, budget, collect, str(exc), exc.resource)
            return 0
        report.semantic.extend(differences)
        if memo is not None:
            if collect:
                localized = semantic_entry(
                    kind,
                    differences,
                    context=entry_context,
                    provenance=provenance,
                    replay=replay_augmentation(differences),
                )
                if entry is None:
                    memo.put(key, localized)
                elif not entry.get("localized"):
                    memo.upgrade(key, localized)
            elif entry is None:
                memo.put(key, semantic_entry(kind, differences, context=entry_context))
        return 0

    replayed = 0
    seen_route_map_pairs = set()
    for pair in pairing.route_map_pairs:
        dedup_key = (pair.name1, pair.name2)
        if dedup_key in seen_route_map_pairs:
            continue  # the same map pair applied to several neighbors
        seen_route_map_pairs.add(dedup_key)
        map1 = device1.route_maps.get(pair.name1)
        map2 = device2.route_maps.get(pair.name2)
        if map1 is None or map2 is None:
            # A referenced-but-undefined policy behaves as permit-all on
            # IOS; flag it as unmatched rather than guessing semantics.
            missing_name = pair.name1 if map1 is None else pair.name2
            present_on = device2.hostname if map1 is None else device1.hostname
            missing_on = device1.hostname if map1 is None else device2.hostname
            report.unmatched.append(
                UnmatchedPolicy(
                    kind=ComponentKind.ROUTE_MAP,
                    name=missing_name,
                    present_on=present_on,
                    missing_on=missing_on,
                    context=f"referenced by {pair.context} but not defined",
                )
            )
            continue
        key = None
        if memo is not None:
            key = route_map_key(
                fps1.route_maps[pair.name1],
                fps2.route_maps[pair.name2],
                exhaustive_communities,
            )
        replayed += _semantic(
            ComponentKind.ROUTE_MAP,
            pair,
            map1,
            map2,
            key,
            context=pair.context,
            entry_context=pair.context,
            prefix="route map",
            diff=diff_route_maps,
        )

    for pair in pairing.acl_pairs:
        key = None
        if memo is not None:
            key = acl_key(fps1.acls[pair.name1], fps2.acls[pair.name2])
        replayed += _semantic(
            ComponentKind.ACL,
            pair,
            device1.acls[pair.name1],
            device2.acls[pair.name2],
            key,
            context=f"ACL {pair.name1}",
            entry_context="",
            prefix="ACL",
            diff=diff_acls,
        )

    sentry = skey = None
    if memo is not None:
        skey = structural_key(fps1, fps2, pairing.ospf_interface_pairing)
        sentry = memo.get(skey)
    if sentry is not None and sentry["count"] == 0:
        pass  # structurally identical: report.structural stays []
    elif sentry is not None and not collect:
        replayed += sentry["count"]
    else:
        from .structural_diff import structural_diff_all

        report.structural = structural_diff_all(
            device1, device2, pairing.ospf_interface_pairing
        )
        if memo is not None and sentry is None:
            memo.put(skey, structural_entry(report.structural))
    return report, replayed
