"""Seeded property-based driver for the differential harness.

``run_selfcheck(seed, pairs)`` feeds the harness a round-robin of

* generated near-equivalent ACL pairs (``workloads/acl_gen.py``),
* random observability-safe route-map pairs (built here),
* text-mutated datacenter configs (``workloads/mutation.py``),
* memoization cross-checks — the same mutated pair analyzed fresh,
  through a cold :class:`~repro.core.memo.DiffMemo`, and through the
  warm memo again, asserting identical counts and reports (with a
  persistent cache attached when the CLI passes one),
* set-algebra backend cross-checks — the same generated component pair
  diffed and localized under every backend in
  :data:`repro.core.setalg.BACKEND_NAMES`, asserting the serialized
  differences, input-set satcounts, and localizations are identical,
  and
* fleet A/B cross-checks (``_FLEET_ROWS``) — a generated fleet run two
  ways through :func:`~repro.core.fleet.compare_fleet` and the
  serialized reports compared field by field: the seeded default path
  against the per-pair ``use_memo=False`` baseline (``fleet``), near
  compression against ``compress="off"`` on templated and
  parameterized fleets (``symmetry``, ``near-symmetry``; the latter
  runs the near path warm, so its reference reports are replayed memo
  fragments, and also checks the substitution-replay identity on full
  reports), and
  the same config *texts* pushed through a live in-thread analysis
  daemon (:class:`repro.service.ServiceThread`: submit, queue,
  supervised execution, poll) against the in-process report
  (``service``); one shared harness shrinks a divergence by dropping
  devices,

each derived deterministically from the run seed.  A failing check is
*shrunk* — lines, clauses, matches, and sets are removed greedily while
the same check keeps failing — and reported as a
:class:`SelfCheckFailure` whose reproducer names the case seed and the
minimal components, so one reported line re-runs the exact failure.

Route-map generation is *observability-safe*: set-action values are
drawn from pools disjoint from the evaluator's sentinel attribute
values and set-communities are never additive, so any two differing
path dispositions produce extensionally different output routes (the
behavioral witness check relies on this; arbitrary parsed configs get
the path-level checks only).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..model.acl import Acl, IpWildcard
from ..model.routemap import (
    Action,
    CommunityList,
    CommunityListEntry,
    MatchCommunities,
    MatchPrefixList,
    MatchProtocol,
    MatchTag,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
    SetCommunities,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetTag,
)
from ..model.types import Community, Prefix, PrefixRange
from ..core import setalg
from ..core.config_diff import config_diff, config_diff_summary
from ..core.fleet import compare_fleet
from ..core.memo import DiffMemo
from ..core.present import (
    localize_acl_differences,
    localize_route_map_differences,
)
from ..core.semantic_diff import diff_acls, diff_route_maps
from ..core.serialize import (
    dumps,
    fleet_report_to_dict,
    report_to_dict,
    semantic_difference_to_dict,
)
from ..parsers import parse_cisco, parse_config, parse_juniper
from ..workloads.acl_gen import generate_acl_pair
from ..workloads.datacenter import _cisco_tor, _juniper_tor
from ..workloads.mutation import apply_random_mutation
from .harness import CheckStats, OracleFailure, check_acl_pair, check_route_map_pair

__all__ = ["SelfCheckFailure", "SelfCheckResult", "run_selfcheck"]

_GENERATORS = (
    "acl",
    "routemap",
    "mutation",
    "memo",
    "backend",
    "localize",
    "fleet",
    "symmetry",
    "near-symmetry",
    "service",
)

#: Observability-safe value pools — all distinct from the evaluator's
#: sentinels (local-pref 77, med 7, community 65535:65535) and from the
#: matched-tag pool, so setting any of them is visible on the output route.
_LOCAL_PREFS = (50, 100, 150)
_MEDS = (5, 10)
_SET_TAGS = (1000, 2000)
_MATCH_TAGS = (10, 20)
_COMMUNITY_POOL = tuple(Community(65000, value) for value in (100, 200, 300))
_NEXT_HOPS = (0x0A000001, 0x0A000002)  # 10.0.0.1, 10.0.0.2
_PROTOCOLS = ("bgp", "ospf", "static")


@dataclass
class SelfCheckFailure:
    """One shrunk harness failure with everything needed to re-run it."""

    generator: str
    seed: int
    check: str
    detail: str
    reproducer: str

    def render(self) -> str:
        """Multi-line report block for the CLI / CI log."""
        lines = [
            f"FAILED [{self.generator}] case seed {self.seed}: {self.check}",
            f"  {self.detail}",
            "  minimal reproducer:",
        ]
        lines.extend("    " + line for line in self.reproducer.splitlines())
        return "\n".join(lines)


@dataclass
class SelfCheckResult:
    """Aggregate outcome of one selfcheck run."""

    seed: int
    pairs: int
    failures: List[SelfCheckFailure] = field(default_factory=list)
    differences: int = 0
    samples: int = 0
    witnesses: int = 0
    localizations: int = 0
    local_diffs: int = 0
    writer_checks: int = 0
    skipped: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        """Whether every pair survived every check."""
        return not self.failures

    def render(self) -> str:
        """Human-readable summary (plus reproducers on failure)."""
        lines = [
            f"selfcheck: {self.pairs} pairs, seed {self.seed} "
            f"({self.elapsed:.1f}s)",
            f"  differences checked: {self.differences}",
            f"  concrete samples:    {self.samples}",
            f"  witnesses decoded:   {self.witnesses}",
            f"  localizations:       {self.localizations}",
            f"  local-vs-full diffs: {self.local_diffs}",
            f"  writer-vs-json:      {self.writer_checks}",
        ]
        if self.skipped:
            lines.append(f"  skipped checks:      {len(self.skipped)}")
        if self.passed:
            lines.append("selfcheck PASSED: BDD pipeline agrees with the oracle")
        else:
            lines.append(f"selfcheck FAILED: {len(self.failures)} case(s)")
            for failure in self.failures:
                lines.append("")
                lines.append(failure.render())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Random observability-safe route maps
# ---------------------------------------------------------------------------


def _random_prefix_list(rng: random.Random, name: str) -> PrefixList:
    entries = []
    for _ in range(rng.randint(1, 3)):
        block = rng.choice((8, 16, 24))
        network = rng.choice((10, 172, 192)) << 24 | rng.randrange(4) << 16
        prefix = Prefix(network, block)
        low = rng.randint(prefix.length, 32)
        high = rng.randint(low, 32)
        entries.append(
            PrefixListEntry(
                action=Action.PERMIT if rng.random() < 0.8 else Action.DENY,
                range=PrefixRange(prefix, low, high),
            )
        )
    return PrefixList(name=name, entries=tuple(entries))


def _random_clause(rng: random.Random, index: int) -> RouteMapClause:
    matches: List = []
    if rng.random() < 0.85:
        matches.append(
            MatchPrefixList(_random_prefix_list(rng, f"PL{index}"))
        )
    if rng.random() < 0.35:
        size = rng.randint(1, 2)
        entries = tuple(
            CommunityListEntry(
                action=Action.PERMIT,
                communities=frozenset(rng.sample(_COMMUNITY_POOL, size)),
            )
            for _ in range(rng.randint(1, 2))
        )
        matches.append(MatchCommunities(CommunityList(f"CL{index}", entries)))
    if rng.random() < 0.2:
        matches.append(MatchTag(rng.choice(_MATCH_TAGS)))
    if rng.random() < 0.15:
        matches.append(MatchProtocol(rng.choice(_PROTOCOLS)))

    action = Action.PERMIT if rng.random() < 0.7 else Action.DENY
    sets: List = []
    if action is Action.PERMIT:
        if rng.random() < 0.6:
            sets.append(SetLocalPref(rng.choice(_LOCAL_PREFS)))
        if rng.random() < 0.3:
            sets.append(SetMed(rng.choice(_MEDS)))
        if rng.random() < 0.3:
            sets.append(
                SetCommunities(
                    frozenset(
                        rng.sample(_COMMUNITY_POOL, rng.randint(1, 2))
                    ),
                    additive=False,
                )
            )
        if rng.random() < 0.2:
            sets.append(SetTag(rng.choice(_SET_TAGS)))
        if rng.random() < 0.2:
            sets.append(SetNextHop(rng.choice(_NEXT_HOPS)))
    return RouteMapClause(
        name=f"clause-{index}",
        action=action,
        matches=tuple(matches),
        sets=tuple(sets),
    )


def _random_route_map(rng: random.Random, name: str) -> RouteMap:
    clauses = tuple(
        _random_clause(rng, index) for index in range(rng.randint(1, 4))
    )
    default = Action.PERMIT if rng.random() < 0.3 else Action.DENY
    return RouteMap(name=name, clauses=clauses, default_action=default)


def _perturb_route_map(route_map: RouteMap, rng: random.Random) -> RouteMap:
    """A near-copy with one seeded difference (or none — also a valid case)."""
    choice = rng.randrange(5)
    clauses = list(route_map.clauses)
    if choice == 0 and clauses:
        index = rng.randrange(len(clauses))
        clause = clauses[index]
        flipped = Action.DENY if clause.action is Action.PERMIT else Action.PERMIT
        clauses[index] = dataclasses.replace(clause, action=flipped, sets=())
    elif choice == 1 and clauses:
        del clauses[rng.randrange(len(clauses))]
    elif choice == 2 and clauses:
        index = rng.randrange(len(clauses))
        clause = clauses[index]
        if clause.action is Action.PERMIT:
            clauses[index] = dataclasses.replace(
                clause, sets=(SetLocalPref(rng.choice(_LOCAL_PREFS)),)
            )
    elif choice == 3:
        return dataclasses.replace(
            route_map,
            default_action=(
                Action.PERMIT
                if route_map.default_action is Action.DENY
                else Action.DENY
            ),
        )
    # choice == 4: identical copy — equivalence must also survive the checks.
    return dataclasses.replace(route_map, clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _shrink_acl_pair(
    acl1: Acl,
    acl2: Acl,
    fails: Callable[[Acl, Acl], bool],
) -> Tuple[Acl, Acl]:
    """Greedily remove ACL lines while the same check keeps failing."""
    progress = True
    while progress:
        progress = False
        for which in (0, 1):
            acl = (acl1, acl2)[which]
            for index in range(len(acl.lines)):
                candidate = dataclasses.replace(
                    acl, lines=acl.lines[:index] + acl.lines[index + 1 :]
                )
                pair = (candidate, acl2) if which == 0 else (acl1, candidate)
                if fails(*pair):
                    acl1, acl2 = pair
                    progress = True
                    break
            if progress:
                break
    return acl1, acl2


def _clause_reductions(clause: RouteMapClause) -> List[RouteMapClause]:
    """All one-step simplifications of a clause (drop one match or set)."""
    reduced = []
    for index in range(len(clause.matches)):
        reduced.append(
            dataclasses.replace(
                clause,
                matches=clause.matches[:index] + clause.matches[index + 1 :],
            )
        )
    for index in range(len(clause.sets)):
        reduced.append(
            dataclasses.replace(
                clause, sets=clause.sets[:index] + clause.sets[index + 1 :]
            )
        )
    return reduced


def _shrink_route_map_pair(
    map1: RouteMap,
    map2: RouteMap,
    fails: Callable[[RouteMap, RouteMap], bool],
) -> Tuple[RouteMap, RouteMap]:
    """Greedily drop clauses, then matches/sets, while the check fails."""
    progress = True
    while progress:
        progress = False
        for which in (0, 1):
            route_map = (map1, map2)[which]
            candidates: List[RouteMap] = []
            for index in range(len(route_map.clauses)):
                candidates.append(
                    dataclasses.replace(
                        route_map,
                        clauses=route_map.clauses[:index]
                        + route_map.clauses[index + 1 :],
                    )
                )
            for index, clause in enumerate(route_map.clauses):
                for reduced in _clause_reductions(clause):
                    clauses = list(route_map.clauses)
                    clauses[index] = reduced
                    candidates.append(
                        dataclasses.replace(route_map, clauses=tuple(clauses))
                    )
            for candidate in candidates:
                pair = (candidate, map2) if which == 0 else (map1, candidate)
                if fails(*pair):
                    map1, map2 = pair
                    progress = True
                    break
            if progress:
                break
    return map1, map2


# ---------------------------------------------------------------------------
# Reproducer rendering
# ---------------------------------------------------------------------------


def _render_acl(acl: Acl) -> List[str]:
    lines = [f"acl {acl.name} (default {acl.default_action}):"]
    lines.extend(f"  {line.describe()}" for line in acl.lines)
    return lines


def _render_route_map(route_map: RouteMap) -> List[str]:
    lines = [f"route-map {route_map.name} (default {route_map.default_action}):"]
    for clause in route_map.clauses:
        lines.append(f"  {clause.name} {clause.action}")
        for condition in clause.matches:
            if isinstance(condition, MatchPrefixList):
                entries = " ".join(
                    f"{entry.action} {entry.range}"
                    for entry in condition.prefix_list.entries
                )
                lines.append(f"    match prefix-list [{entries}]")
            elif isinstance(condition, MatchCommunities):
                entries = " | ".join(
                    entry.regex
                    if entry.regex is not None
                    else "{" + " ".join(sorted(map(str, entry.communities))) + "}"
                    for entry in condition.community_list.entries
                )
                lines.append(f"    match community [{entries}]")
            elif isinstance(condition, MatchTag):
                lines.append(f"    match tag {condition.tag}")
            elif isinstance(condition, MatchProtocol):
                lines.append(f"    match protocol {condition.protocol}")
            else:
                lines.append(f"    match {condition!r}")
        for set_action in clause.sets:
            lines.append(f"    {set_action.describe()}")
    return lines


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _same_failure(check: str, run: Callable[[], CheckStats]) -> bool:
    try:
        run()
    except OracleFailure as failure:
        return failure.check == check
    except Exception:  # noqa: BLE001 - a shrunk pair may fail differently
        return False
    return False


def _run_acl_case(
    case_seed: int, result: SelfCheckResult
) -> Optional[SelfCheckFailure]:
    rng = random.Random(case_seed)
    pair = generate_acl_pair(
        rule_count=rng.randint(6, 16),
        differences=rng.randint(0, 4),
        seed=case_seed,
    )
    acl1, acl2 = pair.cisco_acl, pair.juniper_acl

    def check(a1: Acl, a2: Acl) -> CheckStats:
        return check_acl_pair(
            a1, a2, rng=random.Random(case_seed), sample_budget=64
        )

    try:
        _merge(result, check(acl1, acl2))
        return None
    except OracleFailure as failure:
        shrunk1, shrunk2 = _shrink_acl_pair(
            acl1, acl2, lambda a1, a2: _same_failure(failure.check, lambda: check(a1, a2))
        )
        reproducer = "\n".join(_render_acl(shrunk1) + _render_acl(shrunk2))
        return SelfCheckFailure(
            "acl", case_seed, failure.check, failure.detail, reproducer
        )


def _run_route_map_case(
    case_seed: int, result: SelfCheckResult
) -> Optional[SelfCheckFailure]:
    rng = random.Random(case_seed)
    map1 = _random_route_map(rng, "RM1")
    if rng.random() < 0.7:
        map2 = dataclasses.replace(_perturb_route_map(map1, rng), name="RM2")
    else:
        map2 = _random_route_map(rng, "RM2")

    def check(m1: RouteMap, m2: RouteMap) -> CheckStats:
        return check_route_map_pair(
            m1, m2, rng=random.Random(case_seed), sample_budget=64, behavioral=True
        )

    try:
        _merge(result, check(map1, map2))
        return None
    except OracleFailure as failure:
        shrunk1, shrunk2 = _shrink_route_map_pair(
            map1, map2, lambda m1, m2: _same_failure(failure.check, lambda: check(m1, m2))
        )
        reproducer = "\n".join(_render_route_map(shrunk1) + _render_route_map(shrunk2))
        return SelfCheckFailure(
            "routemap", case_seed, failure.check, failure.detail, reproducer
        )


def _run_mutation_case(
    case_seed: int, result: SelfCheckResult
) -> Optional[SelfCheckFailure]:
    rng = random.Random(case_seed)
    pair_index = rng.randrange(4)
    if rng.random() < 0.5:
        text = _cisco_tor(pair_index, spine_count=2)
        parse = parse_cisco
    else:
        text = _juniper_tor(pair_index, spine_count=2)
        parse = parse_juniper
    mutation = apply_random_mutation(text, seed=case_seed)
    mutated_text = mutation.text if mutation is not None else text
    device1 = parse(text, "original.cfg")
    device2 = parse(mutated_text, "mutated.cfg")

    for name in sorted(set(device1.route_maps) & set(device2.route_maps)):
        map1, map2 = device1.route_maps[name], device2.route_maps[name]

        def check(m1: RouteMap, m2: RouteMap) -> CheckStats:
            # Parsed configs are not observability-safe: path-level only.
            return check_route_map_pair(
                m1, m2, rng=random.Random(case_seed), sample_budget=48,
                behavioral=False,
            )

        try:
            _merge(result, check(map1, map2))
        except OracleFailure as failure:
            shrunk1, shrunk2 = _shrink_route_map_pair(
                map1,
                map2,
                lambda m1, m2: _same_failure(failure.check, lambda: check(m1, m2)),
            )
            reproducer = "\n".join(
                [f"mutation: {mutation.description if mutation else '(none)'}"]
                + _render_route_map(shrunk1)
                + _render_route_map(shrunk2)
            )
            return SelfCheckFailure(
                "mutation", case_seed, failure.check, failure.detail, reproducer
            )
    for name in sorted(set(device1.acls) & set(device2.acls)):
        acl1, acl2 = device1.acls[name], device2.acls[name]

        def check_acls(a1: Acl, a2: Acl) -> CheckStats:
            return check_acl_pair(
                a1, a2, rng=random.Random(case_seed), sample_budget=48
            )

        try:
            _merge(result, check_acls(acl1, acl2))
        except OracleFailure as failure:
            shrunk1, shrunk2 = _shrink_acl_pair(
                acl1,
                acl2,
                lambda a1, a2: _same_failure(failure.check, lambda: check_acls(a1, a2)),
            )
            reproducer = "\n".join(
                [f"mutation: {mutation.description if mutation else '(none)'}"]
                + _render_acl(shrunk1)
                + _render_acl(shrunk2)
            )
            return SelfCheckFailure(
                "mutation", case_seed, failure.check, failure.detail, reproducer
            )
    return None


def _run_memo_case(
    case_seed: int, result: SelfCheckResult, cache=None
) -> Optional[SelfCheckFailure]:
    """Cross-validate memoized analysis against a fresh recompute.

    The same mutated device pair is diffed four ways — fresh (no memo),
    cold memo, warm memo replay, and full report through the warm memo —
    and the case fails unless every count agrees and the memoized
    report serializes identically to the fresh one.  When the CLI hands
    a persistent :class:`~repro.cache.ArtifactCache` in, the memo reads
    and writes through it, so on-disk entries get the same scrutiny.
    """
    rng = random.Random(case_seed)
    pair_index = rng.randrange(4)
    if rng.random() < 0.5:
        text = _cisco_tor(pair_index, spine_count=2)
        parse = parse_cisco
    else:
        text = _juniper_tor(pair_index, spine_count=2)
        parse = parse_juniper
    mutation = apply_random_mutation(text, seed=case_seed)
    mutated_text = mutation.text if mutation is not None else text
    device1 = parse(text, "original.cfg")
    device2 = parse(mutated_text, "mutated.cfg")
    label = f"mutation: {mutation.description if mutation else '(none)'}"

    memo = DiffMemo(cache)
    fresh = config_diff(device1, device2)
    fresh_count = fresh.total_differences()
    cold = config_diff_summary(device1, device2, memo=memo)
    warm = config_diff_summary(device1, device2, memo=memo)
    live = config_diff(device1, device2, memo=memo)
    if not (fresh_count == cold == warm == live.total_differences()):
        return SelfCheckFailure(
            "memo",
            case_seed,
            "memo-count-parity",
            f"fresh={fresh_count} cold-memo={cold} warm-memo={warm} "
            f"live-memo={live.total_differences()}",
            label,
        )
    if report_to_dict(fresh) != report_to_dict(live):
        return SelfCheckFailure(
            "memo",
            case_seed,
            "memo-report-identity",
            "memoized report serializes differently from the fresh report",
            label,
        )
    result.differences += fresh_count
    return None


def _localized_differences(
    kind: str,
    component1,
    component2,
    set_backend: Optional[str],
    backend: str,
) -> List[dict]:
    """Diff one component pair under ``set_backend`` and localize under
    ``backend``, serialized.

    Both backends are explicit arguments.  Each call builds a fresh space
    (fresh BDD manager), so runs share no cached state whatsoever; the
    serialized dicts are manager-independent, which is what makes them
    comparable.  Satcounts of the raw input sets ride along — the dict's
    localization view could in principle coarsen an input-set
    discrepancy away.
    """
    if kind == "acl":
        space, differences = diff_acls(
            component1, component2, set_backend=set_backend
        )
        localize_acl_differences(
            space, differences, component1, component2, backend=backend
        )
    else:
        space, differences = diff_route_maps(
            component1, component2, set_backend=set_backend
        )
        localize_route_map_differences(
            space, differences, component1, component2, backend=backend
        )
    payload = []
    for difference in differences:
        entry = semantic_difference_to_dict(difference)
        entry["input_satcount"] = difference.input_set.satcount()
        payload.append(entry)
    return payload


def _backend_mismatch(kind: str, component1, component2) -> Optional[str]:
    """One-line description of any bdd/atoms divergence, else ``None``."""
    reports = {
        name: _localized_differences(kind, component1, component2, name, name)
        for name in setalg.BACKEND_NAMES
    }
    baseline = reports["bdd"]
    for name in setalg.BACKEND_NAMES[1:]:
        report = reports[name]
        if len(baseline) != len(report):
            return (
                f"bdd found {len(baseline)} difference(s), "
                f"{name} found {len(report)}"
            )
        for index, (entry1, entry2) in enumerate(zip(baseline, report)):
            if entry1 != entry2:
                keys = sorted(
                    key
                    for key in set(entry1) | set(entry2)
                    if entry1.get(key) != entry2.get(key)
                )
                return (
                    f"difference #{index} diverges between bdd and {name} "
                    f"(fields: {', '.join(keys)})"
                )
    return None


def _localization_mismatch(kind: str, component1, component2) -> Optional[str]:
    """One-line description of any bdd/atoms localization divergence.

    Compared term-for-term: two localizations only agree when their
    flat terms (positive range and subtracted ranges alike) match in
    order and content, for the main localization and every extra
    dimension.
    """
    payloads = {
        name: _localized_differences(kind, component1, component2, None, name)
        for name in ("bdd", "atoms")
    }
    baseline, candidate = payloads["bdd"], payloads["atoms"]
    if len(baseline) != len(candidate):
        return (
            f"bdd localized {len(baseline)} difference(s), "
            f"atoms localized {len(candidate)}"
        )
    for index, (entry1, entry2) in enumerate(zip(baseline, candidate)):
        loc1, loc2 = entry1.get("localization"), entry2.get("localization")
        if loc1 != loc2:
            terms1 = (loc1 or {}).get("terms", [])
            terms2 = (loc2 or {}).get("terms", [])
            for position, (term1, term2) in enumerate(zip(terms1, terms2)):
                if term1 != term2:
                    return (
                        f"difference #{index} localization term #{position} "
                        f"diverges: bdd={term1!r} atoms={term2!r}"
                    )
            return (
                f"difference #{index} localization diverges "
                f"({len(terms1)} vs {len(terms2)} term(s))"
            )
        extras1 = entry1.get("extra_localizations") or {}
        extras2 = entry2.get("extra_localizations") or {}
        if extras1 != extras2:
            keys = sorted(
                key
                for key in set(extras1) | set(extras2)
                if extras1.get(key) != extras2.get(key)
            )
            return (
                f"difference #{index} extra localization diverges "
                f"(dimensions: {', '.join(keys)})"
            )
    return None


def _tally_backend(kind: str, component1, component2, result) -> None:
    result.differences += len(
        _localized_differences(kind, component1, component2, "bdd", "bdd")
    )


def _tally_localize(kind: str, component1, component2, result) -> None:
    payload = _localized_differences(kind, component1, component2, None, "bdd")
    result.differences += len(payload)
    result.localizations += sum(
        1 for entry in payload if entry.get("localization") is not None
    )


@dataclass(frozen=True)
class _ComponentRow:
    """One component cross-check: run a generated pair two ways, compare.

    ``mismatch(kind, component1, component2)`` returns a one-line
    divergence or ``None``; ``tally`` adds a passing case's counts to
    the result.
    """

    check: str
    mismatch: Callable[..., Optional[str]]
    tally: Callable[..., None]


#: The component A/B cross-checks, by generator name:
#:
#: * ``backend`` diffs and localizes the pair under each set-algebra
#:   backend in isolation; the serialized difference lists (action
#:   pairs, localization spans, header ranges, examples) and the raw
#:   input-set satcounts must agree exactly.
#: * ``localize`` diffs the pair once per backend name, then localizes
#:   with the localization algebra forced to ``bdd`` and to ``atoms``;
#:   every flat term, included/excluded range, and extra dimension must
#:   agree exactly.
_COMPONENT_ROWS = {
    "backend": _ComponentRow(
        "backend-equivalence", _backend_mismatch, _tally_backend
    ),
    "localize": _ComponentRow(
        "localization-equivalence", _localization_mismatch, _tally_localize
    ),
}


#: Share of generated ACL component cases whose first ACL gets one
#: discontiguous address wildcard.  The generator emits only
#: Juniper-expressible prefixes, so without these no case reaches the
#: branch where a straddling address dimension localizes to ``None``.
_DISCONTIGUOUS_SHARE = 0.3


def _with_discontiguous_wildcard(acl: Acl, rng: random.Random) -> Acl:
    """``acl`` with one line's source or destination made discontiguous.

    A don't-care bit is added above the lowest cared-for bit of a
    prefix of length two or more, so that line's address set is no
    longer a prefix.  Returns ``acl`` unchanged when no line has one.
    """
    candidates = [
        (index, side)
        for index, line in enumerate(acl.lines)
        for side in ("src", "dst")
        if (getattr(line, side).as_prefix() or Prefix(0, 0)).length >= 2
    ]
    if not candidates:
        return acl
    index, side = rng.choice(candidates)
    line = acl.lines[index]
    wildcard = getattr(line, side)
    length = wildcard.as_prefix().length
    hole = 1 << (31 - rng.randrange(length - 1))
    changed = dataclasses.replace(
        line,
        **{side: IpWildcard(wildcard.address, wildcard.wildcard | hole)},
    )
    lines = acl.lines[:index] + (changed,) + acl.lines[index + 1 :]
    return dataclasses.replace(acl, lines=lines)


def _run_component_case(
    name: str, case_seed: int, result: SelfCheckResult
) -> Optional[SelfCheckFailure]:
    """Run one ``_COMPONENT_ROWS`` cross-check on a generated ACL or
    route-map pair; shrink a divergence to a minimal reproducer."""
    row = _COMPONENT_ROWS[name]
    rng = random.Random(case_seed)
    if rng.random() < 0.5:
        pair = generate_acl_pair(
            rule_count=rng.randint(6, 16),
            differences=rng.randint(0, 4),
            seed=case_seed,
        )
        kind, component1, component2 = "acl", pair.cisco_acl, pair.juniper_acl
        if rng.random() < _DISCONTIGUOUS_SHARE:
            component1 = _with_discontiguous_wildcard(component1, rng)
    else:
        kind = "routemap"
        component1 = _random_route_map(rng, "RM1")
        if rng.random() < 0.7:
            component2 = dataclasses.replace(
                _perturb_route_map(component1, rng), name="RM2"
            )
        else:
            component2 = _random_route_map(rng, "RM2")

    detail = row.mismatch(kind, component1, component2)
    if detail is None:
        row.tally(kind, component1, component2, result)
        return None

    def fails(c1, c2) -> bool:
        try:
            return row.mismatch(kind, c1, c2) is not None
        except Exception:  # noqa: BLE001 - a shrunk pair may fail differently
            return False

    if kind == "acl":
        shrunk1, shrunk2 = _shrink_acl_pair(component1, component2, fails)
        reproducer = "\n".join(_render_acl(shrunk1) + _render_acl(shrunk2))
    else:
        shrunk1, shrunk2 = _shrink_route_map_pair(component1, component2, fails)
        reproducer = "\n".join(
            _render_route_map(shrunk1) + _render_route_map(shrunk2)
        )
    final_detail = row.mismatch(kind, shrunk1, shrunk2) or detail
    return SelfCheckFailure(name, case_seed, row.check, final_detail, reproducer)


# ---------------------------------------------------------------------------
# Fleet A/B harness: the fleet, symmetry, near-symmetry, and service rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FleetRow:
    """One fleet cross-check: build a fleet, run it two ways, compare.

    ``run_a`` and ``run_b`` take ``(env, devices)`` — ``env`` is what
    ``context`` yields for the case (the live service URL, or ``None``)
    — and return serialized fleet reports, which must be identical.
    ``replay_check`` adds a finding beyond report identity; ``shrink``
    proposes one extra shrinking step when dropping devices stalls.
    """

    check: str
    label: str
    build: Callable[[random.Random, int], list]
    run_a: Callable[[object, list], dict]
    run_b: Callable[[object, list], dict]
    context: Callable[[], ContextManager] = contextlib.nullcontext
    replay_check: Optional[Callable[[list], Optional[str]]] = None
    shrink: Optional[Callable[[list, Callable[[list], bool]], Optional[list]]] = None


def _default_report(env, devices) -> dict:
    """The default path (near compression, memo on), serialized."""
    return fleet_report_to_dict(compare_fleet(devices))


def _per_pair_report(env, devices) -> dict:
    """Memo off: every pair recomputed, no fleet-scale seeding."""
    return fleet_report_to_dict(compare_fleet(devices, use_memo=False))


def _warm_report(env, devices) -> dict:
    """The default path run twice over one memo, serialized.  The second
    run's reference reports replay the localized fragments the first
    stored, as a warm CLI run does; it must serialize exactly as the
    first (cold) run did."""
    memo = DiffMemo()
    cold = json.dumps(fleet_report_to_dict(compare_fleet(devices, memo=memo)))
    warm = fleet_report_to_dict(compare_fleet(devices, memo=memo))
    if json.dumps(warm) != cold:
        raise RuntimeError("the warm near report differs from the cold one")
    return warm


def _uncompressed_report(env, devices) -> dict:
    """Compression off: every matrix pair analyzed."""
    return fleet_report_to_dict(compare_fleet(devices, compress="off"))


def _live_report(env, devices) -> dict:
    """Compression and the memo off: every pair analyzed and every
    reference report computed live, nothing replayed."""
    return fleet_report_to_dict(
        compare_fleet(devices, compress="off", use_memo=False)
    )


def _config_texts(devices) -> List[dict]:
    return [
        {
            "name": f"{device.hostname}.cfg",
            "text": "\n".join(device.raw_lines) + "\n",
        }
        for device in devices
    ]


def _reparsed_report(env, devices) -> dict:
    """The default path over the rendered texts the service receives,
    so the comparison covers the service's parse path too."""
    parsed = [
        parse_config(config["text"], filename=config["name"], dialect="auto")
        for config in _config_texts(devices)
    ]
    return _default_report(env, parsed)


def _service_report(url, devices) -> dict:
    return _service_roundtrip(url, _config_texts(devices))["report"]


@contextlib.contextmanager
def _live_service() -> Iterator[str]:
    """A throwaway in-thread daemon: ephemeral port, temp journal, cache
    disabled so every run is cold.  Yields its base URL."""
    import tempfile

    from ..service import ServiceConfig, ServiceThread

    with tempfile.TemporaryDirectory(prefix="campion-oracle-") as tmp:
        config = ServiceConfig(
            port=0,
            journal_path=f"{tmp}/journal.jsonl",
            no_cache=True,
            job_concurrency=1,
        )
        with ServiceThread(config) as service:
            yield service.url


def _build_gateway_fleet(
    rng: random.Random, case_seed: int, counts=(4, 7), rules=(8, 16)
) -> list:
    """Cross-vendor clones of one rule list plus distinct outliers."""
    from ..workloads.datacenter import gateway_fleet

    count = rng.randint(*counts)
    devices, _ = gateway_fleet(
        count=count,
        outliers=rng.randint(0, count - 1),
        rule_count=rng.randint(*rules),
        seed=case_seed,
    )
    return devices


def _build_symmetry_fleet(rng: random.Random, case_seed: int) -> list:
    """The gateway fleet (a mix of multi-member and singleton
    fingerprint classes) or the templated Clos fleet (a few role
    templates stamped onto many hostnames — heavy compression)."""
    from ..workloads.datacenter import templated_clos_fleet

    if rng.random() < 0.5:
        return _build_gateway_fleet(rng, case_seed)
    count = rng.randint(4, 8)
    devices, _ = templated_clos_fleet(
        count=count,
        roles=rng.randint(1, min(3, count)),
        rule_count=rng.randint(6, 12),
        seed=case_seed,
    )
    return devices


def _build_near_fleet(rng: random.Random, case_seed: int) -> list:
    """The parameterized Clos (unique per-device loopbacks/subnets/
    peers — fingerprint classes find nothing, so every collapsed pair
    exercises the template-signature replay), randomly with a
    byte-identical clone stamped in (a fingerprint class inside a
    template class) and an *alias substitution*: one device's IP
    literal rewritten onto another of its own, changing the joint
    equality pattern, which the signature partition must refuse to
    replay across."""
    from ..workloads.datacenter import parameterized_clos_fleet

    count = rng.randint(4, 9)
    devices, _ = parameterized_clos_fleet(
        count=count,
        roles=rng.randint(1, min(3, count)),
        rule_count=rng.randint(4, 10),
        seed=case_seed,
        acls=rng.randint(1, 2),
        uplinks=rng.randint(1, 3),
    )
    if rng.random() < 0.4:
        source = rng.choice(devices)
        clone_text = "\n".join(source.raw_lines).replace(
            source.hostname, "pclosxx"
        )
        devices.append(parse_cisco(clone_text, "pclosxx.cfg"))
    if rng.random() < 0.4:
        index = rng.randrange(len(devices))
        mutated = _alias_one_literal(devices[index], rng)
        if mutated is not None:
            devices[index] = mutated
    return devices


_NEAR_IP_TOKEN = re.compile(r"(?<![\d.])(?:\d{1,3}\.){3}\d{1,3}(?![\d.])")


def _order_canonical(report: dict) -> dict:
    """Sort each top-level finding list into a literal-independent order.

    Serialized reports order findings by their concrete literals, so a
    non-monotone substitution permutes entries without changing any of
    them; sorting by JSON encoding makes the replay comparison
    order-insensitive at the top level while every entry stays
    compared exactly.
    """
    return {
        key: sorted(value, key=json.dumps)
        if isinstance(value, list)
        else value
        for key, value in report.items()
    }


def _substitution_replay_mismatch(devices) -> Optional[str]:
    """One-line description of a substitution-replay violation.

    When two same-template device pairs admit raw substitutions *and
    induce the same joint equality pattern over their hole atoms* (the
    theorem's precondition — a clone pair and a distinct-literal pair
    are not replay-equivalent even though each device maps
    individually), the first pair's live report rewritten through the
    substitutions must equal the second pair's live report *up to entry
    order*: the serializer orders findings by their concrete literals,
    and a non-monotone substitution permutes that order without
    changing any finding.
    """
    from ..core.near_symmetry import pair_pattern, raw_substitution
    from ..core.replay import rewrite_fragment

    # (a, b) rewritten through per-device substitutions must equal the
    # live (c, d) report, for same-template a->c, b->d.
    groups: dict = {}
    for device in devices:
        groups.setdefault(device.template.fingerprint, []).append(device)
    multi = [
        sorted(group, key=lambda d: d.hostname)
        for group in groups.values()
        if len(group) >= 2
    ]
    multi.sort(key=lambda group: group[0].hostname)
    if multi and len(multi[0]) >= 4:
        quad = (multi[0][0], multi[0][2], multi[0][1], multi[0][3])
    elif len(multi) >= 2:
        quad = (multi[0][0], multi[1][0], multi[0][1], multi[1][1])
    else:
        return None
    first, second, first_image, second_image = quad
    # Oriented-pattern equality is the replay precondition; the
    # report-level identity only holds when the pairs agree on which
    # hole atoms coincide within and across the two sides.
    same_pattern = pair_pattern(
        first.template.atom_sequence, second.template.atom_sequence
    ) == pair_pattern(
        first_image.template.atom_sequence,
        second_image.template.atom_sequence,
    )
    sub1 = raw_substitution(first, first_image)
    sub2 = raw_substitution(second, second_image)
    if not same_pattern or sub1 is None or sub2 is None:
        return None
    mapping = dict(sub1)
    if any(mapping.get(key, value) != value for key, value in sub2.items()):
        return None
    mapping.update(sub2)
    replayed = rewrite_fragment(
        report_to_dict(config_diff(first, second)), literals=mapping
    )
    live = report_to_dict(config_diff(first_image, second_image))
    if _order_canonical(replayed) != _order_canonical(live):
        return (
            "substitution-replayed report for"
            f" ({first.hostname}, {second.hostname}) !="
            " live report for"
            f" ({first_image.hostname}, {second_image.hostname})"
        )
    return None


def _clone_shrink(devices: list, fails: Callable[[list], bool]) -> Optional[list]:
    """Replace one device with a hostname-renamed clone of another
    (collapsing two distinct substitutions into one fingerprint class)
    while the mismatch holds.  Only accepted when it strictly reduces
    the number of distinct device contents (modulo hostname) —
    otherwise clone swaps could cycle forever without converging."""

    def distinct_contents(fleet) -> int:
        return len(
            {
                "\n".join(device.raw_lines).replace(device.hostname, "HOSTNAME")
                for device in fleet
            }
        )

    before = distinct_contents(devices)
    for index, target in enumerate(devices):
        for source in devices:
            if source.hostname == target.hostname:
                continue
            clone_text = "\n".join(source.raw_lines).replace(
                source.hostname, target.hostname
            )
            try:
                clone = parse_cisco(clone_text, target.filename)
            except Exception:  # noqa: BLE001 - mixed-vendor text
                continue
            candidate = list(devices)
            candidate[index] = clone
            if distinct_contents(candidate) < before and fails(candidate):
                return candidate
    return None


def _alias_one_literal(device, rng) -> Optional["object"]:
    """Rewrite one IPv4 literal of ``device`` onto another of its own.

    This aliases two previously-distinct substitution values, changing
    the device's joint equality pattern against its template class —
    the exact situation the signature partition must analyze separately
    instead of replaying.  Returns the re-parsed device, or ``None``
    when the mutation does not parse (e.g. an address swapped into a
    netmask position).
    """
    text = "\n".join(device.raw_lines)
    literals = sorted(set(_NEAR_IP_TOKEN.findall(text)))
    if len(literals) < 2:
        return None
    source, target = rng.sample(literals, 2)
    mutated = re.sub(
        rf"(?<![\d.]){re.escape(source)}(?![\d.])", target, text
    )
    try:
        return parse_cisco(mutated, device.filename)
    except Exception:  # noqa: BLE001 - swapped literal may be malformed
        return None


def _service_roundtrip(url: str, configs) -> dict:
    """Push config texts through the live daemon; the result document.

    Raises on any non-success path (HTTP error, job failure, poll
    timeout) — the service case treats those as failures too, not just
    report divergence.
    """
    import urllib.request

    request = urllib.request.Request(
        url + "/v1/fleet",
        data=json.dumps({"configs": configs, "tenant": "oracle"}).encode(
            "utf-8"
        ),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        job_id = json.loads(response.read())["job"]["id"]
    deadline = time.time() + 120.0
    while time.time() < deadline:
        with urllib.request.urlopen(
            f"{url}/v1/jobs/{job_id}", timeout=30
        ) as response:
            document = json.loads(response.read())
        state = document["job"]["state"]
        if state == "done":
            return document["result"]
        if state in ("failed", "dead-letter"):
            raise RuntimeError(
                f"service job {state}: {document['job']['error']}"
            )
        time.sleep(0.05)
    raise RuntimeError("service job did not finish within 120s")


_FLEET_ROWS: Dict[str, _FleetRow] = {
    # The seeding path end to end — missing-pair collection, universe
    # fold, memo seeding, matrix replay, election, reference reports —
    # against recomputing every pair.
    "fleet": _FleetRow(
        check="fleet-seeding-equivalence",
        label="the seeded default path and per-pair atoms",
        build=_build_gateway_fleet,
        run_a=_default_report,
        run_b=_per_pair_report,
    ),
    # Compression (fingerprint partition, signature planning, count and
    # failure expansion) against the uncompressed matrix.
    "symmetry": _FleetRow(
        check="compression-report-identity",
        label="near compression and the uncompressed run",
        build=_build_symmetry_fleet,
        run_a=_default_report,
        run_b=_uncompressed_report,
    ),
    # The same identity on parameterized fleets with the near path
    # warm (reference reports from replayed fragments) against a run
    # that replays nothing, plus the substitution-replay identity on
    # full reports.
    "near-symmetry": _FleetRow(
        check="near-compression-report-identity",
        label="warm near compression and the live uncompressed run",
        build=_build_near_fleet,
        run_a=_warm_report,
        run_b=_live_report,
        replay_check=_substitution_replay_mismatch,
        shrink=_clone_shrink,
    ),
    # The real submit/queue/supervise/poll path of a live daemon.
    "service": _FleetRow(
        check="service-report-identity",
        label="in-process compare_fleet and the HTTP service",
        build=functools.partial(
            _build_gateway_fleet, counts=(3, 5), rules=(6, 12)
        ),
        run_a=_reparsed_report,
        run_b=_service_report,
        context=_live_service,
    ),
}


_WRITER_CHECK = "writer-vs-json"


def _writer_mismatch(report: dict) -> Optional[str]:
    """The ``writer-vs-json`` check: the report writer's bytes against
    the stdlib's ``json.dumps(report, indent=2)``."""
    written = dumps(report)
    expected = json.dumps(report, indent=2)
    if written == expected:
        return None
    at = len(os.path.commonprefix([written, expected]))
    return (
        f"{_WRITER_CHECK}: report writer differs from json.dumps(indent=2)"
        f" at byte {at}: {written[at:at + 40]!r} != {expected[at:at + 40]!r}"
    )


def _fleet_mismatch(
    row: _FleetRow, env, devices, result: Optional[SelfCheckResult] = None
) -> Tuple[Optional[str], Optional[dict]]:
    """A one-line divergence description (or ``None``), plus the A-side
    report (``None`` when a run raised, which is a finding too).

    Both reports also go through ``writer-vs-json``, counted on
    ``result`` when given (the shrinker's re-runs pass none)."""
    try:
        report_a = row.run_a(env, devices)
        report_b = row.run_b(env, devices)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return f"{row.check} run failed: {type(exc).__name__}: {exc}", None
    for report in (report_a, report_b):
        if result is not None:
            result.writer_checks += 1
        detail = _writer_mismatch(report)
        if detail is not None:
            return detail, report_a
    fields = sorted(
        key
        for key in set(report_a) | set(report_b)
        if json.dumps(report_a.get(key), sort_keys=True)
        != json.dumps(report_b.get(key), sort_keys=True)
    )
    if fields:
        return (
            f"fleet report diverges between {row.label}"
            f" (fields: {', '.join(fields)})"
        ), report_a
    if row.replay_check is not None:
        return row.replay_check(devices), report_a
    return None, report_a


def _shrink_fleet(
    devices: list, fails: Callable[[list], bool], shrink=None
) -> list:
    """Greedily drop devices (then try ``shrink``) while ``fails`` holds."""
    progress = True
    while progress and len(devices) > 2:
        progress = False
        for index in range(len(devices)):
            candidate = devices[:index] + devices[index + 1 :]
            if fails(candidate):
                devices = candidate
                progress = True
                break
        if not progress and shrink is not None:
            candidate = shrink(devices, fails)
            if candidate is not None:
                devices = candidate
                progress = True
    return devices


def _render_fleet(devices) -> str:
    """Reproducer: the hostnames, then each device's ACLs."""
    lines = [
        f"fleet of {len(devices)}: "
        + ", ".join(device.hostname for device in devices)
    ]
    for device in devices:
        for acl in device.acls.values():
            lines.append(f"[{device.hostname}]")
            lines.extend(_render_acl(acl))
    return "\n".join(lines)


def _run_fleet_case(
    name: str, case_seed: int, result: SelfCheckResult
) -> Optional[SelfCheckFailure]:
    """Run one ``_FLEET_ROWS`` cross-check; shrink a divergence by
    dropping devices, down to the minimal differing sub-fleet."""
    row = _FLEET_ROWS[name]
    devices = row.build(random.Random(case_seed), case_seed)
    with row.context() as env:
        detail, report = _fleet_mismatch(row, env, devices, result)
        if detail is None:
            result.differences += sum(count for _, _, count in report["matrix"])
            return None

        def fails(fleet) -> bool:
            try:
                return _fleet_mismatch(row, env, fleet)[0] is not None
            except Exception:  # noqa: BLE001 - a shrunk fleet may fail differently
                return False

        devices = _shrink_fleet(devices, fails, row.shrink)
        detail = _fleet_mismatch(row, env, devices)[0] or detail
    check = _WRITER_CHECK if detail.startswith(_WRITER_CHECK) else row.check
    return SelfCheckFailure(name, case_seed, check, detail, _render_fleet(devices))


def _merge(result: SelfCheckResult, stats: CheckStats) -> None:
    result.differences += stats.differences
    result.samples += stats.samples
    result.witnesses += stats.witnesses
    result.localizations += stats.localizations
    result.local_diffs += stats.local_diffs
    result.skipped.extend(stats.skipped)


_CASE_RUNNERS = {
    "acl": _run_acl_case,
    "routemap": _run_route_map_case,
    "mutation": _run_mutation_case,
    "memo": _run_memo_case,
    **{
        name: functools.partial(_run_component_case, name)
        for name in _COMPONENT_ROWS
    },
    **{
        name: functools.partial(_run_fleet_case, name)
        for name in _FLEET_ROWS
    },
}


def run_selfcheck(
    seed: int = 0,
    pairs: int = 50,
    on_progress: Optional[Callable[[int, int], None]] = None,
    cache=None,
    generators: Optional[Sequence[str]] = None,
) -> SelfCheckResult:
    """Run the differential harness on ``pairs`` generated cases.

    Deterministic in ``seed``: case ``i`` uses seed
    ``seed * 1_000_003 + i``, so a reported failure re-runs standalone.
    All failures are collected (the run does not stop at the first).
    ``cache`` (an :class:`~repro.cache.ArtifactCache`, or ``None``) is
    threaded into the memoization cross-check cases only.

    ``generators`` restricts the run to a subset of case generators
    (names from ``--generators`` / this module's ``_GENERATORS``), so a
    targeted CI job can spend all its cases on one cross-check.
    """
    if generators:
        unknown = sorted(set(generators) - set(_GENERATORS))
        if unknown:
            raise ValueError(
                f"unknown generator(s): {', '.join(unknown)}"
                f" (available: {', '.join(_GENERATORS)})"
            )
        pool: Sequence[str] = tuple(generators)
    else:
        pool = _GENERATORS
    result = SelfCheckResult(seed=seed, pairs=pairs)
    start = time.time()
    for index in range(pairs):
        kind = pool[index % len(pool)]
        case_seed = seed * 1_000_003 + index
        if kind == "memo":
            failure = _run_memo_case(case_seed, result, cache=cache)
        else:
            failure = _CASE_RUNNERS[kind](case_seed, result)
        if failure is not None:
            result.failures.append(failure)
        if on_progress is not None:
            on_progress(index + 1, pairs)
    result.elapsed = time.time() - start
    return result
