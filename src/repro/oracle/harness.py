"""The differential checks tying the BDD pipeline to the brute-force oracle.

For one component pair the harness asserts, in order:

1. **partition sanity** — each side's equivalence classes are pairwise
   disjoint and cover the input space (the encoder invariant §3.1 rests
   on);
2. **union vs naive** — the union of SemanticDiff's reported input sets
   equals an independently computed disagreement set: the quadratic
   union of ``p₁ ∧ p₂`` over every cross pair whose canonical action
   keys differ (no agreement-region pruning, no intersect filters);
3. **union vs monolithic** (ACLs) — the same union equals
   ``permit₁ ⊕ permit₂`` of the first-match-composed permit sets, a
   third formulation that bypasses the class partition entirely;
4. **sample agreement** — for every enumerated concrete sample, the
   concrete evaluators disagree iff the sample's encoding lies inside
   the reported union;
5. **witness reproduction** — each difference's witness model decodes to
   a concrete input on which the evaluators really disagree (and, for
   observability-safe route workloads, on which the *extensional*
   outcomes differ);
6. **edit-local vs full** (ACLs) — :func:`diff_acls`, which builds
   classes only where the two rule lists differ, returns the same
   ``(class1.index, class2.index, overlap node)`` list as the full
   partitions in the same packet space;
7. **localization exactness & minimality** — each difference's
   HeaderLocalize output denotes exactly the projected affected set,
   every term denotes a nonempty set, and no term is covered by the
   union of the others.

Any violated check raises :class:`OracleFailure` naming the check and
the offending input, which the driver shrinks to a minimal reproducer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..bdd import Bdd, complete_model
from ..core.ddnf import RangeAlgebra, address_prefix_algebra, prefix_range_algebra
from ..core.header_localize import HeaderLocalizeError, header_localize
from ..core.results import ComponentKind
from ..core.semantic_diff import (
    canonical_action_key,
    diff_acls,
    semantic_diff_classes,
)
from ..encoding import (
    PacketSpace,
    RouteSpace,
    acl_equivalence_classes,
    route_map_equivalence_classes,
)
from ..encoding.classes import EquivalenceClass
from ..model.acl import Acl
from ..model.routemap import RouteMap
from ..model.types import Prefix
from .evaluator import (
    RouteSample,
    SENTINEL_COMMUNITY,
    acl_disposition,
    enumerate_packet_samples,
    enumerate_route_samples,
    route_behavior,
    route_disposition,
    supports_concrete_oracle,
)

__all__ = [
    "OracleFailure",
    "CheckStats",
    "naive_disagreement",
    "check_acl_pair",
    "check_route_map_pair",
]


class OracleFailure(AssertionError):
    """One differential check failed.

    ``check`` names the violated property; ``detail`` pins the offending
    input (sample, witness, or term) so reproducers are self-contained.
    """

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass
class CheckStats:
    """What one harness run covered (for reporting, not assertions)."""

    differences: int = 0
    samples: int = 0
    witnesses: int = 0
    localizations: int = 0
    terms: int = 0
    local_diffs: int = 0
    skipped: List[str] = field(default_factory=list)


def naive_disagreement(
    classes1: Sequence[EquivalenceClass], classes2: Sequence[EquivalenceClass]
) -> Bdd:
    """The disagreement set computed the slow, obvious way.

    A deliberate re-derivation with none of SemanticDiff's machinery:
    every cross pair of classes, keyed only by :func:`canonical_action_key`,
    no agreement-region complement, no intersect pruning.  Agreement with
    ``semantic_diff_classes``'s output union is therefore meaningful.
    """
    manager = classes1[0].predicate.manager
    result = manager.false
    for class1 in classes1:
        key1 = canonical_action_key(class1.action)
        for class2 in classes2:
            if key1 != canonical_action_key(class2.action):
                result = result | (class1.predicate & class2.predicate)
    return result


def _check_partition(
    classes: Sequence[EquivalenceClass], universe: Bdd, context: str
) -> None:
    manager = universe.manager
    cover = manager.disjoin(cls.predicate for cls in classes)
    if cover != universe:
        raise OracleFailure(
            "partition-cover", f"{context}: classes do not cover the input space"
        )
    for index, cls in enumerate(classes):
        for other in classes[index + 1 :]:
            if cls.predicate.intersects(other.predicate):
                raise OracleFailure(
                    "partition-disjoint",
                    f"{context}: classes {cls.step_name!r} and "
                    f"{other.step_name!r} overlap",
                )


def _check_localization(
    affected: Bdd,
    ranges: Sequence,
    algebra: RangeAlgebra,
    to_pred: Callable,
    context: str,
    stats: CheckStats,
) -> None:
    """Exactness, per-term nonemptiness, and minimality of one localization."""
    manager = affected.manager
    localization = header_localize(affected, ranges, algebra, to_pred)
    denotations = []
    for term in localization.terms:
        denoted = to_pred(term.range)
        for subtrahend in term.minus:
            denoted = denoted - to_pred(subtrahend)
        if denoted.is_false():
            raise OracleFailure(
                "localize-empty-term", f"{context}: term {term.render()} denotes ∅"
            )
        denotations.append(denoted)
    rebuilt = manager.disjoin(denotations)
    if rebuilt != affected:
        raise OracleFailure(
            "localize-exact",
            f"{context}: union of {len(localization.terms)} terms does not "
            "equal the affected set",
        )
    for index, term in enumerate(localization.terms):
        rest = denotations[:index] + denotations[index + 1 :]
        if rest and denotations[index].implies(manager.disjoin(rest)):
            raise OracleFailure(
                "localize-minimal",
                f"{context}: term {term.render()} is covered by the union "
                "of the other terms",
            )
    stats.localizations += 1
    stats.terms += len(localization.terms)


# ---------------------------------------------------------------------------
# ACL pairs
# ---------------------------------------------------------------------------


def _check_edit_local(
    space: PacketSpace, acl1: Acl, acl2: Acl, differences: Sequence
) -> None:
    """The edit-local diff must emit the full partitions' pairs exactly."""
    _, local = diff_acls(acl1, acl2, space=space)
    expected = [
        (d.class1.index, d.class2.index, d.input_set.node) for d in differences
    ]
    found = [(d.class1.index, d.class2.index, d.input_set.node) for d in local]
    if found != expected:
        missing = sorted(set(expected) - set(found))
        extra = sorted(set(found) - set(expected))
        raise OracleFailure(
            "acl-local-vs-full",
            f"edit-local diff found {len(found)} difference(s), the full "
            f"partitions {len(expected)}; line pairs missing "
            f"{[pair[:2] for pair in missing]}, unexpected "
            f"{[pair[:2] for pair in extra]}",
        )


def check_acl_pair(
    acl1: Acl,
    acl2: Acl,
    rng: Optional[random.Random] = None,
    sample_budget: int = 96,
    localize: bool = True,
) -> CheckStats:
    """Run every differential check on one ACL pair."""
    if rng is None:
        rng = random.Random(0)
    stats = CheckStats()
    space = PacketSpace()
    classes1 = acl_equivalence_classes(space, acl1)
    classes2 = acl_equivalence_classes(space, acl2)
    _check_partition(classes1, space.manager.true, f"acl {acl1.name}")
    _check_partition(classes2, space.manager.true, f"acl {acl2.name}")

    differences = semantic_diff_classes(ComponentKind.ACL, classes1, classes2)
    stats.differences = len(differences)
    union = space.manager.disjoin(d.input_set for d in differences)

    naive = naive_disagreement(classes1, classes2)
    if union != naive:
        raise OracleFailure(
            "acl-union-vs-naive",
            "SemanticDiff union differs from the quadratic cross-pair union",
        )
    monolithic = space.acl_permit_pred(acl1) ^ space.acl_permit_pred(acl2)
    if union != monolithic:
        raise OracleFailure(
            "acl-union-vs-monolithic",
            "SemanticDiff union differs from permit1 XOR permit2",
        )

    for sample in enumerate_packet_samples((acl1, acl2), rng, sample_budget):
        concrete = acl_disposition(acl1, sample) != acl_disposition(acl2, sample)
        symbolic = space.encode_concrete(**sample.as_kwargs()).intersects(union)
        if concrete != symbolic:
            raise OracleFailure(
                "acl-sample",
                f"packet [{sample.describe()}]: concrete evaluators "
                f"{'disagree' if concrete else 'agree'} but the reported "
                f"union says {'disagree' if symbolic else 'agree'}",
            )
        stats.samples += 1

    for difference in differences:
        model = complete_model(difference.input_set, space.manager.num_vars)
        if model is None:
            raise OracleFailure(
                "acl-witness", "a reported difference has an empty input set"
            )
        packet = space.decode(model)
        if acl1.evaluate_concrete(
            packet.src_ip,
            packet.dst_ip,
            packet.protocol,
            packet.src_port,
            packet.dst_port,
            packet.icmp_type,
        ) == acl2.evaluate_concrete(
            packet.src_ip,
            packet.dst_ip,
            packet.protocol,
            packet.src_port,
            packet.dst_port,
            packet.icmp_type,
        ):
            raise OracleFailure(
                "acl-witness",
                f"witness packet {packet.describe()} does not reproduce "
                "the difference concretely",
            )
        stats.witnesses += 1

    _check_edit_local(space, acl1, acl2, differences)
    stats.local_diffs += 1

    if localize:
        _check_acl_localizations(space, acl1, acl2, differences, stats)
    return stats


def _check_acl_localizations(
    space: PacketSpace, acl1: Acl, acl2: Acl, differences, stats: CheckStats
) -> None:
    vocabularies = {"srcIp": [], "dstIp": []}
    prefix_only = {"srcIp": True, "dstIp": True}
    for acl in (acl1, acl2):
        for line in acl.lines:
            for label, wildcard in (("srcIp", line.src), ("dstIp", line.dst)):
                prefix = wildcard.as_prefix()
                if prefix is None:
                    prefix_only[label] = False
                elif prefix not in vocabularies[label]:
                    vocabularies[label].append(prefix)
    fields = {"srcIp": space.src_ip, "dstIp": space.dst_ip}
    for label, bitvector in fields.items():
        if not prefix_only[label]:
            # Discontiguous wildcards: the space is not prefix-generated,
            # so production code degrades to example-only output there.
            stats.skipped.append(f"localize-{label}-non-prefix")
            continue
        keep = set(bitvector.var_indices)
        drop = [i for i in range(space.manager.num_vars) if i not in keep]

        def to_pred(prefix: Prefix, _bitvector=bitvector) -> Bdd:
            from ..model.acl import IpWildcard

            return space.wildcard_pred(_bitvector, IpWildcard.from_prefix(prefix))

        for index, difference in enumerate(differences):
            projected = space.manager.exists(difference.input_set, drop)
            try:
                _check_localization(
                    projected,
                    vocabularies[label],
                    address_prefix_algebra(),
                    to_pred,
                    f"difference {index} / {label}",
                    stats,
                )
            except HeaderLocalizeError as exc:
                raise OracleFailure(
                    "localize-inexpressible",
                    f"difference {index} / {label}: {exc} (the affected set "
                    "must be generated by the configurations' own prefixes)",
                ) from exc


# ---------------------------------------------------------------------------
# Route-map pairs
# ---------------------------------------------------------------------------


def check_route_map_pair(
    map1: RouteMap,
    map2: RouteMap,
    rng: Optional[random.Random] = None,
    sample_budget: int = 80,
    behavioral: bool = False,
    localize: bool = True,
) -> CheckStats:
    """Run every differential check on one route-map pair.

    ``behavioral=True`` additionally requires witnesses to differ
    *extensionally* (distinct output routes), which is only sound for
    observability-safe workloads — the driver's generated maps qualify;
    arbitrary parsed configs may set an attribute to its incoming value.
    """
    if rng is None:
        rng = random.Random(0)
    stats = CheckStats()
    space = RouteSpace([map1, map2])
    classes1 = route_map_equivalence_classes(space, map1)
    classes2 = route_map_equivalence_classes(space, map2)
    _check_partition(classes1, space.universe, f"route map {map1.name}")
    _check_partition(classes2, space.universe, f"route map {map2.name}")

    differences = semantic_diff_classes(
        ComponentKind.ROUTE_MAP, classes1, classes2
    )
    stats.differences = len(differences)
    union = space.manager.disjoin(d.input_set for d in differences)

    naive = naive_disagreement(classes1, classes2)
    if union != naive:
        raise OracleFailure(
            "routemap-union-vs-naive",
            "SemanticDiff union differs from the quadratic cross-pair union",
        )

    concrete_ok = supports_concrete_oracle(map1) and supports_concrete_oracle(map2)
    if not concrete_ok:
        stats.skipped.append("routemap-concrete-aspath")

    if concrete_ok:
        for sample in enumerate_route_samples(space, (map1, map2), rng, sample_budget):
            key1 = canonical_action_key(route_disposition(map1, sample))
            key2 = canonical_action_key(route_disposition(map2, sample))
            concrete = key1 != key2
            symbolic = space.encode_concrete(
                sample.prefix, sample.communities, sample.tag, sample.protocol
            ).intersects(union)
            if concrete != symbolic:
                raise OracleFailure(
                    "routemap-sample",
                    f"route [{sample.describe()}]: concrete dispositions "
                    f"{'differ' if concrete else 'agree'} but the reported "
                    f"union says {'differ' if symbolic else 'agree'}",
                )
            stats.samples += 1

    sentinel_safe = SENTINEL_COMMUNITY not in space.communities
    for difference in differences:
        model = complete_model(difference.input_set, space.manager.num_vars)
        if model is None:
            raise OracleFailure(
                "routemap-witness", "a reported difference has an empty input set"
            )
        example = space.decode(model)
        if not concrete_ok or example.matched_regexes:
            continue
        sample = RouteSample(
            prefix=example.prefix,
            communities=example.communities,
            tag=example.tag,
            protocol=example.protocol,
        )
        key1 = canonical_action_key(route_disposition(map1, sample))
        key2 = canonical_action_key(route_disposition(map2, sample))
        if key1 == key2:
            raise OracleFailure(
                "routemap-witness",
                f"witness route [{sample.describe()}] takes the same "
                "disposition through both maps",
            )
        if behavioral and sentinel_safe:
            if route_behavior(map1, sample) == route_behavior(map2, sample):
                raise OracleFailure(
                    "routemap-witness-behavior",
                    f"witness route [{sample.describe()}] produces identical "
                    "output routes despite differing dispositions",
                )
        stats.witnesses += 1

    if localize:
        ranges = map1.prefix_ranges() + map2.prefix_ranges()
        for index, difference in enumerate(differences):
            projected = space.project_to_prefix(difference.input_set)
            try:
                _check_localization(
                    projected,
                    ranges,
                    prefix_range_algebra(),
                    space.range_pred,
                    f"difference {index} / prefix",
                    stats,
                )
            except HeaderLocalizeError as exc:
                raise OracleFailure(
                    "localize-inexpressible",
                    f"difference {index} / prefix: {exc}",
                ) from exc
    return stats
