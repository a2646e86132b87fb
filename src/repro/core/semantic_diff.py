"""SemanticDiff — all behavioral differences between two components (§3.1).

The algorithm is the paper's two-step:

1. partition each component's input space into path equivalence classes
   (done by the encoders, shared with the caller so the comparison and
   localization use one variable layout);
2. for every cross pair of classes whose predicates intersect and whose
   actions differ, emit a difference whose input set is the intersection.

Step 2 is delegated to a pluggable set-algebra backend
(:mod:`repro.core.setalg`): the historical ``bdd`` backend runs the
pairwise ``intersects`` loop behind disagreement-region pruning, while
the default ``atoms`` backend refines both partitions into atomic
predicates once and reads the differing pairs off integer bitsets.  The
backends are equivalence-checked (identical difference lists, identical
hash-consed overlap nodes) by the oracle and the property suite, so
every caller-visible guarantee below holds for both.

For ACLs, step 1 is edit-local (:func:`diff_acls`): the two rule lists
are aligned by match key, and classes are built only inside the region
R covered by the unaligned lines, where the ACLs can disagree at all.
Every differing overlap lies inside R, so the differences are the ones
the full partitions yield (DESIGN.md, "Edit-local SemanticDiff").

Because classes within one component are disjoint, the emitted input sets
for a fixed class of one component are disjoint too, so a reader can sum
them; the union over all emitted differences is exactly the set of inputs
on which the components disagree (tests verify this against a concrete
first-match oracle).
"""

from __future__ import annotations

import difflib
from typing import List, Optional, Sequence, Tuple

from .. import perf
from ..encoding import (
    PacketSpace,
    RouteSpace,
    acl_equivalence_classes,
    first_match_classes,
    route_map_equivalence_classes,
)
from ..encoding.classes import EquivalenceClass
from ..model.acl import Acl, AclLine
from ..model.routemap import RouteMap
from .results import ComponentKind, SemanticDifference

from .setalg import BackendSpec, canonical_action_key, resolve_backend

__all__ = [
    "canonical_action_key",
    "semantic_diff_classes",
    "diff_route_maps",
    "diff_acls",
]


def semantic_diff_classes(
    kind: ComponentKind,
    classes1: List[EquivalenceClass],
    classes2: List[EquivalenceClass],
    router1: str = "router1",
    router2: str = "router2",
    context: str = "",
    backend: BackendSpec = None,
) -> List[SemanticDifference]:
    """Pairwise comparison of two path partitions (§3.1 step 2).

    ``backend`` selects the set-algebra backend (a name from
    :data:`repro.core.setalg.BACKEND_NAMES`, a backend instance, or
    ``None`` for ``atoms``); the result is identical for every
    backend, only the wall clock differs.
    """
    differences: List[SemanticDifference] = []
    if not classes1 or not classes2:
        return differences
    with perf.timer("semantic_diff"):
        for class1, class2, overlap in resolve_backend(backend).differing_pairs(
            classes1, classes2
        ):
            differences.append(
                SemanticDifference(
                    kind=kind,
                    input_set=overlap,
                    class1=class1,
                    class2=class2,
                    router1=router1,
                    router2=router2,
                    context=context,
                )
            )
        perf.add("semantic_diff.classes", len(classes1) + len(classes2))
        perf.add("semantic_diff.differences", len(differences))
    return differences


def diff_route_maps(
    map1: RouteMap,
    map2: RouteMap,
    router1: str = "router1",
    router2: str = "router2",
    context: str = "",
    space: Optional[RouteSpace] = None,
    node_limit: Optional[int] = None,
    time_budget: Optional[float] = None,
    set_backend: BackendSpec = None,
) -> Tuple[RouteSpace, List[SemanticDifference]]:
    """SemanticDiff on two route maps.

    Builds (or reuses) a :class:`RouteSpace` whose vocabulary covers both
    policies and returns it with the differences so the caller can run
    HeaderLocalize and decode witnesses in the same space.

    ``node_limit``/``time_budget`` arm a resource budget on the space's
    BDD manager (see :meth:`BddManager.set_budget`); a blow-up then
    raises :class:`~repro.bdd.AnalysisBudgetExceeded` for the caller to
    convert into a per-component aborted result.  ``set_backend``
    selects the set-algebra backend (see :func:`semantic_diff_classes`).
    """
    if space is None:
        space = RouteSpace([map1, map2])
    if node_limit is not None or time_budget is not None:
        space.manager.set_budget(node_limit=node_limit, time_budget=time_budget)
    classes1 = route_map_equivalence_classes(space, map1)
    classes2 = route_map_equivalence_classes(space, map2)
    differences = semantic_diff_classes(
        ComponentKind.ROUTE_MAP,
        classes1,
        classes2,
        router1,
        router2,
        context,
        backend=set_backend,
    )
    return space, differences


#: :func:`diff_acls` builds the full partitions instead of edit-local
#: ones when the unaligned lines exceed this share of both ACLs' lines
#: (the region then covers most of the space, so restricting saves
#: little) ...
EDIT_LOCAL_MAX_SHARE = 1 / 3
#: ... or this many lines.  The relevance scan costs O(lines x
#: unaligned) overlap tests while a full build costs O(lines), so the
#: break-even is a roughly fixed count: on generated near-equivalent
#: pairs, 1,000 or more unaligned lines at 1,000 rules per side, about
#: 1,300 at 3,000 and 2,000 at 10,000.
EDIT_LOCAL_MAX_UNALIGNED = 1000


def _match_key(line: AclLine) -> tuple:
    """What decides a line's first-match behaviour; names and spans are
    left out, so a JunOS term aligns with its unnamed Cisco line."""
    return (
        line.action,
        line.src,
        line.dst,
        line.protocol,
        line.src_ports,
        line.dst_ports,
        line.icmp_type,
    )


def _edit_region(
    acl1: Acl, acl2: Acl
) -> Optional[Tuple[List[AclLine], List[int], List[int]]]:
    """The lines an edit-local diff walks, or ``None`` for a full build.

    Returns ``(unaligned, relevant1, relevant2)``: the lines left over
    when the two rule lists are aligned by :func:`_match_key`, and the
    indices of each ACL's lines that overlap one of them.  ``None`` when
    the default actions differ (every packet can then disagree) or when
    the unaligned lines exceed :data:`EDIT_LOCAL_MAX_SHARE` or
    :data:`EDIT_LOCAL_MAX_UNALIGNED`.
    """
    if acl1.default_action != acl2.default_action:
        return None
    keys1 = [_match_key(line) for line in acl1.lines]
    keys2 = [_match_key(line) for line in acl2.lines]
    matcher = difflib.SequenceMatcher(None, keys1, keys2, autojunk=False)
    aligned1, aligned2 = set(), set()
    for start1, start2, size in matcher.get_matching_blocks():
        aligned1.update(range(start1, start1 + size))
        aligned2.update(range(start2, start2 + size))
    unaligned = [
        line for index, line in enumerate(acl1.lines) if index not in aligned1
    ] + [line for index, line in enumerate(acl2.lines) if index not in aligned2]
    if len(unaligned) > min(
        EDIT_LOCAL_MAX_UNALIGNED, EDIT_LOCAL_MAX_SHARE * (len(keys1) + len(keys2))
    ):
        return None
    return (
        unaligned,
        _relevant_indices(acl1.lines, unaligned),
        _relevant_indices(acl2.lines, unaligned),
    )


def _relevant_indices(
    lines: Sequence[AclLine], unaligned: Sequence[AclLine]
) -> List[int]:
    return [
        index
        for index, line in enumerate(lines)
        if any(line.overlaps(other) for other in unaligned)
    ]


def diff_acls(
    acl1: Acl,
    acl2: Acl,
    router1: str = "router1",
    router2: str = "router2",
    context: str = "",
    space: Optional[PacketSpace] = None,
    node_limit: Optional[int] = None,
    time_budget: Optional[float] = None,
    set_backend: BackendSpec = None,
) -> Tuple[PacketSpace, List[SemanticDifference]]:
    """SemanticDiff on two ACLs over a shared packet space.

    Classes are built only inside the region R covered by the lines the
    two rule lists do not share (see :func:`_edit_region`); outside R
    both ACLs first-match equal lines, so the differences equal those of
    the full partitions.  A full build (perf counter
    ``semantic_diff.full_builds``) runs when the default actions differ
    or the lists differ in too many lines.

    ``node_limit``/``time_budget`` arm a resource budget on the space's
    BDD manager and ``set_backend`` selects the set-algebra backend; see
    :func:`diff_route_maps`.
    """
    if space is None:
        space = PacketSpace()
    if node_limit is not None or time_budget is not None:
        space.manager.set_budget(node_limit=node_limit, time_budget=time_budget)
    region = _edit_region(acl1, acl2)
    if region is None:
        perf.add("semantic_diff.full_builds")
        classes1 = acl_equivalence_classes(space, acl1)
        classes2 = acl_equivalence_classes(space, acl2)
    else:
        unaligned, relevant1, relevant2 = region
        within = space.manager.disjoin(space.line_pred(line) for line in unaligned)
        classes1 = first_match_classes(space, acl1, within, relevant1)
        classes2 = first_match_classes(space, acl2, within, relevant2)
    differences = semantic_diff_classes(
        ComponentKind.ACL,
        classes1,
        classes2,
        router1,
        router2,
        context,
        backend=set_backend,
    )
    return space, differences
