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

Because classes within one component are disjoint, the emitted input sets
for a fixed class of one component are disjoint too, so a reader can sum
them; the union over all emitted differences is exactly the set of inputs
on which the components disagree (tests verify this against a concrete
first-match oracle).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import perf
from ..encoding import (
    PacketSpace,
    RouteSpace,
    acl_equivalence_classes,
    route_map_equivalence_classes,
)
from ..encoding.classes import EquivalenceClass
from ..model.acl import Acl
from ..model.routemap import RouteMap
from .results import ComponentKind, SemanticDifference

# The union memo and canonical action keying moved to repro.core.setalg
# with the backend split; re-exported here because callers and tests
# historically import them from this module.
from .setalg import (  # noqa: F401  (re-exports)
    _UNION_CACHE_SIZE,
    _action_key,
    _action_unions,
    _disagreement_region,
    _union_cache,
    BackendSpec,
    canonical_action_key,
    resolve_backend,
)

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

    ``node_limit``/``time_budget`` arm a resource budget on the space's
    BDD manager and ``set_backend`` selects the set-algebra backend; see
    :func:`diff_route_maps`.
    """
    if space is None:
        space = PacketSpace()
    if node_limit is not None or time_budget is not None:
        space.manager.set_budget(node_limit=node_limit, time_budget=time_budget)
    classes1 = acl_equivalence_classes(space, acl1)
    classes2 = acl_equivalence_classes(space, acl2)
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
