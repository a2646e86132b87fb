"""Set-algebra backends for SemanticDiff's pairwise comparison.

SemanticDiff's job — find every intersecting cross pair of equivalence
classes whose actions differ — is a set-algebra problem, and this module
makes the algebra pluggable:

* :class:`BddBackend` (``"bdd"``) is the historical path: per-action
  union BDDs prune the search to the disagreement region, then the
  surviving classes go through the O(|A|×|B|) pairwise ``intersects``
  loop.
* :class:`AtomsBackend` (``"atoms"``, the default) refines the two
  partitions into atomic predicates once
  (:func:`repro.bdd.atoms.refine_partitions`), represents every class
  and per-action union as a Python-int bitset over atoms, and reads the
  differing pairs straight off the disagreement *mask* — the pairwise
  loop becomes ``int & int``.  The atoms themselves are BDDs built by
  the same engine, so each emitted overlap is the hash-consed node the
  pairwise loop would have produced; HeaderLocalize sees no difference.
  A refinement that would exceed its atom budget transparently falls
  back to the ``bdd`` backend for that pairing (perf counter
  ``setalg.atom_budget_fallbacks``; a human-readable note lands on
  ``AtomsBackend.notes``).

Backend selection is an explicit argument, else ``"atoms"``; there is
no process-wide default, so concurrent comparisons cannot disturb one
another's choice.  Backends are cross-validated end-to-end by the
differential-testing oracle (``campion selfcheck``) and the equivalence
property suite, which assert identical difference sets, satcounts, and
localizations.

Perf counters: ``setalg.atoms`` (atoms materialized), ``setalg.atom_probes``
(refinement intersection probes), ``setalg.bitset_ops`` (bitwise
AND/OR/NOT on atom bitsets), ``setalg.uncovered_remainders`` (class
remainders outside the joint covered space), ``setalg.atom_budget_fallbacks``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import perf
from ..bdd import Bdd, BddManager
from ..bdd.atoms import AtomBudgetExceeded, iter_set_bits, refine_partitions
from ..encoding.classes import EquivalenceClass

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "SetAlgebraBackend",
    "BddBackend",
    "AtomsBackend",
    "canonical_action_key",
    "resolve_backend",
]

DEFAULT_BACKEND = "atoms"
BACKEND_NAMES = ("bdd", "atoms")

#: A differing class pair and the BDD of the inputs it disagrees on.
DifferingPair = Tuple[EquivalenceClass, EquivalenceClass, Bdd]


def canonical_action_key(action: object):
    """The canonical comparison key of a class's action.

    SemanticDiff compares actions by their canonical *description* when
    the action type provides one (``RouteMapAction.describe()`` renders
    the normalized disposition) and by the action value itself otherwise
    (``AclAction``).  Every comparison site — agreement-region pruning,
    the pairwise loop, the bitset agreement mask, and the differential
    oracle — must use this one key: mixing ``describe()``-keying with
    ``__eq__`` yields spurious or missed differences whenever the two
    disagree.
    """
    return action.describe() if hasattr(action, "describe") else action


def _action_key(cls: EquivalenceClass):
    return canonical_action_key(cls.action)


class SetAlgebraBackend:
    """Protocol: how differing class pairs are found.

    ``differing_pairs`` returns, in deterministic ``(index1, index2)``
    order, every ``(class1, class2, overlap)`` whose predicates
    intersect and whose canonical action keys differ; ``overlap`` is the
    BDD of the shared inputs.  Implementations over the same manager
    must return identical lists — hash-consing makes the overlap nodes
    comparable by identity, and the oracle enforces the rest.
    """

    name = "abstract"

    def differing_pairs(
        self,
        classes1: Sequence[EquivalenceClass],
        classes2: Sequence[EquivalenceClass],
    ) -> List[DifferingPair]:
        """Every intersecting cross pair whose actions differ, in
        ``(index1, index2)`` order, with the overlap BDD."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The pairwise BDD backend (the historical SemanticDiff inner loop)
# ---------------------------------------------------------------------------


#: Entries kept per manager in the union memo.  A pairing computes the
#: unions for two class lists; fleet runs reuse one side across many
#: peers, so a handful of slots captures all the reuse while bounding
#: the memo for long-lived managers.
_UNION_CACHE_SIZE = 8

# Per-manager memo of per-action unions, keyed by the identity of the
# class list handed to SemanticDiff: fleet comparisons and repeated
# pairings diff the *same* partition against many peers, and the unions
# only depend on one side.  The outer WeakKeyDictionary lets a manager
# (and every BDD in it) be collected once its comparison is done — to
# keep that true, the memo stores raw node ids, never Bdd handles: a
# handle's ``.manager`` attribute would strongly reference the weak key
# through the value and pin the manager (and its caches) forever.
# Each inner memo is a small LRU (an OrderedDict in recency order): one
# partition diffed against many peers would otherwise accumulate an
# entry per distinct class-list key for the manager's whole lifetime.
_union_cache: "weakref.WeakKeyDictionary[BddManager, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)


def _action_unions(classes: Sequence[EquivalenceClass]) -> Dict:
    """Map each action to the union of its classes' predicates, memoized.

    The memo key is the (node id, action) sequence of the class list, so
    two calls over the same partition — however the caller rebuilt the
    list object — share one set of ``disjoin`` results.
    """
    manager = classes[0].predicate.manager
    per_manager = _union_cache.get(manager)
    if per_manager is None:
        per_manager = _union_cache.setdefault(manager, OrderedDict())
    key = tuple((cls.predicate.node, _action_key(cls)) for cls in classes)
    union_nodes = per_manager.get(key)
    if union_nodes is not None:
        perf.add("semantic_diff.union_cache_hits")
        per_manager.move_to_end(key)
    else:
        by_action: Dict = {}
        for cls in classes:
            by_action.setdefault(_action_key(cls), []).append(cls.predicate)
        union_nodes = {
            action: manager.disjoin(predicates).node
            for action, predicates in by_action.items()
        }
        per_manager[key] = union_nodes
        while len(per_manager) > _UNION_CACHE_SIZE:
            per_manager.popitem(last=False)
            perf.add("semantic_diff.union_cache_evictions")
    return {action: Bdd(manager, node) for action, node in union_nodes.items()}


def _disagreement_region(
    classes1: Sequence[EquivalenceClass], classes2: Sequence[EquivalenceClass]
) -> Bdd:
    """The set of inputs on which the two partitions' actions differ.

    Computed as the complement of the agreement region
    ``∪_a (U1_a ∧ U2_a)`` where ``U_a`` unions the classes taking action
    ``a``.  This costs O(n) BDD operations and lets the pairwise loop
    skip every class that only overlaps agreeing classes — on
    nearly-equivalent 10,000-rule ACLs (§5.4) that prunes the quadratic
    comparison down to the handful of genuinely differing paths.
    """
    manager = classes1[0].predicate.manager
    agree = manager.false
    unions1 = _action_unions(classes1)
    unions2 = _action_unions(classes2)
    for key, union1 in unions1.items():
        union2 = unions2.get(key)
        if union2 is None:
            continue
        agree = agree | (union1 & union2)
    return ~agree


class BddBackend(SetAlgebraBackend):
    """Disagreement-region pruning plus the pairwise ``intersects`` loop."""

    name = "bdd"

    def differing_pairs(
        self,
        classes1: Sequence[EquivalenceClass],
        classes2: Sequence[EquivalenceClass],
    ) -> List[DifferingPair]:
        """Prune to the disagreement region, then compare pairwise."""
        pairs: List[DifferingPair] = []
        disagree = _disagreement_region(classes1, classes2)
        if disagree.is_false():
            return pairs
        pairs_compared = 0
        # Compare actions with the same canonical key the agreement-region
        # pruning used: keying one side by ``describe()`` and the other by
        # ``__eq__`` emits spurious differences inside the agreement region
        # (and misses real ones) whenever the two notions disagree.
        candidates2 = [
            (cls, _action_key(cls))
            for cls in classes2
            if cls.predicate.intersects(disagree)
        ]
        for class1 in classes1:
            if not class1.predicate.intersects(disagree):
                continue
            key1 = _action_key(class1)
            for class2, key2 in candidates2:
                if key1 == key2:
                    continue
                pairs_compared += 1
                overlap = class1.predicate & class2.predicate
                if overlap.is_false():
                    continue
                pairs.append((class1, class2, overlap))
        perf.add("semantic_diff.pairs_compared", pairs_compared)
        return pairs


# ---------------------------------------------------------------------------
# The atomic-predicate bitset backend
# ---------------------------------------------------------------------------


class AtomsBackend(SetAlgebraBackend):
    """Joint atom refinement, then pure bitset algebra.

    Because both class lists are partitions, every atom of the joint
    refinement is exactly one cross intersection ``p_i ∧ q_j`` — so the
    atoms *are* the candidate overlaps, and the quadratic loop reduces
    to masking out the atoms whose owning classes agree.  The agreement
    mask is built from per-action union bitsets (bitwise OR of the
    owning classes' bitsets) exactly mirroring the ``bdd`` backend's
    agreement region; both backends therefore emit identical pair lists
    with identical (hash-consed) overlap BDDs.

    ``atom_budget`` bounds the refinement (``None`` means the
    size-relative default); exceeding it falls back to
    :class:`BddBackend` for that pairing, recording the
    ``setalg.atom_budget_fallbacks`` counter and a note on ``notes``.
    """

    name = "atoms"

    def __init__(self, atom_budget: Optional[int] = None) -> None:
        self.atom_budget = atom_budget
        #: Human-readable diagnostics for budget fallbacks, newest last.
        self.notes: List[str] = []

    def differing_pairs(
        self,
        classes1: Sequence[EquivalenceClass],
        classes2: Sequence[EquivalenceClass],
    ) -> List[DifferingPair]:
        """Refine to atoms, then read pairs off the disagreement mask."""
        try:
            refinement = refine_partitions(
                [cls.predicate for cls in classes1],
                [cls.predicate for cls in classes2],
                atom_budget=self.atom_budget,
            )
        except AtomBudgetExceeded as exc:
            perf.add("setalg.atom_budget_fallbacks")
            note = f"{exc}; falling back to the bdd backend for this pairing"
            self.notes.append(note)
            return BddBackend().differing_pairs(classes1, classes2)
        perf.add("setalg.atoms", len(refinement.atoms))
        perf.add("setalg.atom_probes", refinement.probes)
        if refinement.uncovered:
            perf.add("setalg.uncovered_remainders", refinement.uncovered)

        # Per-action union bitsets on each side: OR over that action's
        # class bitsets (the bitset analogue of _action_unions).
        bitset_ops = 0
        unions1: Dict[object, int] = {}
        for index, cls in enumerate(classes1):
            bits = refinement.bitsets1[index]
            if bits:
                key = _action_key(cls)
                unions1[key] = unions1.get(key, 0) | bits
                bitset_ops += 1
        unions2: Dict[object, int] = {}
        for index, cls in enumerate(classes2):
            bits = refinement.bitsets2[index]
            if bits:
                key = _action_key(cls)
                unions2[key] = unions2.get(key, 0) | bits
                bitset_ops += 1

        # Agreement mask: atoms both of whose owners take the same
        # action; everything else is the disagreement mask — one set bit
        # per differing pair, no pairwise loop at all.
        agree = 0
        for key, bits1 in unions1.items():
            bits2 = unions2.get(key)
            if bits2 is not None:
                agree |= bits1 & bits2
                bitset_ops += 2
        mask = refinement.all_atoms_mask & ~agree
        bitset_ops += 2
        perf.add("setalg.bitset_ops", bitset_ops)

        indexed = [
            (refinement.owner1[atom], refinement.owner2[atom], atom)
            for atom in iter_set_bits(mask)
        ]
        # The cursor scan records atoms in rotated probe order; sort to
        # the (index1, index2) order the pairwise loop emits.
        indexed.sort()
        return [
            (classes1[i], classes2[j], refinement.atoms[atom])
            for i, j, atom in indexed
        ]


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------


BackendSpec = Union[None, str, SetAlgebraBackend]


def _validate_name(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown set-algebra backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        )
    return name


def resolve_backend(spec: BackendSpec = None) -> SetAlgebraBackend:
    """Resolve a backend spec to an instance.

    ``spec`` may be a backend instance (returned as-is), a name from
    ``BACKEND_NAMES``, or ``None`` — which means ``DEFAULT_BACKEND``.
    Name specs get a fresh instance, so fallback notes are scoped to one
    comparison's caller.
    """
    if isinstance(spec, SetAlgebraBackend):
        return spec
    name = DEFAULT_BACKEND if spec is None else _validate_name(spec)
    if name == "bdd":
        return BddBackend()
    return AtomsBackend()
