"""Atomic-predicate refinement of two path partitions.

The classic trick for scaling predicate algebra in network verification
(Yang & Lam's atomic predicates; Plankton's equivalence-class reduction)
is to refine a predicate family into *atoms* — the coarsest partition of
the input space such that every predicate is a disjoint union of atoms —
after which intersection, emptiness, and difference collapse to bitwise
operations on machine integers.

SemanticDiff needs exactly the two-family special case, and both
families are already partitions (path equivalence classes are pairwise
disjoint and cover the well-formed space).  That makes the refinement
cheap and exact:

* the atoms of the joint refinement are precisely the non-empty cross
  intersections ``p_i ∧ q_j``;
* each atom is owned by exactly one class on each side, so recording
  ``(i, j)`` per atom recovers every intersecting class pair — and the
  atom BDD *is* that pair's overlap (hash-consing makes it the identical
  node the pairwise loop would have built with ``p_i & q_j``).

:func:`refine_partitions` computes this in two passes that exploit how
near-equivalent configurations actually differ.  Pass 1 resolves every
class that survives unchanged on the other side by a node-identity dict
lookup (hash-consing makes semantic equality node equality), with zero
BDD applies.  Pass 2 takes the handful of genuinely changed classes and
cursor-scans them against only what pass 1 left unconsumed, shrinking
the remainder ``r := r − q_j`` on each hit until ``r`` is empty.  A
nearly-equivalent 10,000-rule ACL pair therefore refines in ~n dict
lookups plus a few dozen BDD operations, instead of the O(n²) pairwise
applies.

Atom counts are bounded by ``atom_budget`` (argument, else
:func:`default_atom_budget`); adversarial partition pairs whose joint
refinement genuinely is quadratic raise :class:`AtomBudgetExceeded` so
the caller can fall back to the pairwise backend instead of materializing
millions of atoms and megabyte-long bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from .engine import Bdd

__all__ = [
    "AtomBudgetExceeded",
    "AtomRefinement",
    "default_atom_budget",
    "iter_set_bits",
    "resolve_atom_budget",
    "refine_partitions",
]


def iter_set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first.

    The canonical walk over an atom bitset: isolating the lowest set
    bit with ``mask & -mask`` keeps each step O(word) on arbitrary-
    precision ints instead of scanning all positions.
    """
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class AtomBudgetExceeded(RuntimeError):
    """The joint refinement needs more atoms than the caller allowed."""

    def __init__(self, budget: int, count1: int, count2: int) -> None:
        super().__init__(
            f"atom refinement of {count1}x{count2} classes exceeded "
            f"the budget of {budget} atoms"
        )
        self.budget = budget
        self.count1 = count1
        self.count2 = count2


def default_atom_budget(count1: int, count2: int) -> int:
    """Default atom allowance for two partitions of the given sizes.

    Aligned near-equivalent partitions produce about ``max(n1, n2)``
    atoms (one per shared class plus one per genuine difference), so a
    small multiple of ``n1 + n2`` is generous for every legitimate
    workload while still tripping long before an adversarial quadratic
    refinement can materialize ``n1 * n2`` atoms — each of which also
    lengthens every later class bitset.
    """
    return max(2048, 4 * (count1 + count2))


def resolve_atom_budget(
    budget: Optional[int], count1: int, count2: int
) -> int:
    """Resolve the effective atom budget: argument, else
    :func:`default_atom_budget`."""
    if budget is not None:
        return budget
    return default_atom_budget(count1, count2)


@dataclass
class AtomRefinement:
    """The joint atom refinement of two partitions.

    ``atoms[k]`` is the BDD of atom ``k``; ``owner1[k]``/``owner2[k]``
    index the class on each side whose intersection the atom is.
    ``bitsets1[i]`` (a Python int) has bit ``k`` set iff atom ``k`` lies
    inside partition-1 class ``i`` — so two class predicates intersect
    iff ``bitsets1[i] & bitsets2[j] != 0``, and unions of classes are
    bitwise ORs.

    Atoms cover the *common* region of the two partitions' unions; a
    region covered by only one partition cannot contribute to any cross
    pair, so it gets no atom (``uncovered`` counts the partition-1
    classes whose remainder was dropped that way — 0 whenever both
    partitions cover the same space, the encoder invariant).
    """

    atoms: List[Bdd]
    owner1: List[int]
    owner2: List[int]
    bitsets1: List[int]
    bitsets2: List[int]
    probes: int
    uncovered: int

    @property
    def all_atoms_mask(self) -> int:
        """Bitset with one set bit per atom."""
        return (1 << len(self.atoms)) - 1


def refine_partitions(
    preds1: Sequence[Bdd],
    preds2: Sequence[Bdd],
    atom_budget: Optional[int] = None,
) -> AtomRefinement:
    """Jointly refine two disjoint predicate families into atoms.

    Both inputs must be partitions (pairwise-disjoint predicates); the
    equivalence-class encoders guarantee this.  Disjointness is what
    makes each atom exactly ``p_i ∧ q_j``: subtracting earlier ``q``'s
    from the remainder cannot change its intersection with a later,
    disjoint ``q``.

    Raises :class:`AtomBudgetExceeded` when the refinement would exceed
    the resolved atom budget (see :func:`resolve_atom_budget`).
    """
    count2 = len(preds2)
    budget = resolve_atom_budget(atom_budget, len(preds1), count2)
    atoms: List[Bdd] = []
    owner1: List[int] = []
    owner2: List[int] = []
    bitsets1 = [0] * len(preds1)
    bitsets2 = [0] * count2
    probes = 0
    uncovered = 0
    def emit(atom: Bdd, i: int, j: int) -> None:
        if len(atoms) >= budget:
            raise AtomBudgetExceeded(budget, len(preds1), count2)
        bit = 1 << len(atoms)
        atoms.append(atom)
        owner1.append(i)
        owner2.append(j)
        bitsets1[i] |= bit
        bitsets2[j] |= bit

    # Pass 1 — exact matches by node identity.  Hash-consing makes
    # semantic equality node equality, so a class that survives
    # unchanged on the other side is found by dict lookup: no scanning,
    # no BDD applies.  Disjoint non-empty predicates are never equal,
    # so the index is injective.
    index2 = {}
    for j, other in enumerate(preds2):
        if not other.is_false():
            index2[other.node] = j
    consumed2 = set()
    pending1 = []
    for i, pred in enumerate(preds1):
        if pred.is_false():
            continue
        j = index2.get(pred.node)
        if j is None:
            pending1.append((i, pred))
        else:
            # The whole class is one atom shared verbatim by both sides.
            probes += 1
            emit(pred, i, j)
            consumed2.add(j)

    # Pass 2 — the changed classes scan only what pass 1 left behind.
    # An exactly-matched ``q == p_k`` cannot intersect any other class
    # of a disjoint partition, so dropping it is sound — and it shrinks
    # the scan space to the handful of genuinely changed classes (a
    # changed ACL class typically overlaps its aligned partner *and*
    # the far-away default class; scanning the full list would walk
    # thousands of exact-matched entries to reach it).
    remaining2 = [
        j
        for j in range(count2)
        if j not in consumed2 and not preds2[j].is_false()
    ]
    count_rem = len(remaining2)
    # Probe outward from where the previous class matched: even with no
    # exact matches at all (a fully shifted partition), alignment makes
    # the next partner land near the last one.
    cursor = 0
    for i, pred in pending1:
        remainder = pred
        last_hit = None
        for step in range(count_rem):
            pos = cursor + step
            if pos >= count_rem:
                pos -= count_rem
            j = remaining2[pos]
            other = preds2[j]
            probes += 1
            if remainder.node == other.node:
                atom, remainder = remainder, None
            elif not remainder.intersects(other):
                continue
            else:
                atom = remainder & other
                remainder = remainder - other
            emit(atom, i, j)
            last_hit = pos
            if remainder is None or remainder.is_false():
                remainder = None
                break
        if remainder is not None and not remainder.is_false():
            uncovered += 1
        if last_hit is not None:
            cursor = last_hit + 1
            if cursor >= count_rem:
                cursor = 0
    return AtomRefinement(
        atoms=atoms,
        owner1=owner1,
        owner2=owner2,
        bitsets1=bitsets1,
        bitsets2=bitsets2,
        probes=probes,
        uncovered=uncovered,
    )
