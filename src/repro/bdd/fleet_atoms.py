"""Shared atom universe over many partitions (fleet-scale atomization).

:func:`refine_partitions` atomizes exactly two partitions, which is what
one SemanticDiff pairing needs — but a fleet matrix compares every pair
of N devices, so the per-pair backend repays the refinement cost
O(N²) times.  :class:`AtomUniverse` instead folds *all* N partitions
into one joint refinement: the coarsest partition of the space such
that every class of every device is a disjoint union of universe atoms.
Each class then becomes a Python-int bitset over the universe, and every
pairwise question the matrix asks — do two classes intersect?  which
class pairs disagree? — is pure bitwise work with zero BDD applies
(:func:`differing_pair_count` below).

The fold is incremental: the universe starts as the first partition's
classes and each later partition is refined against the current atoms
with the same two-pass :func:`refine_partitions` kernel (node-identity
fast path, cursor scan for the changed handful).  Refining splits old
atoms, so previously folded bitsets are remapped through an
old-atom → new-atoms mask table; nothing is ever recomputed from BDDs.

Soundness notes:

* every folded partition must cover the same space (the equivalence
  class encoders' invariant: classes partition the full input space).
  A fold that leaves part of an old atom uncovered would silently drop
  that region from every earlier bitset, so it raises
  :class:`UniverseCoverageError` instead and the caller falls back to
  per-pair refinement;
* universe atoms are *finer* than one pair's joint refinement (they are
  split by every third party's classes too), so one intersecting class
  pair can own many shared atoms.  Counting differing pairs therefore
  counts distinct ``(class1, class2)`` pairs, never popcounts.

Atom counts are bounded by the same atom-budget contract as the
per-pair refinement: the budget here caps the whole universe, and
an overrun raises :class:`AtomBudgetExceeded`, and the caller falls back
to per-pair refinement for the pairs that universe would have served.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from .atoms import (
    AtomBudgetExceeded,
    iter_set_bits,
    refine_partitions,
    resolve_atom_budget,
)
from .engine import Bdd

__all__ = [
    "AtomUniverse",
    "UniverseCoverageError",
    "differing_pair_count",
]


class UniverseCoverageError(RuntimeError):
    """A folded partition failed to cover the existing universe.

    Raised when refining a new partition against the current atoms
    leaves part of an old atom uncovered — the partitions do not span
    the same space, so bitset algebra over a shared universe would be
    unsound.  Callers fall back to per-pair refinement.
    """


class AtomUniverse:
    """Joint atom refinement of N partitions, folded incrementally.

    ``add_partition`` returns a partition id; after all folds,
    ``vector(pid)`` is the partition's per-class bitsets over the final
    atoms (bit ``k`` set iff atom ``k`` lies inside the class).  Bitsets
    returned by ``vector`` are only valid for the universe's final
    state — folding further partitions refines earlier vectors in
    place.
    """

    def __init__(self, atom_budget: Optional[int] = None) -> None:
        #: Absolute cap on universe atoms (``None`` resolves per fold
        #: via :func:`resolve_atom_budget` to the size-relative default).
        self.atom_budget = atom_budget
        self.atoms: List[Bdd] = []
        self._vectors: List[List[int]] = []
        #: Total scan probes across every fold (diagnostics).
        self.probes = 0

    @property
    def size(self) -> int:
        """Number of atoms in the universe."""
        return len(self.atoms)

    @property
    def partitions(self) -> int:
        """Number of partitions folded so far."""
        return len(self._vectors)

    @property
    def all_atoms_mask(self) -> int:
        """Bitset with one set bit per atom."""
        return (1 << len(self.atoms)) - 1

    def vector(self, pid: int) -> List[int]:
        """Per-class bitsets of partition ``pid`` over the current atoms."""
        return self._vectors[pid]

    def add_partition(self, preds: Sequence[Bdd]) -> int:
        """Fold one partition into the universe; returns its id.

        ``preds`` must be pairwise disjoint and cover the same space as
        every previously folded partition (false predicates are allowed
        and get empty bitsets).  Raises :class:`AtomBudgetExceeded` on
        budget overrun and :class:`UniverseCoverageError` when coverage
        is violated; the universe must be discarded after either.
        """
        pid = len(self._vectors)
        if not self.atoms:
            budget = resolve_atom_budget(self.atom_budget, len(preds), 0)
            bits: List[int] = []
            for pred in preds:
                if pred.is_false():
                    bits.append(0)
                    continue
                if len(self.atoms) >= budget:
                    raise AtomBudgetExceeded(budget, len(preds), 0)
                bits.append(1 << len(self.atoms))
                self.atoms.append(pred)
            self._vectors.append(bits)
            return pid

        refinement = refine_partitions(
            self.atoms, preds, atom_budget=self.atom_budget
        )
        self.probes += refinement.probes
        if refinement.uncovered:
            raise UniverseCoverageError(
                f"partition {pid} left {refinement.uncovered} universe "
                f"atom(s) uncovered; partitions must span the same space"
            )
        # Refining split old atoms: old atom ``i`` is now the disjoint
        # union of the new atoms that name it as owner1.  Remap every
        # previously folded bitset through that mask table.
        old_to_new = [0] * len(self.atoms)
        for new_index, old_index in enumerate(refinement.owner1):
            old_to_new[old_index] |= 1 << new_index
        for vector in self._vectors:
            for index, bits in enumerate(vector):
                remapped = 0
                for atom in iter_set_bits(bits):
                    remapped |= old_to_new[atom]
                vector[index] = remapped
        self.atoms = list(refinement.atoms)
        self._vectors.append(list(refinement.bitsets2))
        return pid


def differing_pair_count(
    bitsets1: Sequence[int],
    keys1: Sequence[Hashable],
    bitsets2: Sequence[int],
    keys2: Sequence[Hashable],
) -> int:
    """Count intersecting class pairs whose actions differ, bitwise.

    The exact count SemanticDiff would report for this pairing: the
    number of ``(i, j)`` with ``bitsets1[i] & bitsets2[j] != 0`` and
    ``keys1[i] != keys2[j]``.  Runs entirely on Python ints — no BDD
    work — and prunes through the disagreement region first: atoms where
    both sides take the same action cannot belong to a differing pair
    (each atom has exactly one owner per side), so masking them out
    empties almost every bitset on near-equivalent partitions.
    """
    unions1: dict = {}
    for key, bits in zip(keys1, bitsets1):
        if bits:
            unions1[key] = unions1.get(key, 0) | bits
    agree = 0
    for key, bits in zip(keys2, bitsets2):
        if bits:
            other = unions1.get(key)
            if other:
                agree |= other & bits
    candidates2 = []
    for key, bits in zip(keys2, bitsets2):
        masked = bits & ~agree
        if masked:
            candidates2.append((key, masked))
    if not candidates2:
        return 0
    count = 0
    for key1, bits in zip(keys1, bitsets1):
        masked1 = bits & ~agree
        if not masked1:
            continue
        for key2, masked2 in candidates2:
            if key1 != key2 and masked1 & masked2:
                count += 1
    return count
