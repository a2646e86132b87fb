"""Unit tests for the atomic-predicate partition refinement."""

import pytest

from repro.bdd import (
    AtomBudgetExceeded,
    BddManager,
    default_atom_budget,
    refine_partitions,
)
from repro.bdd.atoms import resolve_atom_budget


@pytest.fixture
def manager():
    return BddManager()


def _minterms(manager, variables):
    """All full assignments over ``variables``, as disjoint BDDs."""
    terms = [manager.true]
    for var in variables:
        terms = [t & ~var for t in terms] + [t & var for t in terms]
    return terms


def _grouped(manager, variables, groups):
    """A partition formed by disjoining the given minterm index groups."""
    terms = _minterms(manager, variables)
    return [manager.disjoin([terms[k] for k in group]) for group in groups]


class TestRefinement:
    def test_identical_partitions_resolve_by_node_identity(self, manager):
        preds = _grouped(manager, manager.new_vars(2), [(0, 1), (2,), (3,)])
        refinement = refine_partitions(preds, preds)
        # One atom per class, each the shared predicate itself, found by
        # one dict probe per class — no scanning.
        assert [a.node for a in refinement.atoms] == [p.node for p in preds]
        assert refinement.owner1 == [0, 1, 2]
        assert refinement.owner2 == [0, 1, 2]
        assert refinement.probes == len(preds)
        assert refinement.uncovered == 0

    def test_atoms_are_the_nonempty_cross_intersections(self, manager):
        variables = manager.new_vars(2)
        preds1 = _grouped(manager, variables, [(0, 1), (2, 3)])
        preds2 = _grouped(manager, variables, [(0,), (1, 2), (3,)])
        refinement = refine_partitions(preds1, preds2)
        expected = {
            (i, j): (p & q).node
            for i, p in enumerate(preds1)
            for j, q in enumerate(preds2)
            if not (p & q).is_false()
        }
        got = {
            (refinement.owner1[k], refinement.owner2[k]): atom.node
            for k, atom in enumerate(refinement.atoms)
        }
        assert got == expected

    def test_bitsets_mark_atom_ownership(self, manager):
        variables = manager.new_vars(2)
        preds1 = _grouped(manager, variables, [(0, 1), (2, 3)])
        preds2 = _grouped(manager, variables, [(0,), (1, 2), (3,)])
        refinement = refine_partitions(preds1, preds2)
        for i, bits in enumerate(refinement.bitsets1):
            expected = sum(
                1 << k
                for k, owner in enumerate(refinement.owner1)
                if owner == i
            )
            assert bits == expected
        for j, bits in enumerate(refinement.bitsets2):
            expected = sum(
                1 << k
                for k, owner in enumerate(refinement.owner2)
                if owner == j
            )
            assert bits == expected
        # Each class is exactly the disjunction of its atoms.
        for i, pred in enumerate(preds1):
            owned = [
                atom
                for k, atom in enumerate(refinement.atoms)
                if refinement.owner1[k] == i
            ]
            assert manager.disjoin(owned).node == pred.node

    def test_all_atoms_mask_covers_every_atom(self, manager):
        variables = manager.new_vars(2)
        preds = _grouped(manager, variables, [(0,), (1,), (2, 3)])
        refinement = refine_partitions(preds, preds)
        assert refinement.all_atoms_mask == (1 << len(refinement.atoms)) - 1

    def test_uncovered_remainder_is_counted_not_atomized(self, manager):
        variables = manager.new_vars(1)
        terms = _minterms(manager, variables)
        # Side 2 covers only half the space: the other half of side 1's
        # class cannot belong to any cross pair.
        refinement = refine_partitions([manager.true], [terms[0]])
        assert len(refinement.atoms) == 1
        assert refinement.atoms[0].node == terms[0].node
        assert refinement.uncovered == 1

    def test_false_predicates_are_skipped(self, manager):
        variables = manager.new_vars(1)
        terms = _minterms(manager, variables)
        refinement = refine_partitions(
            [terms[0], manager.false, terms[1]],
            [manager.false, terms[0], terms[1]],
        )
        assert refinement.owner1 == [0, 2]
        assert refinement.owner2 == [1, 2]
        assert refinement.bitsets1[1] == 0
        assert refinement.bitsets2[0] == 0

    def test_deterministic(self, manager):
        variables = manager.new_vars(3)
        preds1 = _grouped(manager, variables, [(0, 1, 2), (3, 4), (5, 6, 7)])
        preds2 = _grouped(manager, variables, [(0,), (1, 2, 3), (4, 5, 6, 7)])
        first = refine_partitions(preds1, preds2)
        second = refine_partitions(preds1, preds2)
        assert [a.node for a in first.atoms] == [a.node for a in second.atoms]
        assert first.owner1 == second.owner1
        assert first.owner2 == second.owner2
        assert first.probes == second.probes

    def test_shifted_partition_scans_stay_local(self, manager):
        # Every class boundary moved by one minterm: no exact matches at
        # all, but alignment still holds, so the cursor keeps the scan
        # linear instead of quadratic.
        variables = manager.new_vars(4)
        count = 8
        groups1 = [(2 * k, 2 * k + 1) for k in range(count)]
        groups2 = [
            ((2 * k + 1) % 16, (2 * k + 2) % 16) for k in range(count)
        ]
        preds1 = _grouped(manager, variables, groups1)
        preds2 = _grouped(manager, variables, groups2)
        refinement = refine_partitions(preds1, preds2)
        assert len(refinement.atoms) == 2 * count
        assert refinement.probes <= 5 * count
        assert refinement.probes < count * count


class TestBudget:
    def test_default_budget(self):
        assert default_atom_budget(2, 2) == 2048
        assert default_atom_budget(1000, 1000) == 8000

    def test_resolve_prefers_argument(self):
        assert resolve_atom_budget(3, 10, 10) == 3
        assert resolve_atom_budget(None, 10, 10) == 2048

    def test_quadratic_refinement_trips_the_budget(self, manager):
        # Cross partitions over disjoint variable sets: every pair of
        # classes intersects, so the refinement is genuinely quadratic.
        variables = manager.new_vars(4)
        preds1 = _minterms(manager, variables[:2])
        preds2 = _minterms(manager, variables[2:])
        with pytest.raises(AtomBudgetExceeded) as excinfo:
            refine_partitions(preds1, preds2, atom_budget=8)
        exc = excinfo.value
        assert exc.budget == 8
        assert exc.count1 == 4
        assert exc.count2 == 4
        assert "exceeded the budget of 8 atoms" in str(exc)

    def test_quadratic_refinement_fits_a_large_budget(self, manager):
        variables = manager.new_vars(4)
        preds1 = _minterms(manager, variables[:2])
        preds2 = _minterms(manager, variables[2:])
        refinement = refine_partitions(preds1, preds2, atom_budget=16)
        assert len(refinement.atoms) == 16
        assert refinement.uncovered == 0
