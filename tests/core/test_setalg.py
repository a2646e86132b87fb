"""Set-algebra backend equivalence and atom-budget fallback.

The ``atoms`` backend must be observationally identical to the ``bdd``
backend: same differing class pairs, same (hash-consed) overlap BDDs,
same serialized reports after localization.  The property suite drives
both backends over the mutation workloads and asserts exact equality;
the fallback tests exercise the adversarial quadratic-refinement case
where the atoms backend transparently hands the pairing to the pairwise
loop.
"""

import pytest

from repro import perf
from repro.bdd import BddManager
from repro.core import config_diff, report_to_json, semantic_difference_to_dict
from repro.core.results import ComponentKind
from repro.core.semantic_diff import diff_acls, semantic_diff_classes
from repro.core.setalg import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    AtomsBackend,
    BddBackend,
    resolve_backend,
)
from repro.encoding import PacketSpace, acl_equivalence_classes
from repro.encoding.classes import EquivalenceClass
from repro.model.acl import AclAction
from repro.parsers import parse_cisco, parse_juniper
from repro.workloads.acl_gen import generate_acl_pair
from repro.workloads.datacenter import _cisco_tor, _juniper_tor
from repro.workloads.mutation import apply_random_mutation


class TestBackendEquivalence:
    """Property suite: both backends emit byte-identical results."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mutated_tor_config_reports_identical(self, seed):
        original = _cisco_tor(1, 2)
        mutation = apply_random_mutation(original, seed=seed)
        assert mutation is not None
        device1 = parse_cisco(original, "original.cfg")
        device2 = parse_cisco(mutation.text, "mutated.cfg")
        reports = {
            name: report_to_json(config_diff(device1, device2, set_backend=name))
            for name in BACKEND_NAMES
        }
        for name in BACKEND_NAMES[1:]:
            assert reports["bdd"] == reports[name], (name, mutation.description)

    def test_cross_dialect_tor_reports_identical(self):
        device1 = parse_cisco(_cisco_tor(1, 2), "tor1.cfg")
        device2 = parse_juniper(_juniper_tor(1, 2), "tor1.conf")
        reports = {
            name: report_to_json(config_diff(device1, device2, set_backend=name))
            for name in BACKEND_NAMES
        }
        for name in BACKEND_NAMES[1:]:
            assert reports["bdd"] == reports[name], name

    def test_acl_pair_differences_identical_across_spaces(self):
        # Fresh manager per backend: the comparison has to hold on
        # manager-independent content (serialized rows + satcounts).
        pair = generate_acl_pair(300, differences=6, seed=3)
        serialized = {}
        for name in BACKEND_NAMES:
            space = PacketSpace(manager=BddManager())
            differences = diff_acls(
                pair.cisco_acl, pair.juniper_acl, space=space, set_backend=name
            )[1]
            serialized[name] = [
                dict(
                    semantic_difference_to_dict(difference),
                    satcount=difference.input_set.satcount(),
                )
                for difference in differences
            ]
        assert serialized["bdd"]
        for name in BACKEND_NAMES[1:]:
            assert serialized["bdd"] == serialized[name], name

    def test_shared_manager_yields_identical_nodes(self):
        # Hash-consing makes equal sets the same node, so on one manager
        # the two backends must agree down to BDD node identity.
        pair = generate_acl_pair(120, differences=4, seed=1)
        space = PacketSpace(manager=BddManager())
        classes1 = acl_equivalence_classes(space, pair.cisco_acl)
        classes2 = acl_equivalence_classes(space, pair.juniper_acl)
        results = {
            name: semantic_diff_classes(
                ComponentKind.ACL, classes1, classes2, backend=name
            )
            for name in BACKEND_NAMES
        }
        assert len(results["bdd"]) > 0
        for name in BACKEND_NAMES[1:]:
            assert len(results["bdd"]) == len(results[name]), name
            for from_bdd, from_other in zip(results["bdd"], results[name]):
                assert from_bdd.class1 is from_other.class1
                assert from_bdd.class2 is from_other.class2
                assert from_bdd.input_set.node == from_other.input_set.node


def _cross_partition_classes(manager):
    """Two class lists whose joint refinement is genuinely quadratic.

    Each side partitions on a variable pair the other side never
    mentions, so all 16 cross pairs intersect; alternating actions make
    half of them genuine differences.
    """
    variables = manager.new_vars(4)

    def minterm_classes(pair, policy):
        terms = [manager.true]
        for var in pair:
            terms = [t & ~var for t in terms] + [t & var for t in terms]
        return [
            EquivalenceClass(
                predicate=term,
                action=AclAction.PERMIT if k % 2 == 0 else AclAction.DENY,
                policy_name=policy,
                step_name=f"step{k}",
                index=k,
            )
            for k, term in enumerate(terms)
        ]

    return (
        minterm_classes(variables[:2], "left"),
        minterm_classes(variables[2:], "right"),
    )


class TestAtomBudgetFallback:
    def test_fallback_is_transparent_and_counted(self):
        manager = BddManager()
        classes1, classes2 = _cross_partition_classes(manager)
        backend = AtomsBackend(atom_budget=8)
        before = perf.REGISTRY.counters.get("setalg.atom_budget_fallbacks", 0)
        differences = semantic_diff_classes(
            ComponentKind.ACL, classes1, classes2, backend=backend
        )
        after = perf.REGISTRY.counters.get("setalg.atom_budget_fallbacks", 0)
        assert after == before + 1
        assert backend.notes, "fallback left no diagnostics note"
        assert "exceeded the budget of 8 atoms" in backend.notes[0]
        assert "falling back to the bdd backend" in backend.notes[0]
        expected = semantic_diff_classes(
            ComponentKind.ACL, classes1, classes2, backend="bdd"
        )
        assert len(differences) == len(expected) > 0
        for got, want in zip(differences, expected):
            assert got.class1 is want.class1
            assert got.class2 is want.class2
            assert got.input_set.node == want.input_set.node

    def test_quadratic_pairing_within_budget_needs_no_fallback(self):
        manager = BddManager()
        classes1, classes2 = _cross_partition_classes(manager)
        backend = AtomsBackend(atom_budget=16)
        differences = semantic_diff_classes(
            ComponentKind.ACL, classes1, classes2, backend=backend
        )
        assert not backend.notes
        expected = semantic_diff_classes(
            ComponentKind.ACL, classes1, classes2, backend="bdd"
        )
        assert [
            (d.class1.index, d.class2.index, d.input_set.node)
            for d in differences
        ] == [
            (d.class1.index, d.class2.index, d.input_set.node)
            for d in expected
        ]

    def test_env_var_budget_triggers_fallback(self):
        manager = BddManager()
        classes1, classes2 = _cross_partition_classes(manager)
        backend = AtomsBackend(atom_budget=8)
        semantic_diff_classes(
            ComponentKind.ACL, classes1, classes2, backend=backend
        )
        assert backend.notes


class TestBackendResolution:
    def test_default_is_atoms(self):
        assert DEFAULT_BACKEND == "atoms"
        assert isinstance(resolve_backend(None), AtomsBackend)

    def test_name_resolution(self):
        assert isinstance(resolve_backend("bdd"), BddBackend)
        assert isinstance(resolve_backend("atoms"), AtomsBackend)
        assert BACKEND_NAMES == ("bdd", "atoms")
        # Fleet-scale seeding is part of the atoms path, not a backend.
        for name in ("cubes", "fleet-atoms"):
            with pytest.raises(ValueError, match="unknown set-algebra backend"):
                resolve_backend(name)

    def test_instances_pass_through(self):
        backend = AtomsBackend(atom_budget=5)
        assert resolve_backend(backend) is backend
