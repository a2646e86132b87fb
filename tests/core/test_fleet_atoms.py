"""Fleet-scale shared-atom universe: folding, counting, seeding.

Covers the two layers of fleet atomization on the default path:

* :class:`repro.bdd.fleet_atoms.AtomUniverse` and
  :func:`repro.bdd.fleet_atoms.differing_pair_count` — the fold and the
  bitwise pair counting;
* :func:`repro.core.fleet_atoms.seed_acl_counts` as run by
  :func:`repro.core.fleet.compare_fleet` — one universe per connected
  component of the missing-pair graph, memo seeding, the
  zero-BDD-apply matrix, the atom-budget fallback, and persisted seeds
  on warm runs.
"""

import pickle
import random

import pytest

from repro import perf
from repro.bdd import ATOM_BUDGET_ENV, AtomBudgetExceeded, BddManager
from repro.bdd.atoms import refine_partitions
from repro.bdd.fleet_atoms import (
    AtomUniverse,
    UniverseCoverageError,
    differing_pair_count,
)
from repro.cache import ArtifactCache
from repro.core import fleet as fleet_module
from repro.core.fleet import compare_fleet
from repro.core.fleet_atoms import seed_acl_counts
from repro.core.match_policies import match_policies
from repro.core.memo import DiffMemo, acl_key, count_entry
from repro.core.parallel import pairwise_count_outcomes
from repro.core.results import ComponentKind
from repro.core.semantic_diff import diff_acls
from repro.core.serialize import fleet_report_to_dict
from repro.core.setalg import canonical_action_key
from repro.encoding import PacketSpace, acl_equivalence_classes
from repro.model import DeviceConfig
from repro.model.acl import Acl
from repro.workloads.acl_gen import random_rules
from repro.workloads.datacenter import gateway_fleet, parameterized_clos_fleet


def _counter(name):
    return perf.REGISTRY.counters.get(name, 0)


def _device(hostname, acl):
    device = DeviceConfig(hostname=hostname)
    device.acls[acl.name] = acl
    return device


def _acl(name, rules=12, seed=0):
    rng = random.Random(seed)
    return Acl(name=name, lines=tuple(random_rules(rules, rng)))


def _seed(pairs, memo):
    """Run the seeding step over ``pairs`` as compare_fleet would."""
    pairings = [match_policies(d1, d2) for d1, d2 in pairs]
    seed_acl_counts(pairs, pairings, memo)
    return pairings


def _all_pairs(devices):
    return [
        (devices[i], devices[j])
        for i in range(len(devices))
        for j in range(i + 1, len(devices))
    ]


class TestAtomUniverse:
    def _partitions(self, manager, count=3):
        """`count` partitions of the 4-variable space, pairwise distinct."""
        variables = manager.new_vars(4)
        partitions = []
        for index in range(count):
            var = variables[index % len(variables)]
            other = variables[(index + 1) % len(variables)]
            partitions.append(
                [var & other, var & ~other, ~var & other, ~var & ~other]
            )
        return partitions

    def test_two_partition_fold_matches_refine_partitions(self):
        manager = BddManager()
        preds1, preds2 = self._partitions(manager, 2)
        universe = AtomUniverse()
        pid1 = universe.add_partition(preds1)
        pid2 = universe.add_partition(preds2)
        reference = refine_partitions(preds1, preds2)
        assert universe.size == len(reference.atoms)
        # Same intersection structure: class i of side 1 and class j of
        # side 2 share an atom iff their predicates intersect.
        for i, bits1 in enumerate(universe.vector(pid1)):
            for j, bits2 in enumerate(universe.vector(pid2)):
                assert bool(bits1 & bits2) == manager.intersects(
                    preds1[i], preds2[j]
                )

    def test_every_folded_vector_partitions_the_final_atom_set(self):
        manager = BddManager()
        partitions = self._partitions(manager, 3)
        universe = AtomUniverse()
        pids = [universe.add_partition(preds) for preds in partitions]
        assert universe.partitions == 3
        full = universe.all_atoms_mask
        for pid in pids:
            vector = universe.vector(pid)
            union = 0
            for bits in vector:
                assert union & bits == 0  # classes stay disjoint
                union |= bits
            assert union == full  # and cover every atom

    def test_bitsets_agree_with_bdd_intersection_after_remap(self):
        manager = BddManager()
        partitions = self._partitions(manager, 3)
        universe = AtomUniverse()
        pids = [universe.add_partition(preds) for preds in partitions]
        for pid_a, preds_a in zip(pids, partitions):
            for pid_b, preds_b in zip(pids, partitions):
                for i, bits_a in enumerate(universe.vector(pid_a)):
                    for j, bits_b in enumerate(universe.vector(pid_b)):
                        assert bool(bits_a & bits_b) == manager.intersects(
                            preds_a[i], preds_b[j]
                        )

    def test_false_predicates_get_empty_bitsets(self):
        manager = BddManager()
        (var,) = manager.new_vars(1)
        universe = AtomUniverse()
        pid = universe.add_partition([var, ~var, manager.false])
        assert universe.vector(pid)[2] == 0
        assert universe.size == 2

    def test_budget_overrun_raises(self):
        manager = BddManager()
        partitions = self._partitions(manager, 3)
        universe = AtomUniverse(atom_budget=5)
        universe.add_partition(partitions[0])
        with pytest.raises(AtomBudgetExceeded):
            for preds in partitions[1:]:
                universe.add_partition(preds)

    def test_non_covering_partition_raises_coverage_error(self):
        manager = BddManager()
        (var,) = manager.new_vars(1)
        universe = AtomUniverse()
        universe.add_partition([var, ~var])
        with pytest.raises(UniverseCoverageError):
            universe.add_partition([var])  # misses the ~var half


class TestDifferingPairCount:
    def test_matches_brute_force_on_random_partitions(self):
        # Each side's bitsets must partition the atom set (one owner per
        # atom per side) — that invariant is what makes the
        # agreement-mask pruning exact — so assign each atom to a random
        # class per side instead of drawing arbitrary bitsets.
        rng = random.Random(5)
        for _ in range(50):
            width = rng.randint(1, 20)
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            bitsets1 = [0] * n1
            bitsets2 = [0] * n2
            for atom in range(width):
                bitsets1[rng.randrange(n1)] |= 1 << atom
                bitsets2[rng.randrange(n2)] |= 1 << atom
            keys1 = [rng.randint(0, 2) for _ in range(n1)]
            keys2 = [rng.randint(0, 2) for _ in range(n2)]
            expected = sum(
                1
                for b1, k1 in zip(bitsets1, keys1)
                for b2, k2 in zip(bitsets2, keys2)
                if k1 != k2 and b1 & b2
            )
            assert (
                differing_pair_count(bitsets1, keys1, bitsets2, keys2)
                == expected
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_semantic_diff_on_acl_pairs(self, seed):
        acl1 = _acl("A", rules=14, seed=seed)
        acl2 = _acl("B", rules=14, seed=seed + 100)
        space = PacketSpace()
        classes1 = acl_equivalence_classes(space, acl1)
        classes2 = acl_equivalence_classes(space, acl2)
        universe = AtomUniverse()
        pid1 = universe.add_partition([c.predicate for c in classes1])
        pid2 = universe.add_partition([c.predicate for c in classes2])
        count = differing_pair_count(
            universe.vector(pid1),
            [canonical_action_key(c.action) for c in classes1],
            universe.vector(pid2),
            [canonical_action_key(c.action) for c in classes2],
        )
        _, differences = diff_acls(acl1, acl2, space=PacketSpace())
        assert count == len(differences)

    def test_identical_sides_count_zero(self):
        acl = _acl("A", rules=10, seed=2)
        space = PacketSpace()
        classes = acl_equivalence_classes(space, acl)
        universe = AtomUniverse()
        pid = universe.add_partition([c.predicate for c in classes])
        keys = [canonical_action_key(c.action) for c in classes]
        vector = universe.vector(pid)
        assert differing_pair_count(vector, keys, vector, keys) == 0


class TestFleetAtomizerGrouping:
    """One universe per connected component of the missing-pair graph."""

    def _two_lans(self):
        return [
            _device(name, _acl("FILTER", seed=seed))
            for name, seed in (("a1", 1), ("a2", 2), ("b1", 3), ("b2", 4))
        ]

    def test_one_universe_per_connected_group(self):
        devices = self._two_lans()
        before = _counter("fleet_atoms.universes")
        _seed([(devices[0], devices[1]), (devices[2], devices[3])], DiffMemo())
        assert _counter("fleet_atoms.universes") == before + 2

    def test_singleton_groups_are_skipped(self):
        # Two devices with the same ACL content: the pair's only
        # fingerprint is a one-node component, seeded 0 without a fold.
        acl = _acl("FILTER", seed=1)
        first, second = _device("a1", acl), _device("a2", acl)
        memo = DiffMemo()
        before = _counter("fleet_atoms.universes")
        _seed([(first, second)], memo)
        assert _counter("fleet_atoms.universes") == before
        fingerprint = first.fingerprints.acls["FILTER"]
        assert memo.peek(acl_key(fingerprint, fingerprint))["count"] == 0

    def test_cross_group_pairs_are_not_seeded(self):
        devices = self._two_lans()
        memo = DiffMemo()
        _seed([(devices[0], devices[1]), (devices[2], devices[3])], memo)
        fps = [device.fingerprints.acls["FILTER"] for device in devices]
        assert acl_key(fps[0], fps[1]) in memo
        assert acl_key(fps[2], fps[3]) in memo
        # Only the orientation the matrix looks up is seeded.
        assert acl_key(fps[1], fps[0]) not in memo
        assert acl_key(fps[0], fps[2]) not in memo

    def test_topology_blind_fleet_is_one_universe(self):
        devices, _ = gateway_fleet(count=5, outliers=4, rule_count=10, seed=9)
        before = _counter("fleet_atoms.universes")
        compare_fleet(devices, workers=1)
        assert _counter("fleet_atoms.universes") == before + 1


class TestSeededMatrix:
    def test_seeded_counts_match_per_pair_diffs(self):
        devices, _ = gateway_fleet(count=5, outliers=4, rule_count=12, seed=4)
        memo = DiffMemo()
        pairs = _all_pairs(devices)
        _seed(pairs, memo)
        checked = 0
        for device1, device2 in pairs:
            for name, acl1 in device1.acls.items():
                acl2 = device2.acls[name]
                key = acl_key(
                    device1.fingerprints.acls[name],
                    device2.fingerprints.acls[name],
                )
                _, differences = diff_acls(acl1, acl2, space=PacketSpace())
                assert memo.peek(key)["count"] == len(differences)
                checked += 1
        assert checked == len(pairs)

    def test_matrix_replays_with_zero_bdd_applies(self):
        devices, _ = gateway_fleet(count=6, outliers=5, rule_count=12, seed=7)
        memo = DiffMemo()
        pairs = _all_pairs(devices)
        pairings = _seed(pairs, memo)
        before = _counter("bdd.applies")
        outcomes = pairwise_count_outcomes(
            pairs, workers=1, memo=memo, pairings=pairings
        )
        assert _counter("bdd.applies") == before  # the acceptance criterion
        assert all(outcome.ok for outcome in outcomes)

    def test_reports_identical_to_other_backends(self):
        devices, _ = gateway_fleet(count=5, outliers=3, rule_count=10, seed=2)
        reports = {
            name: fleet_report_to_dict(compare_fleet(devices, workers=1, **kw))
            for name, kw in (
                ("default", {}),
                ("bdd", {"set_backend": "bdd"}),
                ("per-pair", {"use_memo": False}),
            )
        }
        assert reports["default"] == reports["bdd"]
        assert reports["default"] == reports["per-pair"]
        assert any(count for _, _, count in reports["default"]["matrix"])

    def test_seeding_matches_only_the_plans_analyzed_pairs(self, monkeypatch):
        devices, _ = parameterized_clos_fleet(
            count=12, roles=3, rule_count=6, seed=0
        )
        calls = []
        real = fleet_module.match_policies

        def counting(device1, device2):
            calls.append((device1.hostname, device2.hostname))
            return real(device1, device2)

        monkeypatch.setattr(fleet_module, "match_policies", counting)
        report = compare_fleet(devices, workers=1)
        analyzed = report.symmetry.analyzed_pairs
        assert analyzed < report.symmetry.total_pairs
        assert len(calls) == len(set(calls)) == analyzed


class TestBudgetFallback:
    def test_overrun_falls_back_per_component_counter_only(self, monkeypatch):
        devices, _ = gateway_fleet(count=4, outliers=3, rule_count=10, seed=6)
        memo = DiffMemo()
        monkeypatch.setenv(ATOM_BUDGET_ENV, "2")
        before = _counter("fleet_atoms.budget_fallbacks")
        _seed(_all_pairs(devices), memo)
        assert _counter("fleet_atoms.budget_fallbacks") == before + 1
        # No ACL seeds were written for the fallen-back component.
        assert len(memo) == 0

    def test_env_budget_fallback_keeps_report_identical(self, monkeypatch):
        devices, _ = gateway_fleet(count=4, outliers=3, rule_count=10, seed=6)
        baseline = fleet_report_to_dict(
            compare_fleet(devices, workers=1, use_memo=False)
        )
        monkeypatch.setenv(ATOM_BUDGET_ENV, "4")
        before = _counter("fleet_atoms.budget_fallbacks")
        report = compare_fleet(devices, workers=1)
        assert _counter("fleet_atoms.budget_fallbacks") > before
        # The fallback is a perf counter, never a report note.
        assert report.notes == []
        assert fleet_report_to_dict(report) == baseline

    def test_unconstrained_run_has_no_notes(self):
        devices, _ = gateway_fleet(count=4, outliers=2, rule_count=10, seed=6)
        report = compare_fleet(devices, workers=1)
        assert report.notes == []


class TestPersistedSeeds:
    def test_second_run_on_the_same_memo_folds_nothing(self):
        devices, _ = gateway_fleet(count=4, outliers=3, rule_count=10, seed=8)
        memo = DiffMemo()
        before = _counter("fleet_atoms.universes")
        first = fleet_report_to_dict(compare_fleet(devices, workers=1, memo=memo))
        assert _counter("fleet_atoms.universes") == before + 1
        second = fleet_report_to_dict(compare_fleet(devices, workers=1, memo=memo))
        assert _counter("fleet_atoms.universes") == before + 1
        assert first == second

    def test_seeds_cross_pickling(self):
        devices, _ = gateway_fleet(count=3, outliers=2, rule_count=8, seed=8)
        memo = DiffMemo()
        _seed(_all_pairs(devices), memo)
        # Matrix workers receive the memo pickled; the seeds travel.
        clone = pickle.loads(pickle.dumps(memo))
        assert len(clone) == len(memo) > 0

    def test_warm_run_on_a_persistent_cache_folds_nothing(self, tmp_path):
        devices, _ = gateway_fleet(count=6, outliers=5, rule_count=10, seed=3)
        cold = fleet_report_to_dict(
            compare_fleet(
                devices, workers=1, memo=DiffMemo(ArtifactCache(tmp_path))
            )
        )
        perf.reset()
        warm = fleet_report_to_dict(
            compare_fleet(
                devices, workers=1, memo=DiffMemo(ArtifactCache(tmp_path))
            )
        )
        counters = perf.REGISTRY.counters
        assert counters.get("fleet_atoms.universes", 0) == 0
        assert counters.get("memo.misses", 0) == 0
        assert counters.get("memo.hits", 0) > 0
        assert warm == cold

    def test_one_device_edit_folds_only_its_pairs(self, tmp_path):
        devices, _ = gateway_fleet(count=6, outliers=5, rule_count=10, seed=3)
        compare_fleet(devices, workers=1, memo=DiffMemo(ArtifactCache(tmp_path)))
        edited = list(devices)
        edited[0] = _device(devices[0].hostname, _acl("GW_POLICY", seed=99))
        perf.reset()
        report = compare_fleet(
            edited, workers=1, memo=DiffMemo(ArtifactCache(tmp_path))
        )
        counters = perf.REGISTRY.counters
        assert counters.get("fleet_atoms.universes", 0) == 1
        # The edited ACL against each of the other five.
        assert counters.get("memo.seeds", 0) == len(devices) - 1
        assert fleet_report_to_dict(report) == fleet_report_to_dict(
            compare_fleet(edited, workers=1, use_memo=False)
        )


class TestSeedEntries:
    def test_count_entry_shape(self):
        entry = count_entry(ComponentKind.ACL, 3)
        assert entry["count"] == 3
        assert entry["kind"] == ComponentKind.ACL.value
        assert entry["seeded"] is True
        assert entry["semantic"] == []
        assert entry["structural"] == []

    def test_put_seed_never_overwrites(self):
        memo = DiffMemo()
        key = acl_key("fp1", "fp2")
        memo.put_seed(key, count_entry(ComponentKind.ACL, 1))
        memo.put_seed(key, count_entry(ComponentKind.ACL, 9))
        assert memo.get(key)["count"] == 1
