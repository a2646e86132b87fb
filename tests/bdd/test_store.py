"""Node-store equivalence, growth, budgets, and selection."""

import pytest

from repro.bdd import AnalysisBudgetExceeded, BddManager
from repro.bdd.store import DictNodeStore, FlatNodeStore, resolve_store

#: Both stores, by their ``kind``; pass fresh instances to BddManager.
STORES = pytest.mark.parametrize(
    "store_class", [FlatNodeStore, DictNodeStore], ids=["flat", "dict"]
)


class TestStoreEquivalence:
    """Both stores must assign identical node ids for identical work."""

    def _build(self, manager):
        vars_ = manager.new_vars(8)
        acc = manager.true
        for index, var in enumerate(vars_):
            acc = acc & (var if index % 2 else ~var)
        spread = manager.false
        for index, var in enumerate(vars_):
            spread = spread | (var & vars_[(index + 3) % len(vars_)])
        return [acc, spread, acc ^ spread, spread - acc, ~spread]

    def test_identical_node_ids_across_stores(self):
        flat = BddManager()
        dictionary = BddManager(store=DictNodeStore())
        for from_flat, from_dict in zip(
            self._build(flat), self._build(dictionary)
        ):
            assert from_flat.node == from_dict.node
        assert flat.node_count == dictionary.node_count
        assert flat._store.unique_entries == dictionary._store.unique_entries
        assert flat._store.unique_entries == flat.node_count - 2

    def test_hash_consing_across_table_growth(self):
        # Push well past the initial table capacity so the flat store
        # rehashes several times; find-or-create must keep returning the
        # original ids afterwards.
        manager = BddManager(store=FlatNodeStore())
        vars_ = manager.new_vars(16)
        seen = {}
        for i in range(16):
            for j in range(16):
                if i == j:
                    continue
                node = (vars_[i] & ~vars_[j] | vars_[j] & ~vars_[i]).node
                seen[(i, j)] = node
        threshold_nodes = [
            manager.threshold(list(range(16)), bound, at_least=True).node
            for bound in range(0, 1 << 16, 257)
        ]
        for (i, j), node in seen.items():
            rebuilt = (vars_[i] & ~vars_[j] | vars_[j] & ~vars_[i]).node
            assert rebuilt == node
        for bound, node in zip(range(0, 1 << 16, 257), threshold_nodes):
            assert (
                manager.threshold(list(range(16)), bound, at_least=True).node
                == node
            )


class TestBudgetHook:
    @STORES
    def test_node_limit_enforced_inside_kernels(self, store_class):
        manager = BddManager(store=store_class(), node_limit=64)
        vars_ = manager.new_vars(12)
        with pytest.raises(AnalysisBudgetExceeded) as excinfo:
            spread = manager.false
            for index, var in enumerate(vars_):
                spread = spread | (var & vars_[(index + 5) % len(vars_)])
        assert excinfo.value.resource == "nodes"
        # The manager stays usable after the abort.
        manager.set_budget()
        assert (vars_[0] & vars_[1]).satcount(2) == 1

    @STORES
    def test_no_budget_no_hook(self, store_class):
        manager = BddManager(store=store_class())
        assert manager._store.budget_check is None
        manager.set_budget(node_limit=1000)
        assert manager._store.budget_check is not None
        manager.set_budget()
        assert manager._store.budget_check is None


class TestResolution:
    def test_default_is_flat(self):
        assert isinstance(resolve_store(None), FlatNodeStore)
        assert BddManager().stats()["node_store"] == "flat"

    def test_names_and_instances(self):
        for store in (FlatNodeStore(), DictNodeStore()):
            assert resolve_store(store) is store
        assert BddManager(store=DictNodeStore()).stats()["node_store"] == "dict"
        for name in ("flat", "dict"):
            with pytest.raises(TypeError, match="not a name"):
                resolve_store(name)
