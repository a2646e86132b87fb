"""Tests for the specialized BDD kernels.

The generic ite core (:meth:`BddManager.ite`) is the reference: each
connective's *compatibility formulation* is its ite expression, e.g.
``a & b`` is ``ite(a, b, FALSE)``.  ROBDDs are canonical, so a kernel
and its formulation must return the same node in one manager.

Covers:

* every kernel vs its ite formulation on randomized formulas,
* the cache-statistics API (``BddManager.stats`` / ``reset_stats``),
* commutative cache-key sharing and the bidirectional negation cache,
* the short-circuit intersection kernel,
* direct cube and threshold construction,
* deep-chain regressions: every traversal must survive BDDs far deeper
  than the default Python recursion limit.
"""

import random
import sys

import pytest

from repro.bdd import BddManager, BitVector

DEEP = 2400  # comfortably above the default recursion limit of 1000


def random_formula(manager, variables, rng, depth=0):
    """A random formula over ``variables`` using the public connectives."""
    if depth > 4 or rng.random() < 0.3:
        return rng.choice(variables)
    op = rng.randrange(5)
    left = random_formula(manager, variables, rng, depth + 1)
    if op == 0:
        return ~left
    right = random_formula(manager, variables, rng, depth + 1)
    if op == 1:
        return left & right
    if op == 2:
        return left | right
    if op == 3:
        return left ^ right
    return left - right


class TestFastCompatEquivalence:
    def test_random_formulas_agree(self):
        manager = BddManager()
        variables = manager.new_vars(8)
        false, true = manager.false, manager.true

        def ite_not(f):
            return manager.ite(f, false, true)

        rng = random.Random(42)
        for _ in range(60):
            a = random_formula(manager, variables, rng)
            b = random_formula(manager, variables, rng)
            assert a & b == manager.ite(a, b, false)
            assert a | b == manager.ite(a, true, b)
            assert a ^ b == manager.ite(a, ite_not(b), b)
            assert ~a == ite_not(a)
            assert a - b == manager.ite(a, ite_not(b), false)
            assert a.intersects(b) == (manager.ite(a, b, false) != false)
            assert manager.conjoin([a, b]) == manager.ite(a, b, false)
            assert manager.disjoin([a, b]) == manager.ite(a, true, b)


class TestStats:
    def test_counters_and_entries(self):
        manager = BddManager()
        a, b = manager.new_vars(2)
        first = a & b
        stats = manager.stats()
        assert stats["caches"]["and"]["misses"] == 1
        assert stats["caches"]["and"]["entries"] == 1
        second = a & b  # top-level cache hit
        assert second == first
        stats = manager.stats()
        assert stats["caches"]["and"]["hits"] == 1
        assert stats["caches"]["and"]["misses"] == 1
        assert stats["node_count"] == len(manager._var)
        assert stats["num_vars"] == 2

    def test_reset_stats_keeps_caches(self):
        manager = BddManager()
        a, b = manager.new_vars(2)
        _ = a & b
        manager.reset_stats()
        stats = manager.stats()
        assert stats["caches"]["and"]["hits"] == 0
        assert stats["caches"]["and"]["misses"] == 0
        # cache contents survive: re-asking is a hit, not a recompute
        _ = a & b
        assert manager.stats()["caches"]["and"]["hits"] == 1

    def test_commutative_key_sharing(self):
        manager = BddManager()
        a, b = manager.new_vars(2)
        assert (a & b) == (b & a)
        stats = manager.stats()
        assert stats["caches"]["and"]["misses"] == 1
        assert stats["caches"]["and"]["hits"] == 1
        assert (a | b) == (b | a)
        stats = manager.stats()
        assert stats["caches"]["or"]["misses"] == 1
        assert stats["caches"]["or"]["hits"] == 1

    def test_negation_cache_is_bidirectional(self):
        manager = BddManager()
        a, b = manager.new_vars(2)
        f = a & b
        g = ~f
        assert manager.stats()["caches"]["not"]["misses"] > 0
        manager.reset_stats()
        assert ~g == f  # involution answered from cache
        assert manager.stats()["caches"]["not"]["hits"] == 1
        assert manager.stats()["caches"]["not"]["misses"] == 0


class TestIntersects:
    def test_agrees_with_product_emptiness(self):
        manager = BddManager()
        variables = manager.new_vars(10)
        rng = random.Random(7)
        for _ in range(40):
            f = random_formula(manager, variables, rng)
            g = random_formula(manager, variables, rng)
            assert f.intersects(g) == (not (f & g).is_false())

    def test_terminals(self):
        manager = BddManager()
        (a,) = manager.new_vars(1)
        assert not manager.false.intersects(a)
        assert manager.true.intersects(a)
        assert a.intersects(a)
        assert not a.intersects(~a)

    def test_disjoint_pairs_are_cached(self):
        manager = BddManager()
        a, b = manager.new_vars(2)
        manager.reset_stats()
        assert not (a & b).intersects(~a & ~b)
        before = manager.stats()["caches"]["intersect"]
        assert not (a & b).intersects(~a & ~b)  # answered from disjoint cache
        after = manager.stats()["caches"]["intersect"]
        assert after["hits"] > before["hits"]


class TestCube:
    def test_cube_matches_conjunction(self):
        manager = BddManager()
        variables = manager.new_vars(6)
        expected = variables[0] & ~variables[2] & variables[5]
        built = manager.cube({0: True, 2: False, 5: True})
        assert built == expected

    def test_conflicting_phases_yield_false(self):
        manager = BddManager()
        manager.new_vars(3)
        assert manager.cube([(1, True), (1, False)]).is_false()

    def test_unallocated_variable_rejected(self):
        manager = BddManager()
        manager.new_vars(2)
        with pytest.raises(IndexError):
            manager.cube({5: True})

    def test_compat_mode_agrees(self):
        """The cube equals its formulation as a chain of ite conjunctions."""
        manager = BddManager()
        variables = manager.new_vars(4)
        not_3 = manager.ite(variables[3], manager.false, manager.true)
        expected = manager.ite(variables[1], not_3, manager.false)
        assert manager.cube({1: True, 3: False}) == expected


class TestThreshold:
    @pytest.mark.parametrize("bound", [0, 1, 7, 8, 200, 255])
    def test_threshold_matches_apply_construction(self, bound):
        manager = BddManager()
        field = BitVector.allocate(manager, "x", 8)
        at_most, at_least = field.le_const(bound), field.ge_const(bound)
        for value in range(256):
            point = field.eq_const(value)
            assert point.intersects(at_most) == (value <= bound)
            assert point.intersects(at_least) == (value >= bound)
        assert at_most == manager.disjoin(
            field.eq_const(value) for value in range(bound + 1)
        )
        assert at_least == manager.disjoin(
            field.eq_const(value) for value in range(bound, 256)
        )
        assert at_most.satcount(8) == bound + 1
        assert at_least.satcount(8) == 256 - bound

    def test_threshold_validates_inputs(self):
        manager = BddManager()
        manager.new_vars(4)
        with pytest.raises(ValueError):
            manager.threshold([0, 1], 4, at_least=True)  # bound too wide
        with pytest.raises(ValueError):
            manager.threshold([1, 0], 1, at_least=True)  # not increasing
        with pytest.raises(IndexError):
            manager.threshold([0, 9], 1, at_least=True)  # unallocated


class TestDeepChains:
    """Regressions: no traversal may recurse per BDD level."""

    @pytest.fixture(scope="class")
    def deep(self):
        manager = BddManager()
        variables = manager.new_vars(DEEP)
        chain = manager.cube({i: True for i in range(DEEP)})
        return manager, variables, chain

    def test_deep_connectives(self, deep):
        manager, variables, chain = deep
        limit = sys.getrecursionlimit()
        assert DEEP > limit  # the regression is meaningful
        shifted = manager.cube({i: True for i in range(1, DEEP)})
        assert (chain & shifted) == chain
        assert (chain | chain) == chain
        assert not (chain ^ chain)
        assert (~chain | chain).is_true()
        assert (chain - shifted).is_false()

    def test_deep_iter_cubes(self, deep):
        manager, variables, chain = deep
        cubes = list(manager.iter_cubes(chain))
        assert len(cubes) == 1
        assert len(cubes[0]) == DEEP
        assert all(cubes[0][i] for i in range(DEEP))

    def test_deep_quantification(self, deep):
        manager, variables, chain = deep
        assert manager.exists(chain, list(range(DEEP))).is_true()
        assert manager.forall(chain, [0]).is_false()

    def test_deep_queries(self, deep):
        manager, variables, chain = deep
        assert chain.satcount(DEEP) == 1
        assert chain.support() == list(range(DEEP))
        assert chain.any_model() is not None
        assert ~chain  # deep negation

    def test_deep_compat_mode(self, deep):
        """The ite reference survives deep chains too."""
        manager, variables, chain = deep
        shifted = manager.cube({i: True for i in range(1, DEEP)})
        false, true = manager.false, manager.true
        assert manager.ite(chain, shifted, false) == chain
        assert manager.ite(shifted, true, chain) == shifted
        assert manager.ite(chain, false, true) == ~chain
