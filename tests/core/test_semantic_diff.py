"""Tests for SemanticDiff: the Figure 1 reproduction plus differential
soundness/completeness against the concrete evaluation oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComponentKind, diff_acls, diff_route_maps, semantic_diff_classes
from repro.encoding import RouteSpace, route_map_equivalence_classes
from repro.model import (
    Acl,
    AclAction,
    Action,
    Community,
    CommunityList,
    CommunityListEntry,
    ConcreteRoute,
    MatchCommunities,
    MatchPrefixList,
    Prefix,
    PrefixList,
    PrefixListEntry,
    PrefixRange,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    evaluate_route_map,
)
from repro.workloads.acl_gen import generate_acl_pair, random_rules
from repro.workloads.figure1 import figure1_devices


@pytest.fixture(scope="module")
def figure1_maps():
    cisco, juniper = figure1_devices()
    return cisco.route_maps["POL"], juniper.route_maps["POL"]


class TestFigure1:
    def test_exactly_two_differences(self, figure1_maps):
        space, differences = diff_route_maps(*figure1_maps)
        assert len(differences) == 2

    def test_difference_pairs_match_table2(self, figure1_maps):
        space, differences = diff_route_maps(*figure1_maps)
        pairs = {(d.class1.step_name, d.class2.step_name) for d in differences}
        assert pairs == {
            ("route-map POL deny 10", "term rule3"),
            ("route-map POL deny 20", "term rule3"),
        }

    def test_actions_match_table2(self, figure1_maps):
        space, differences = diff_route_maps(*figure1_maps)
        for difference in differences:
            action1, action2 = difference.action_pair()
            assert action1 == "REJECT"
            assert action2 == "SET LOCAL PREF 30\nACCEPT"

    def test_witnesses_reproduce_concretely(self, figure1_maps):
        """Every reported difference must disagree on a decoded witness."""
        map1, map2 = figure1_maps
        space, differences = diff_route_maps(map1, map2)
        for difference in differences:
            model = difference.input_set.any_model()
            total = {
                index: model.get(index, False)
                for index in range(space.manager.num_vars)
            }
            example = space.decode(total)
            route = ConcreteRoute(
                prefix=example.prefix,
                communities=example.communities,
                local_pref=77,
            )
            result1 = evaluate_route_map(map1, route)
            result2 = evaluate_route_map(map2, route)
            outcome1 = (result1.accepted, result1.route)
            outcome2 = (result2.accepted, result2.route)
            assert outcome1 != outcome2

    def test_equal_maps_no_differences(self, figure1_maps):
        map1, _ = figure1_maps
        space, differences = diff_route_maps(map1, map1)
        assert differences == []


class TestRouteMapDifferential:
    """Randomized soundness/completeness against the concrete oracle."""

    def _random_map(self, name, rng, shared_lists):
        clauses = []
        for index in range(rng.randint(1, 4)):
            matches = []
            if rng.random() < 0.8:
                matches.append(MatchPrefixList(rng.choice(shared_lists["prefix"])))
            if rng.random() < 0.4:
                matches.append(MatchCommunities(rng.choice(shared_lists["community"])))
            action = Action.DENY if rng.random() < 0.5 else Action.PERMIT
            sets = (SetLocalPref(rng.choice([50, 100, 150])),) if (
                action is Action.PERMIT and rng.random() < 0.5
            ) else ()
            clauses.append(
                RouteMapClause(f"{name}-c{index}", action, tuple(matches), sets)
            )
        default = Action.PERMIT if rng.random() < 0.5 else Action.DENY
        return RouteMap(name, tuple(clauses), default_action=default)

    def _shared_lists(self, rng):
        prefix_lists = []
        for index in range(3):
            entries = []
            for _ in range(rng.randint(1, 3)):
                length = rng.choice([8, 12, 16, 24])
                network = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
                high = rng.choice([length, 32])
                action = Action.PERMIT if rng.random() < 0.8 else Action.DENY
                entries.append(
                    PrefixListEntry(
                        action, PrefixRange(Prefix(network, length), length, high)
                    )
                )
            prefix_lists.append(PrefixList(f"PL{index}", tuple(entries)))
        communities = [Community(10, 10), Community(10, 11), Community(20, 1)]
        community_lists = [
            CommunityList(
                "CANY",
                tuple(
                    CommunityListEntry(Action.PERMIT, frozenset({c}))
                    for c in communities[:2]
                ),
            ),
            CommunityList(
                "CALL",
                (CommunityListEntry(Action.PERMIT, frozenset(communities[:2])),),
            ),
        ]
        return {"prefix": prefix_lists, "community": community_lists}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_no_reported_differences_implies_agreement(self, seed):
        """Completeness: if SemanticDiff reports nothing, the maps agree
        on every sampled concrete route."""
        rng = random.Random(seed)
        lists = self._shared_lists(rng)
        map1 = self._random_map("A", rng, lists)
        map2 = self._random_map("B", rng, lists)
        space, differences = diff_route_maps(map1, map2)
        if differences:
            return  # covered by the soundness test below
        sampler = random.Random(seed + 1)
        communities = list(space.communities)
        for _ in range(40):
            length = sampler.randint(0, 32)
            network = sampler.getrandbits(32) & (
                0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            )
            carried = frozenset(
                c for c in communities if sampler.random() < 0.5
            )
            route = ConcreteRoute(
                prefix=Prefix(network, length),
                communities=carried,
                local_pref=77,
                med=7,
            )
            result1 = evaluate_route_map(map1, route)
            result2 = evaluate_route_map(map2, route)
            assert result1.accepted == result2.accepted
            if result1.accepted:
                assert result1.route == result2.route

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_reported_differences_are_sound(self, seed):
        """Soundness: each reported difference has a disagreeing witness."""
        rng = random.Random(seed)
        lists = self._shared_lists(rng)
        map1 = self._random_map("A", rng, lists)
        map2 = self._random_map("B", rng, lists)
        space, differences = diff_route_maps(map1, map2)
        for difference in differences:
            model = difference.input_set.any_model()
            total = {
                index: model.get(index, False)
                for index in range(space.manager.num_vars)
            }
            example = space.decode(total)
            # Sentinel attribute values expose set-vs-unset action
            # differences that a default-valued route would mask (a map
            # that sets local-pref 100 is NOT the identity, but agrees
            # with it on routes already carrying 100).
            route = ConcreteRoute(
                prefix=example.prefix,
                communities=example.communities,
                local_pref=77,
                med=7,
            )
            result1 = evaluate_route_map(map1, route)
            result2 = evaluate_route_map(map2, route)
            assert (result1.accepted, result1.route) != (
                result2.accepted,
                result2.route,
            )


class TestAclDiff:
    def test_identical_acls_equivalent(self):
        rng = random.Random(5)
        acl = Acl(name="A", lines=tuple(random_rules(40, rng)))
        space, differences = diff_acls(acl, acl)
        assert differences == []

    def test_injected_differences_detected(self):
        pair = generate_acl_pair(150, differences=8, seed=11)
        space, differences = diff_acls(pair.cisco_acl, pair.juniper_acl)
        assert differences, "injected differences must be found"
        # soundness: every reported difference disagrees concretely
        for difference in differences:
            model = difference.input_set.any_model()
            total = {
                index: model.get(index, False)
                for index in range(space.manager.num_vars)
            }
            packet = space.decode(total)
            args = (
                packet.src_ip,
                packet.dst_ip,
                packet.protocol,
                packet.src_port,
                packet.dst_port,
                packet.icmp_type,
            )
            assert pair.cisco_acl.evaluate_concrete(
                *args
            ) != pair.juniper_acl.evaluate_concrete(*args)

    def test_difference_union_equals_disagreement(self):
        """The union of all reported input sets is exactly the set of
        packets on which the ACLs disagree."""
        pair = generate_acl_pair(60, differences=4, seed=3)
        space, differences = diff_acls(pair.cisco_acl, pair.juniper_acl)
        union = space.manager.false
        for difference in differences:
            union = union | difference.input_set
        permit1 = space.acl_permit_pred(pair.cisco_acl)
        permit2 = space.acl_permit_pred(pair.juniper_acl)
        assert union == permit1 ^ permit2

    def test_default_action_difference(self):
        open_acl = Acl(name="A", lines=(), default_action=AclAction.PERMIT)
        closed_acl = Acl(name="A", lines=(), default_action=AclAction.DENY)
        space, differences = diff_acls(open_acl, closed_acl)
        assert len(differences) == 1
        assert differences[0].input_set.is_true()


class TestMetadata:
    def test_router_names_and_context_propagate(self, figure1_maps):
        space, differences = diff_route_maps(
            *figure1_maps, router1="r1", router2="r2", context="export to X"
        )
        assert all(d.router1 == "r1" and d.router2 == "r2" for d in differences)
        assert all(d.context == "export to X" for d in differences)
        assert all(d.kind is ComponentKind.ROUTE_MAP for d in differences)

    def test_set_action_only_difference_detected(self):
        """Two accepting maps that differ only in a set value."""
        map1 = RouteMap("P", (RouteMapClause("c", Action.PERMIT, (), (SetMed(1),)),))
        map2 = RouteMap("P", (RouteMapClause("c", Action.PERMIT, (), (SetMed(2),)),))
        space, differences = diff_route_maps(map1, map2)
        assert len(differences) == 1


class TestCanonicalActionKey:
    """Regression: the pairwise loop must key actions exactly as the
    agreement-region pruning does (by ``canonical_action_key``), or
    actions whose ``describe()`` and ``__eq__`` disagree yield spurious
    differences inside the agreement region."""

    class _IdentityAction:
        """describe()-equal but __eq__-unequal unless the same object."""

        def __init__(self, label):
            self.label = label

        def describe(self):
            return self.label

    def _classes(self, space):
        from repro.encoding.classes import EquivalenceClass

        left = space.range_pred(PrefixRange.parse("10.0.0.0/8 : 8-32"))
        mid = space.range_pred(PrefixRange.parse("20.0.0.0/8 : 8-32"))
        right = space.range_pred(PrefixRange.parse("30.0.0.0/8 : 8-32"))
        accept1 = self._IdentityAction("ACCEPT")
        accept2 = self._IdentityAction("ACCEPT")  # describe-equal twin
        reject = self._IdentityAction("REJECT")
        drop = self._IdentityAction("DROP")
        classes1 = [
            EquivalenceClass(left | right, accept1, "P1", "a1"),
            EquivalenceClass(mid, reject, "P1", "b1"),
        ]
        classes2 = [
            EquivalenceClass(left | mid, accept2, "P2", "a2"),
            EquivalenceClass(right, drop, "P2", "b2"),
        ]
        return left, mid, right, classes1, classes2

    def test_no_spurious_difference_in_agreement_region(self):
        space = RouteSpace([])
        left, mid, right, classes1, classes2 = self._classes(space)
        differences = semantic_diff_classes(
            ComponentKind.ROUTE_MAP, classes1, classes2
        )
        # Both sides ACCEPT on `left`; with the buggy identity comparison
        # the pairwise loop emitted that pure agreement region.
        for difference in differences:
            assert not difference.input_set.intersects(left)
        union = space.manager.disjoin(d.input_set for d in differences)
        assert union == mid | right

    def test_canonical_key_prefers_describe(self):
        from repro.core import canonical_action_key

        assert canonical_action_key(self._IdentityAction("X")) == "X"
        assert canonical_action_key(AclAction.PERMIT) is AclAction.PERMIT


class TestUnionCacheBound:
    """Regression: the per-manager union memo must stay bounded when one
    manager serves many distinct class lists (fleet runs)."""

    def test_lru_evicts_and_counts(self):
        from repro import perf
        from repro.core.setalg import _UNION_CACHE_SIZE, _union_cache

        space = RouteSpace([])
        perf.reset()
        baseline = RouteMap(
            "B", (RouteMapClause("c", Action.PERMIT, (), (SetMed(1),)),)
        )
        classes_b = route_map_equivalence_classes(space, baseline)
        for index in range(_UNION_CACHE_SIZE + 4):
            peer = RouteMap(
                f"P{index}",
                (RouteMapClause("c", Action.PERMIT, (), (SetMed(index + 2),)),),
            )
            semantic_diff_classes(
                ComponentKind.ROUTE_MAP,
                classes_b,
                route_map_equivalence_classes(space, peer),
                backend="bdd",  # the union memo is bdd-backend machinery
            )
        per_manager = _union_cache.get(space.manager)
        assert per_manager is not None
        assert len(per_manager) <= _UNION_CACHE_SIZE
        counters = perf.snapshot()["counters"]
        assert counters.get("semantic_diff.union_cache_evictions", 0) > 0
        perf.reset()
