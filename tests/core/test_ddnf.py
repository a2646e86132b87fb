"""Tests for the prefix-range containment DAG (§3.2, Figure 3)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    address_prefix_algebra,
    build_dag,
    close_under_intersection,
    prefix_range_algebra,
)
from repro.model import Prefix, PrefixRange


def _range(text):
    return PrefixRange.parse(text)


# Seven ranges shaped like the paper's Figure 3 example: a root U with two
# incomparable children A-ish regions, nested descendants, and a node (D)
# reachable through two parents.
FIGURE3_RANGES = [
    _range("10.0.0.0/8 : 8-32"),      # A
    _range("10.0.0.0/9 : 9-32"),      # B  (inside A)
    _range("10.128.0.0/9 : 9-32"),    # C  (inside A, disjoint from B)
    _range("10.0.0.0/9 : 16-24"),     # D  (inside B)
    _range("10.64.0.0/10 : 10-32"),   # E  (inside B)
    _range("10.128.0.0/10 : 10-28"),  # F  (inside C)
    _range("10.128.0.0/12 : 12-20"),  # G  (inside F)
]


class TestClosure:
    def test_universe_added(self):
        closed = close_under_intersection([_range("10.0.0.0/8 : 8-32")], prefix_range_algebra())
        assert PrefixRange.universe() in closed

    def test_contains_inputs(self):
        closed = close_under_intersection(FIGURE3_RANGES, prefix_range_algebra())
        for prefix_range in FIGURE3_RANGES:
            assert prefix_range in closed

    def test_closed_under_intersection(self):
        algebra = prefix_range_algebra()
        closed = close_under_intersection(FIGURE3_RANGES, algebra)
        for a in closed:
            for b in closed:
                meet = algebra.intersect(a, b)
                if meet is not None:
                    assert meet in closed

    def test_new_intersections_materialize(self):
        # Two overlapping ranges whose meet is neither input.
        a = _range("10.0.0.0/8 : 8-20")
        b = _range("10.9.0.0/16 : 16-32")
        closed = close_under_intersection([a, b], prefix_range_algebra())
        assert _range("10.9.0.0/16 : 16-20") in closed


class TestDagInvariants:
    @pytest.fixture(scope="class")
    def dag(self):
        return build_dag(FIGURE3_RANGES, prefix_range_algebra())

    def test_root_is_universe(self, dag):
        assert dag.root.label == PrefixRange.universe()

    def test_all_nodes_reachable(self, dag):
        assert len(dag.topological()) == len(dag)

    def test_unique_labels(self, dag):
        labels = [node.label for node in dag.topological()]
        assert len(labels) == len(set(labels))

    def test_edges_are_strict_containments(self, dag):
        algebra = prefix_range_algebra()
        for node in dag.topological():
            for child in node.children:
                assert algebra.contains(node.label, child.label)
                assert node.label != child.label

    def test_edges_are_immediate(self, dag):
        algebra = prefix_range_algebra()
        labels = [node.label for node in dag.topological()]
        for node in dag.topological():
            for child in node.children:
                for middle in labels:
                    if middle in (node.label, child.label):
                        continue
                    strictly_between = (
                        algebra.contains(node.label, middle)
                        and algebra.contains(middle, child.label)
                        and middle != node.label
                        and middle != child.label
                    )
                    assert not strictly_between, (
                        f"edge {node.label} -> {child.label} skips {middle}"
                    )

    def test_nested_chain(self, dag):
        b = dag.node(_range("10.0.0.0/9 : 9-32"))
        child_labels = {child.label for child in b.children}
        assert _range("10.0.0.0/9 : 16-24") in child_labels
        assert _range("10.64.0.0/10 : 10-32") in child_labels


class TestAddressAlgebra:
    def test_prefix_as_address_sets(self):
        algebra = address_prefix_algebra()
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.9.0.0/16")
        assert algebra.contains(outer, inner)
        assert algebra.intersect(outer, inner) == inner
        assert algebra.intersect(inner, Prefix.parse("11.0.0.0/8")) is None
        assert algebra.universe == Prefix(0, 0)

    def test_dag_over_addresses(self):
        prefixes = [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.9.0.0/16"),
            Prefix.parse("9.140.0.0/23"),
        ]
        dag = build_dag(prefixes, address_prefix_algebra())
        assert dag.root.label == Prefix(0, 0)
        assert len(dag) == 4


@st.composite
def random_ranges(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    ranges = []
    for _ in range(count):
        length = draw(st.integers(min_value=4, max_value=24))
        network = draw(st.integers(min_value=0, max_value=0xFFFFFFFF)) & (
            (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        )
        low = draw(st.integers(min_value=length, max_value=32))
        high = draw(st.integers(min_value=low, max_value=32))
        ranges.append(PrefixRange(Prefix(network, length), low, high))
    return ranges


def _reference_closure(ranges, algebra):
    """All-pairs worklist closure: every label meets every other."""
    closed = set(ranges)
    closed.add(algebra.universe)
    worklist = list(closed)
    while worklist:
        current = worklist.pop()
        for other in list(closed):
            meet = algebra.intersect(current, other)
            if meet is not None and meet not in closed:
                closed.add(meet)
                worklist.append(meet)
    return sorted(closed)


def _reference_edges(labels, algebra):
    """parent -> children labels, from all-pairs containment checks."""
    edges = {label: [] for label in labels}
    for inner in labels:
        supersets = [
            outer
            for outer in labels
            if outer != inner and algebra.contains(outer, inner)
        ]
        for parent in supersets:
            if not any(
                middle != parent and algebra.contains(parent, middle)
                for middle in supersets
            ):
                edges[parent].append(inner)
    return {
        label: sorted(children, key=repr) for label, children in edges.items()
    }


def _reference_topological(edges, root):
    order, visited = [], set()

    def visit(label):
        if label in visited:
            return
        visited.add(label)
        order.append(label)
        for child in edges[label]:
            visit(child)

    visit(root)
    return order


def _random_prefix(draw, min_length=0, max_length=32, inside=None):
    """A random prefix, nested inside ``inside`` when one is given."""
    if inside is not None:
        min_length = max(min_length, inside.length)
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    network = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    if inside is not None:
        host_bits = (1 << (32 - inside.length)) - 1
        network = inside.network | (network & host_bits)
    return Prefix(network, length)


@st.composite
def anchored_prefixes(draw):
    """Prefixes that mix nested chains under shared anchors with
    unrelated (disjoint or far-apart) ones."""
    roots = [
        _random_prefix(draw, 1, 16)
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    prefixes = list(roots)
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        if draw(st.booleans()):
            parent = draw(st.sampled_from(prefixes))
            prefixes.append(_random_prefix(draw, inside=parent))
        else:
            prefixes.append(_random_prefix(draw))
    return prefixes


@st.composite
def anchored_ranges(draw):
    """Prefix ranges over :func:`anchored_prefixes` anchors, several
    length intervals per anchor so that same-anchor meets appear."""
    ranges = []
    for prefix in draw(anchored_prefixes()):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            low = draw(st.integers(min_value=prefix.length, max_value=32))
            high = draw(st.integers(min_value=low, max_value=32))
            ranges.append(PrefixRange(prefix, low, high))
    return ranges


class TestAnchoredBuildMatchesAllPairs:
    """The anchor-indexed build reproduces the all-pairs construction:
    same closed labels, ``nodes`` order, children order, preorder."""

    def _assert_same_dag(self, ranges, algebra):
        closed = close_under_intersection(ranges, algebra)
        assert closed == _reference_closure(ranges, algebra)
        dag = build_dag(ranges, algebra)
        assert list(dag.nodes) == closed
        edges = _reference_edges(closed, algebra)
        for label, node in dag.nodes.items():
            assert [child.label for child in node.children] == edges[label]
        assert [node.label for node in dag.topological()] == (
            _reference_topological(edges, algebra.universe)
        )

    @given(anchored_prefixes())
    @settings(max_examples=80, deadline=None)
    def test_address_prefixes(self, prefixes):
        self._assert_same_dag(prefixes, address_prefix_algebra())

    @given(anchored_ranges())
    @settings(max_examples=80, deadline=None)
    def test_prefix_ranges(self, ranges):
        self._assert_same_dag(ranges, prefix_range_algebra())

    def test_figure3(self):
        self._assert_same_dag(FIGURE3_RANGES, prefix_range_algebra())

    def test_three_way_meet(self):
        # (a ∩ b) ∩ c is not a pairwise meet of the inputs.
        ranges = [
            _range("10.0.0.0/8 : 8-20"),
            _range("10.9.0.0/16 : 16-32"),
            _range("10.0.0.0/8 : 18-32"),
        ]
        closed = close_under_intersection(ranges, prefix_range_algebra())
        assert _range("10.9.0.0/16 : 18-20") in closed
        self._assert_same_dag(ranges, prefix_range_algebra())


class _CountingAlgebra:
    """An algebra wrapper counting ``contains``/``intersect`` calls."""

    def __init__(self, algebra):
        self.calls = 0

        def counted(function):
            def wrapper(a, b):
                self.calls += 1
                return function(a, b)

            return wrapper

        self.algebra = dataclasses.replace(
            algebra,
            contains=counted(algebra.contains),
            intersect=counted(algebra.intersect),
        )


def _spread_prefixes(count, seed):
    rng = random.Random(seed)
    return [
        Prefix(rng.randrange(1 << 32), rng.randint(8, 32)) for _ in range(count)
    ]


class TestBuildScaling:
    """Deterministic guard on the build's growth: doubling the
    vocabulary must not come close to quadrupling the algebra calls
    (the all-pairs build's 4x)."""

    def _calls(self, count):
        counting = _CountingAlgebra(address_prefix_algebra())
        build_dag(_spread_prefixes(count, seed=count), counting.algebra)
        return counting.calls

    def test_calls_grow_near_linearly(self):
        small, large = self._calls(1000), self._calls(2000)
        assert large <= 2.5 * small, (small, large)


class TestDagProperties:
    @given(random_ranges())
    @settings(max_examples=50, deadline=None)
    def test_invariants_on_random_inputs(self, ranges):
        algebra = prefix_range_algebra()
        dag = build_dag(ranges, algebra)
        nodes = dag.topological()
        # reachability covers all nodes, labels unique
        assert len(nodes) == len(dag)
        labels = [node.label for node in nodes]
        assert len(set(labels)) == len(labels)
        # every input present; closure holds
        for prefix_range in ranges:
            assert prefix_range in dag.nodes
        # edges strict + immediate (spot-check containment property)
        for node in nodes:
            for child in node.children:
                assert algebra.contains(node.label, child.label)
                assert child.label != node.label
