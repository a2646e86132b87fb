"""Tests for HeaderLocalize: GetMatch, flattening, and end-to-end minimal
representations — including the paper's Figure 3 worked example."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FlatTerm,
    GetMatchStats,
    HeaderLocalizeError,
    MatchTerm,
    address_prefix_algebra,
    build_dag,
    compute_dag_atoms,
    flatten_terms,
    get_match,
    header_localize,
    prefix_range_algebra,
)
from repro.core.header_localize import classify_prefix_tree
from repro.encoding import PacketSpace, RouteSpace
from repro.model import Prefix, PrefixRange, RouteMap
from repro.model.acl import IpWildcard


def _range(text):
    return PrefixRange.parse(text)


@pytest.fixture()
def space():
    return RouteSpace([])


class TestFigure3:
    """The paper's worked example: S = (B − D) ∪ (C − (F − G)), and the
    final flattened output is {B − D, C − F, G}."""

    A = _range("10.0.0.0/8 : 8-32")
    B = _range("10.0.0.0/9 : 9-32")
    C = _range("10.128.0.0/9 : 9-32")
    D = _range("10.0.0.0/9 : 16-24")
    E = _range("10.64.0.0/10 : 10-32")
    F = _range("10.128.0.0/10 : 10-28")
    G = _range("10.128.0.0/12 : 12-20")

    # E is inside B and D is inside B; G inside F inside C; B, C inside A.
    RANGES = [A, B, C, D, E, F, G]

    def _affected(self, space):
        to_pred = space.range_pred
        return (to_pred(self.B) - to_pred(self.D)) | (
            to_pred(self.C) - (to_pred(self.F) - to_pred(self.G))
        )

    def test_get_match_structure(self, space):
        dag = build_dag(self.RANGES, prefix_range_algebra())
        terms = get_match(self._affected(space), dag, space.range_pred)
        flat = flatten_terms(terms)
        assert set(flat) == {
            FlatTerm(self.B, (self.D,)),
            FlatTerm(self.C, (self.F,)),
            FlatTerm(self.G),
        }

    def test_flattened_set_equals_affected(self, space):
        """Semantic check: the flat representation denotes exactly S."""
        dag = build_dag(self.RANGES, prefix_range_algebra())
        affected = self._affected(space)
        terms = get_match(affected, dag, space.range_pred)
        flat = flatten_terms(terms)
        rebuilt = space.manager.false
        for term in flat:
            piece = space.range_pred(term.range)
            for minus in term.minus:
                piece = piece - space.range_pred(minus)
            rebuilt = rebuilt | piece
        assert rebuilt == affected

    def test_end_to_end_header_localize(self, space):
        localization = header_localize(
            self._affected(space),
            self.RANGES,
            prefix_range_algebra(),
            space.range_pred,
        )
        assert set(localization.terms) == {
            FlatTerm(self.B, (self.D,)),
            FlatTerm(self.C, (self.F,)),
            FlatTerm(self.G),
        }
        assert self.B in localization.included
        assert self.D in localization.excluded
        assert localization.stats.dag_nodes >= len(self.RANGES)


class TestSimpleCases:
    def test_empty_set(self, space):
        localization = header_localize(
            space.manager.false,
            [_range("10.0.0.0/8 : 8-32")],
            prefix_range_algebra(),
            space.range_pred,
        )
        assert localization.is_empty()
        assert localization.render() == ""

    def test_whole_universe(self, space):
        universe_pred = space.range_pred(PrefixRange.universe())
        localization = header_localize(
            universe_pred,
            [_range("10.0.0.0/8 : 8-32")],
            prefix_range_algebra(),
            space.range_pred,
        )
        assert localization.terms == (FlatTerm(PrefixRange.universe()),)

    def test_single_range(self, space):
        target = _range("10.9.0.0/16 : 16-32")
        localization = header_localize(
            space.range_pred(target),
            [target],
            prefix_range_algebra(),
            space.range_pred,
        )
        assert localization.terms == (FlatTerm(target),)

    def test_complement_of_range(self, space):
        """Table 2(b)'s shape: everything except the configured ranges."""
        nets = [_range("10.9.0.0/16 : 16-32"), _range("10.100.0.0/16 : 16-32")]
        affected = space.range_pred(PrefixRange.universe())
        for prefix_range in nets:
            affected = affected - space.range_pred(prefix_range)
        localization = header_localize(
            affected, nets, prefix_range_algebra(), space.range_pred
        )
        assert localization.included == [PrefixRange.universe()]
        assert set(localization.excluded) == set(nets)

    def test_table2a_shape(self, space):
        """NETS(16-32) minus NETS(exact 16): the paper's Difference 1."""
        wide = [_range("10.9.0.0/16 : 16-32"), _range("10.100.0.0/16 : 16-32")]
        exact = [_range("10.9.0.0/16 : 16-16"), _range("10.100.0.0/16 : 16-16")]
        affected = space.manager.false
        for w in wide:
            affected = affected | space.range_pred(w)
        for e in exact:
            affected = affected - space.range_pred(e)
        localization = header_localize(
            affected, wide + exact, prefix_range_algebra(), space.range_pred
        )
        assert set(localization.included) == set(wide)
        assert set(localization.excluded) == set(exact)

    def test_straddling_raises(self, space):
        """A set not generated by the vocabulary must be rejected."""
        affected = space.range_pred(_range("10.9.0.0/16 : 16-32"))
        with pytest.raises(HeaderLocalizeError):
            header_localize(
                affected,
                [_range("10.0.0.0/8 : 8-32")],  # vocabulary can't express it
                prefix_range_algebra(),
                space.range_pred,
            )


class TestFlattenTerms:
    def test_plain_term_unchanged(self):
        r = _range("10.0.0.0/8 : 8-32")
        assert flatten_terms([MatchTerm(r)]) == [FlatTerm(r)]

    def test_single_level_difference(self):
        r = _range("10.0.0.0/8 : 8-32")
        x = _range("10.0.0.0/9 : 9-32")
        term = MatchTerm(r, (MatchTerm(x),))
        assert flatten_terms([term]) == [FlatTerm(r, (x,))]

    def test_nested_difference_surfaces(self):
        c = _range("10.128.0.0/9 : 9-32")
        f = _range("10.128.0.0/10 : 10-28")
        g = _range("10.128.0.0/12 : 12-20")
        term = MatchTerm(c, (MatchTerm(f, (MatchTerm(g),)),))
        assert flatten_terms([term]) == [FlatTerm(c, (f,)), FlatTerm(g)]

    def test_doubly_nested(self):
        a = _range("10.0.0.0/8 : 8-32")
        b = _range("10.0.0.0/9 : 9-32")
        c = _range("10.0.0.0/10 : 10-32")
        d = _range("10.0.0.0/11 : 11-32")
        term = MatchTerm(a, (MatchTerm(b, (MatchTerm(c, (MatchTerm(d),)),)),))
        assert flatten_terms([term]) == [
            FlatTerm(a, (b,)),
            FlatTerm(c, (d,)),
        ]

    def test_duplicates_dropped(self):
        r = _range("10.0.0.0/8 : 8-32")
        assert flatten_terms([MatchTerm(r), MatchTerm(r)]) == [FlatTerm(r)]

    def test_render(self):
        r = _range("10.0.0.0/8 : 8-32")
        x = _range("10.0.0.0/9 : 9-32")
        assert "10.0.0.0/8" in FlatTerm(r, (x,)).render()
        assert " - " in FlatTerm(r, (x,)).render()


@st.composite
def vocabulary_and_set(draw):
    """A random vocabulary and a random boolean combination over it."""
    count = draw(st.integers(min_value=1, max_value=5))
    ranges = []
    for _ in range(count):
        length = draw(st.integers(min_value=4, max_value=20))
        network = draw(st.integers(min_value=0, max_value=0xFFFFFFFF)) & (
            (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        )
        low = draw(st.integers(min_value=length, max_value=32))
        high = draw(st.integers(min_value=low, max_value=32))
        ranges.append(PrefixRange(Prefix(network, length), low, high))
    # A random expression: fold ranges with union/diff/intersect.
    operations = draw(
        st.lists(
            st.sampled_from(["or", "diff", "and", "skip"]),
            min_size=count,
            max_size=count,
        )
    )
    return ranges, operations


class TestHeaderLocalizeProperty:
    @given(vocabulary_and_set())
    @settings(max_examples=40, deadline=None)
    def test_representation_is_exact(self, data):
        """For any set generated from the vocabulary, the flattened output
        denotes exactly that set (soundness + completeness of GetMatch)."""
        ranges, operations = data
        space = RouteSpace([])
        affected = space.manager.false
        for prefix_range, operation in zip(ranges, operations):
            predicate = space.range_pred(prefix_range)
            if operation == "or":
                affected = affected | predicate
            elif operation == "diff":
                affected = affected - predicate
            elif operation == "and":
                affected = affected & predicate
            # "skip" leaves the range in the vocabulary but unused
        localization = header_localize(
            affected, ranges, prefix_range_algebra(), space.range_pred
        )
        rebuilt = space.manager.false
        for term in localization.terms:
            piece = space.range_pred(term.range)
            for minus in term.minus:
                piece = piece - space.range_pred(minus)
            rebuilt = rebuilt | piece
        assert rebuilt == affected


def _full_scan(dag, atoms, affected):
    """Reference classification: every remainder atom, in DFS preorder.

    Returns ``(bits, None)``, or ``(None, node)`` for the first node
    whose remainder straddles ``affected``.
    """
    bits = 0
    for node in dag.topological():
        remainder = atoms.remainders.get(node.label)
        if remainder is None:
            continue
        if remainder.implies(affected):
            bits |= atoms.remainder_bits[node.label]
        elif remainder.intersects(affected):
            return None, node
    return bits, None


def _straddle_message(node):
    where = "leaf" if node.is_leaf() else "remainder of"
    return (
        f"{where} {node.label} straddles the affected set; "
        "the range vocabulary does not generate it"
    )


def _fold(space, ranges, operations):
    affected = space.manager.false
    for prefix_range, operation in zip(ranges, operations):
        predicate = space.range_pred(prefix_range)
        if operation == "or":
            affected = affected | predicate
        elif operation == "diff":
            affected = affected - predicate
        elif operation == "and":
            affected = affected & predicate
    return affected


class TestPrunedClassify:
    """``DagAtoms.classify`` skips subtrees that are disjoint from or
    inside the affected set; it must agree with a scan of every atom."""

    def _assert_matches_full_scan(self, space, vocabulary, affected):
        dag = build_dag(vocabulary, prefix_range_algebra())
        atoms = compute_dag_atoms(dag, space.range_pred)
        bits, straddler = _full_scan(dag, atoms, affected)
        if straddler is None:
            assert atoms.classify(affected) == bits
        else:
            with pytest.raises(HeaderLocalizeError) as raised:
                atoms.classify(affected)
            assert str(raised.value) == _straddle_message(straddler)
        return straddler

    @given(vocabulary_and_set())
    @settings(max_examples=60, deadline=None)
    def test_generated_sets(self, data):
        ranges, operations = data
        space = RouteSpace([])
        straddler = self._assert_matches_full_scan(
            space, ranges, _fold(space, ranges, operations)
        )
        assert straddler is None  # the vocabulary generates the set

    @given(vocabulary_and_set(), vocabulary_and_set())
    @settings(max_examples=60, deadline=None)
    def test_foreign_sets(self, vocabulary_data, foreign_data):
        """Sets built partly from ranges outside the vocabulary: the
        same bits, or the same error at the same node."""
        vocabulary, operations = vocabulary_data
        foreign, foreign_operations = foreign_data
        space = RouteSpace([])
        affected = _fold(
            space, vocabulary + foreign, operations + foreign_operations
        )
        self._assert_matches_full_scan(space, vocabulary, affected)

    def test_straddle_reports_first_preorder_node(self, space):
        # Both /9 leaves straddle; the error names the first in preorder.
        vocabulary = [
            _range("10.0.0.0/8 : 8-32"),
            _range("10.128.0.0/9 : 9-32"),
            _range("10.0.0.0/9 : 9-32"),
            _range("11.0.0.0/8 : 8-32"),
        ]
        affected = space.manager.disjoin(
            space.range_pred(_range(text))
            for text in (
                "10.64.0.0/10 : 10-32",
                "10.192.0.0/10 : 10-32",
                "11.0.0.0/8 : 8-32",
            )
        )
        straddler = self._assert_matches_full_scan(space, vocabulary, affected)
        assert straddler.label == _range("10.0.0.0/9 : 9-32")


class TestFlatTermMinimality:
    """Regression: flattening could surface a redundant nested piece when
    two overlapping DAG parents' match parts nest (G1 = G2 ∩ X1 ⊊ G2 both
    surfaced as flat terms).  The final minimality prune must drop it."""

    UNIVERSE = _range("0.0.0.0/0 : 0-32")
    X1 = _range("10.0.0.0/8 : 12-24")
    X2 = _range("10.0.0.0/8 : 16-32")
    G2 = _range("10.0.0.0/16 : 16-32")
    REDUNDANT = _range("10.0.0.0/16 : 16-24")  # = G2 ∩ X1, covered by G2

    def _affected(self, space):
        to_pred = space.range_pred
        return (
            to_pred(self.UNIVERSE) - to_pred(self.X1) - to_pred(self.X2)
        ) | to_pred(self.G2)

    def test_redundant_nested_piece_is_pruned(self, space):
        localization = header_localize(
            self._affected(space),
            [self.X1, self.X2, self.G2],
            prefix_range_algebra(),
            space.range_pred,
        )
        ranges = [term.range for term in localization.terms]
        assert self.REDUNDANT not in ranges
        assert len(localization.terms) == 2

    def test_output_is_exact_and_minimal(self, space):
        affected = self._affected(space)
        localization = header_localize(
            affected,
            [self.X1, self.X2, self.G2],
            prefix_range_algebra(),
            space.range_pred,
        )
        denotations = []
        for term in localization.terms:
            denoted = space.range_pred(term.range)
            for subtrahend in term.minus:
                denoted = denoted - space.range_pred(subtrahend)
            denotations.append(denoted)
        assert space.manager.disjoin(denotations) == affected
        for index, denoted in enumerate(denotations):
            rest = denotations[:index] + denotations[index + 1 :]
            assert not denoted.implies(space.manager.disjoin(rest))

    def test_minimal_flat_terms_counts_pruned(self, space):
        from repro import perf
        from repro.core import FlatTerm, minimal_flat_terms

        perf.reset()
        terms = [
            FlatTerm(self.UNIVERSE, (self.X1, self.X2)),
            FlatTerm(self.REDUNDANT),
            FlatTerm(self.G2),
        ]
        kept = minimal_flat_terms(terms, space.range_pred)
        assert [term.range for term in kept] == [self.UNIVERSE, self.G2]
        counters = perf.snapshot()["counters"]
        assert counters.get("header_localize.flat_terms_pruned", 0) == 1
        perf.reset()


#: Addresses the generated vocabularies hang off: prefixes of a few
#: shared addresses nest often, and 10.0/9 with 10.128/9 tile 10/8.
_BASE_ADDRESSES = (0x0A000000, 0x0A800000, 0x0AFF0000, 0x0A0A0A0A, 0xC0A80100)


@st.composite
def prefix_vocabulary_and_set(draw):
    """Random address prefixes and a boolean combination over them."""
    count = draw(st.integers(min_value=1, max_value=6))
    prefixes = []
    for _ in range(count):
        address = draw(
            st.one_of(
                st.sampled_from(_BASE_ADDRESSES),
                st.integers(min_value=0, max_value=0xFFFFFFFF),
            )
        )
        prefixes.append(Prefix(address, draw(st.integers(0, 32))))
    operations = draw(
        st.lists(
            st.sampled_from(["or", "diff", "and", "skip"]),
            min_size=count,
            max_size=count,
        )
    )
    return prefixes, operations


def _address_pred(space, prefix):
    return space.wildcard_pred(space.dst_ip, IpWildcard.from_prefix(prefix))


def _fold_prefixes(space, prefixes, operations):
    affected = space.manager.false
    for prefix, operation in zip(prefixes, operations):
        predicate = _address_pred(space, prefix)
        if operation == "or":
            affected = affected | predicate
        elif operation == "diff":
            affected = affected - predicate
        elif operation == "and":
            affected = affected & predicate
    return affected


class TestPrefixTreeWalk:
    """``classify_prefix_tree`` against a scan of every BDD remainder
    atom and against ``DagAtoms.classify``: the same bits, or the same
    error at the same node."""

    def _assert_agrees(self, space, vocabulary, affected):
        dag = build_dag(vocabulary, address_prefix_algebra())
        tree = dag.tree_atoms
        atoms = compute_dag_atoms(dag, lambda p: _address_pred(space, p))
        assert tree.atom_count == atoms.atom_count
        assert tree.remainder_bits == atoms.remainder_bits
        assert tree.node_bits == atoms.node_bits
        bits, straddler = _full_scan(dag, atoms, affected)
        var_indices = space.dst_ip.var_indices
        if straddler is None:
            assert classify_prefix_tree(tree, affected, var_indices) == bits
            assert atoms.classify(affected) == bits
        else:
            for classify in (
                lambda: classify_prefix_tree(tree, affected, var_indices),
                lambda: atoms.classify(affected),
            ):
                with pytest.raises(HeaderLocalizeError) as raised:
                    classify()
                assert str(raised.value) == _straddle_message(straddler)
        return bits, straddler

    @given(prefix_vocabulary_and_set())
    @settings(max_examples=80, deadline=None)
    def test_generated_sets(self, data):
        prefixes, operations = data
        space = PacketSpace()
        affected = _fold_prefixes(space, prefixes, operations)
        _, straddler = self._assert_agrees(space, prefixes, affected)
        assert straddler is None  # the vocabulary generates the set

    @given(prefix_vocabulary_and_set(), prefix_vocabulary_and_set())
    @settings(max_examples=80, deadline=None)
    def test_foreign_sets(self, vocabulary_data, foreign_data):
        vocabulary, operations = vocabulary_data
        foreign, foreign_operations = foreign_data
        space = PacketSpace()
        affected = _fold_prefixes(
            space, vocabulary + foreign, operations + foreign_operations
        )
        self._assert_agrees(space, vocabulary, affected)

    @given(prefix_vocabulary_and_set())
    @settings(max_examples=30, deadline=None)
    def test_header_localize_matches_bdd_backend(self, data):
        prefixes, operations = data
        space = PacketSpace()
        affected = _fold_prefixes(space, prefixes, operations)
        localizations = [
            header_localize(
                affected,
                prefixes,
                address_prefix_algebra(),
                lambda p: _address_pred(space, p),
                backend=backend,
            )
            for backend in ("bdd", "atoms")
        ]
        assert localizations[0].terms == localizations[1].terms

    def test_exactly_tiled_node(self):
        space = PacketSpace()
        parent, low, high = (
            Prefix.parse(text)
            for text in ("10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9")
        )
        vocabulary = [parent, low, high]
        affected = _address_pred(space, low)
        bits, _ = self._assert_agrees(space, vocabulary, affected)
        tree = build_dag(vocabulary, address_prefix_algebra()).tree_atoms
        assert tree.remainder_bits[parent] == 0  # the /9s tile the /8
        assert tree.node_bits[parent] == (
            tree.node_bits[low] | tree.node_bits[high]
        )
        assert bits == tree.node_bits[low]

    def test_cofactor_skips_untested_bits(self):
        # The set ignores bit 8, where the walk splits toward the /9s:
        # it keeps the same BDD node on both sides of that bit.
        space = PacketSpace()
        vocabulary = [
            Prefix.parse(text)
            for text in ("10.0.0.0/9", "10.128.0.0/9", "10.0.0.0/16", "10.128.0.0/16")
        ]
        affected = _address_pred(space, vocabulary[2]) | _address_pred(
            space, vocabulary[3]
        )
        bits, _ = self._assert_agrees(space, vocabulary, affected)
        tree = build_dag(vocabulary, address_prefix_algebra()).tree_atoms
        assert bits == tree.node_bits[vocabulary[2]] | tree.node_bits[vocabulary[3]]

    def test_host_leaf(self):
        space = PacketSpace()
        host = Prefix.parse("10.1.2.3/32")
        vocabulary = [Prefix.parse("10.0.0.0/8"), host]
        bits, _ = self._assert_agrees(
            space, vocabulary, _address_pred(space, host)
        )
        tree = build_dag(vocabulary, address_prefix_algebra()).tree_atoms
        assert bits == tree.remainder_bits[host] != 0
        # Cutting into the host's neighbours straddles the /8's remainder.
        wider = _address_pred(space, Prefix.parse("10.1.2.2/31"))
        _, straddler = self._assert_agrees(space, vocabulary, wider)
        assert straddler.label == Prefix.parse("10.0.0.0/8")

    def test_universe_only_vocabulary(self):
        space = PacketSpace()
        universe = Prefix(0, 0)
        tree = build_dag([universe], address_prefix_algebra()).tree_atoms
        assert tree.atom_count == 1
        assert self._assert_agrees(space, [universe], space.manager.true)[0] == 1
        assert self._assert_agrees(space, [universe], space.manager.false)[0] == 0
        _, straddler = self._assert_agrees(
            space, [universe], _address_pred(space, Prefix.parse("10.0.0.0/8"))
        )
        assert straddler.label == universe

    def test_constant_sets(self):
        space = PacketSpace()
        vocabulary = [Prefix.parse(text) for text in ("10.0.0.0/8", "10.1.0.0/16")]
        tree = build_dag(vocabulary, address_prefix_algebra()).tree_atoms
        var_indices = space.dst_ip.var_indices
        stats = GetMatchStats()
        assert (
            classify_prefix_tree(tree, space.manager.true, var_indices, stats)
            == tree.all_mask
        )
        assert classify_prefix_tree(tree, space.manager.false, var_indices) == 0
        assert stats.containment_checks == 0  # settled before any walk

    def test_variable_before_field_raises(self):
        space = PacketSpace()
        vocabulary = [Prefix.parse(text) for text in ("10.0.0.0/8", "10.1.0.0/16")]
        tree = build_dag(vocabulary, address_prefix_algebra()).tree_atoms
        # The protocol field is ordered before the destination address.
        affected = _address_pred(space, vocabulary[0]) & space.protocol.bit(0)
        with pytest.raises(ValueError, match="project it onto the field"):
            classify_prefix_tree(tree, affected, space.dst_ip.var_indices)

    def test_variable_after_field_straddles(self):
        space = PacketSpace()
        vocabulary = [Prefix.parse(text) for text in ("10.0.0.0/8", "10.1.0.0/16")]
        # The source address is ordered after the destination address:
        # the walk keeps the node and reports the exact straddle.
        affected = _address_pred(space, vocabulary[1]) & space.src_ip.bit(0)
        _, straddler = self._assert_agrees(space, vocabulary, affected)
        assert straddler.label == vocabulary[1]

