"""The ddNF-style containment DAG over prefix ranges (§3.2, Figure 3).

HeaderLocalize expresses an affected input set in terms of the prefix
ranges appearing in the two configurations.  This module builds the data
structure that makes the minimal representation computable: a DAG whose
nodes are the configurations' prefix ranges (plus the universe, closed
under intersection) and whose edges are *immediate* strict containments.

The DAG is generic over the range type so the same machinery localizes
route-map differences (elements are :class:`~repro.model.types.PrefixRange`)
and ACL differences (elements are :class:`~repro.model.types.Prefix`
denoting address sets).  An element type must supply:

* ``contains(a, b)`` — set containment of denoted sets,
* ``intersect(a, b)`` — the denoted intersection as another element, or
  ``None`` when empty (prefix ranges and prefixes are both closed under
  nonempty intersection, which property (3) of the paper requires),
* ``anchor(a)`` — the address prefix the element hangs off, which the
  build indexes on (see :class:`RangeAlgebra`).

Both the closure and the edge computation look up, for each label, only
the labels anchored on the ≤33 prefixes along its anchor's ancestor
chain, so building the DAG costs about the vocabulary size times its
nesting depth instead of the square of the vocabulary size.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Hashable, List, Optional, Sequence, Set, Tuple, TypeVar

from .. import perf
from ..model.types import Prefix, PrefixRange

__all__ = [
    "DdnfNode",
    "DdnfDag",
    "build_dag",
    "cached_dag",
    "dag_cache_clear",
    "prefix_range_algebra",
    "address_prefix_algebra",
    "RangeAlgebra",
]

ElementT = TypeVar("ElementT", bound=Hashable)


@dataclass(frozen=True)
class RangeAlgebra(Generic[ElementT]):
    """The operations the DAG needs from its element type.

    ``anchor`` maps an element to its *anchor prefix*: the element
    itself for a :class:`~repro.model.types.Prefix`, ``.prefix`` for a
    :class:`~repro.model.types.PrefixRange`.  The DAG build relies on
    the anchor-nesting invariant both algebras satisfy:

    * ``contains(a, b)`` implies ``anchor(a)`` contains ``anchor(b)``;
    * a nonempty ``intersect(a, b)`` implies the two anchors are nested.
    """

    universe: ElementT
    contains: Callable[[ElementT, ElementT], bool]
    intersect: Callable[[ElementT, ElementT], Optional[ElementT]]
    anchor: Callable[[ElementT], Prefix]


def prefix_range_algebra() -> RangeAlgebra[PrefixRange]:
    """Prefix ranges under range containment/intersection (route maps)."""
    return RangeAlgebra(
        universe=PrefixRange.universe(),
        contains=lambda a, b: a.contains_range(b),
        intersect=lambda a, b: a.intersect(b),
        anchor=lambda a: a.prefix,
    )


def _prefix_intersect(a: Prefix, b: Prefix) -> Optional[Prefix]:
    if a.contains_prefix(b):
        return b
    if b.contains_prefix(a):
        return a
    return None


def address_prefix_algebra() -> RangeAlgebra[Prefix]:
    """Prefixes as *address sets* (ACL source/destination localization)."""
    return RangeAlgebra(
        universe=Prefix(0, 0),
        contains=lambda a, b: a.contains_prefix(b),
        intersect=_prefix_intersect,
        anchor=lambda a: a,
    )


@dataclass
class DdnfNode(Generic[ElementT]):
    """One DAG node: a unique range label plus immediate-containment edges."""

    label: ElementT
    children: List["DdnfNode[ElementT]"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return not self.children


class DdnfDag(Generic[ElementT]):
    """The containment DAG with the four properties of §3.2.

    (1) rooted at the universe, (2) unique labels, (3) label set closed
    under intersection and containing the input ranges, (4) edges are
    immediate strict containments.
    """

    def __init__(self, root: DdnfNode[ElementT], nodes: Dict[ElementT, DdnfNode[ElementT]]):
        self.root = root
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, label: ElementT) -> DdnfNode[ElementT]:
        """The node labeled ``label``."""
        return self.nodes[label]

    def topological(self) -> List[DdnfNode[ElementT]]:
        """Nodes in a parent-before-child order."""
        order: List[DdnfNode[ElementT]] = []
        visited: Set[int] = set()

        def visit(node: DdnfNode[ElementT]) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            order.append(node)
            for child in node.children:
                visit(child)

        visit(self.root)
        return order


#: Netmask per prefix length, for walking an anchor's ancestor chain.
_MASKS = tuple(
    (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33)
)

#: A bucket key: the anchor prefix as ``(network, length)``.
_AnchorKey = Tuple[int, int]


def _anchor_key(anchor: Prefix) -> _AnchorKey:
    return anchor.network, anchor.length


def _chain(key: _AnchorKey) -> List[_AnchorKey]:
    """``key`` and every prefix containing it, shortest first."""
    network, length = key
    return [(network & _MASKS[depth], depth) for depth in range(length + 1)]


def _bucket_by_anchor(
    labels, algebra: RangeAlgebra[ElementT]
) -> Dict[_AnchorKey, List[ElementT]]:
    buckets: Dict[_AnchorKey, List[ElementT]] = {}
    for label in labels:
        buckets.setdefault(_anchor_key(algebra.anchor(label)), []).append(label)
    return buckets


def close_under_intersection(
    ranges: Sequence[ElementT], algebra: RangeAlgebra[ElementT]
) -> List[ElementT]:
    """The input ranges plus the universe, closed under intersection.

    Labels are bucketed by anchor and the buckets closed shallowest
    anchor first.  Two labels can only meet when their anchors nest,
    and a meet lies inside both operands, so its anchor is at least as
    deep as the deeper operand's.  When a bucket's turn comes, every
    bucket on its anchor's ancestor chain is therefore final: each of
    its labels meets those buckets' labels and the earlier labels of
    its own bucket, and every new meet lands in this bucket (and is
    processed in turn) or in a deeper one still to come.  Iterating to
    the fixpoint keeps this exact for multi-way meets such as
    ``(a ∩ b) ∩ c`` of prefix ranges.
    """
    closed: Set[ElementT] = set(ranges)
    closed.add(algebra.universe)
    buckets = _bucket_by_anchor(closed, algebra)
    pending = [(length, network) for network, length in buckets]
    heapq.heapify(pending)
    while pending:
        length, network = heapq.heappop(pending)
        key = (network, length)
        bucket = buckets[key]
        above = [
            label
            for ancestor in _chain(key)[:-1]
            for label in buckets.get(ancestor, ())
        ]
        index = 0
        while index < len(bucket):  # grows as meets land in this bucket
            current = bucket[index]
            for other in itertools.chain(above, bucket[:index]):
                meet = algebra.intersect(current, other)
                if meet is None or meet in closed:
                    continue
                closed.add(meet)
                meet_key = _anchor_key(algebra.anchor(meet))
                if meet_key in buckets:
                    buckets[meet_key].append(meet)
                else:
                    buckets[meet_key] = [meet]
                    heapq.heappush(pending, (meet_key[1], meet_key[0]))
            index += 1
    return sorted(closed)  # deterministic construction order


def build_dag(
    ranges: Sequence[ElementT], algebra: RangeAlgebra[ElementT]
) -> DdnfDag[ElementT]:
    """Build the immediate-containment DAG over the closed range set."""
    return _dag_from_labels(
        close_under_intersection(ranges, algebra), algebra
    )


def _dag_from_labels(
    labels: Sequence[ElementT], algebra: RangeAlgebra[ElementT]
) -> DdnfDag[ElementT]:
    nodes: Dict[ElementT, DdnfNode[ElementT]] = {
        label: DdnfNode(label) for label in labels
    }
    buckets = _bucket_by_anchor(labels, algebra)

    # strict_supersets[x] = labels strictly containing x, all of which
    # are anchored on x's anchor chain.
    strict_supersets: Dict[ElementT, List[ElementT]] = {
        inner: [
            outer
            for key in _chain(_anchor_key(algebra.anchor(inner)))
            for outer in buckets.get(key, ())
            if outer != inner and algebra.contains(outer, inner)
        ]
        for inner in labels
    }

    # Edge (m, n) iff m strictly contains n with no label strictly
    # between: m is not itself a strict superset of another of n's.
    for inner in labels:
        supersets = strict_supersets[inner]
        not_immediate: Set[ElementT] = set()
        for middle in supersets:
            not_immediate.update(strict_supersets[middle])
        for parent in supersets:
            if parent not in not_immediate:
                nodes[parent].children.append(nodes[inner])

    root = nodes[algebra.universe]
    for node in nodes.values():
        node.children.sort(key=lambda child: repr(child.label))
    return DdnfDag(root, nodes)


#: LRU capacity of the shared DAG cache.  Distinct vocabularies per
#: fleet are bounded by the number of distinct policy contents, which
#: symmetry compression already keeps small; 256 comfortably covers a
#: large mixed fleet while bounding memory.
_DAG_CACHE_CAPACITY = 256

_cache_lock = threading.Lock()
#: (universe, frozenset(input ranges)) -> canonical closed vocabulary.
_vocab_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
#: (universe, closed vocabulary tuple) -> built DAG (treated read-only).
_dag_cache: "OrderedDict[Tuple, DdnfDag]" = OrderedDict()


def dag_cache_clear() -> None:
    """Drop every cached vocabulary and DAG (tests and benchmarks)."""
    with _cache_lock:
        _vocab_cache.clear()
        _dag_cache.clear()


def _lru_get(cache: OrderedDict, key):
    with _cache_lock:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value


def _lru_put(cache: OrderedDict, key, value):
    """Insert first-wins (a racing builder adopts the existing value)."""
    with _cache_lock:
        existing = cache.get(key)
        if existing is not None:
            cache.move_to_end(key)
            return existing
        cache[key] = value
        while len(cache) > _DAG_CACHE_CAPACITY:
            cache.popitem(last=False)
        return value


def cached_dag(
    ranges: Sequence[ElementT], algebra: RangeAlgebra[ElementT]
) -> DdnfDag[ElementT]:
    """:func:`build_dag` through a process-wide two-level LRU cache.

    Level 1 maps the *input* range multiset to its canonical closed
    vocabulary; level 2 maps the closed vocabulary to the built DAG.
    Two components quoting different range subsets of the same closure
    (common across a templated fleet, where every clone carries the
    same prefix lists) therefore share one DAG — HeaderLocalize builds
    each distinct ddNF DAG once per process instead of once per
    pair-per-difference.  Keys lead with ``algebra.universe`` because
    the universe value distinguishes the two range algebras in use
    (``PrefixRange.universe()`` vs ``Prefix(0, 0)``); the returned DAG
    is shared and must be treated as read-only.
    """
    vocab_key = (algebra.universe, frozenset(ranges))
    closed = _lru_get(_vocab_cache, vocab_key)
    if closed is None:
        closed = _lru_put(
            _vocab_cache,
            vocab_key,
            tuple(close_under_intersection(ranges, algebra)),
        )
    dag_key = (algebra.universe, closed)
    dag = _lru_get(_dag_cache, dag_key)
    if dag is None:
        perf.add("header_localize.dag_cache_misses")
        dag = _lru_put(_dag_cache, dag_key, _dag_from_labels(closed, algebra))
    else:
        perf.add("header_localize.dag_cache_hits")
    return dag
