"""HeaderLocalize — minimal representation of an affected input set (§3.2).

Given the BDD ``S`` of inputs exhibiting a behavioral difference (from
SemanticDiff) and the prefix ranges appearing in the two configurations,
produce a compact union of *difference terms* ``R − X₁ − … − Xₖ`` over
those ranges.  The algorithm is the paper's:

1. extract the configurations' ranges, add the universe, close under
   intersection, and build the ddNF containment DAG (``core.ddnf`` —
   shared through a process-wide cache keyed by the closed vocabulary);
2. traverse with the recursive ``GetMatch`` — a leaf contributes itself
   when contained in ``S``; an internal node whose *remainder* (itself
   minus its children) lies in ``S`` contributes itself minus whatever
   parts of its children are *not* in ``S`` (computed by recursing with
   the complement); otherwise recurse into children and union;
3. flatten nested differences in one pass: ``C − (F − G)`` becomes
   ``{C − F, G}`` (valid because nested terms always denote subsets of
   their enclosing range in a containment DAG);
4. prune the flat union down to a *minimal* cover: flattening can
   surface a nested term that another branch of the DAG already covers
   (two overlapping parents whose match parts nest), so redundant flat
   terms are dropped — checked semantically against the set algebra —
   until no term is covered by the union of the rest.

The same machinery handles route maps (ranges are
:class:`~repro.model.types.PrefixRange` over the advertisement's
prefix+length dimensions) and ACLs (ranges are address prefixes over the
source or destination address dimensions).

Pluggable localization algebra
------------------------------

The traversal and both minimality prunes are written once against a
tiny set-algebra adapter and instantiated two ways:

* **BDD** (``backend="bdd"``): containment is ``part.implies(target)``
  on BDDs, exactly the original formulation.
* **Atom bitsets** (``atoms``, the default): the
  remainders of the DAG's nodes — each node's predicate minus its
  children's — are pairwise disjoint and cover the root, so they are
  the *atoms* of the range-generated algebra.  Each affected set is
  classified into a Python-int bitset over them, after which every
  GetMatch containment, complement, and prune union is a
  machine-integer bit operation (``part & ~target == 0``).  An
  affected set some atom *straddles* is not generated by the
  vocabulary: classification raises :class:`HeaderLocalizeError` at the
  same node, with the same message, as the BDD walk would (atoms are
  visited in the walk's DFS preorder, skipped subtrees cannot
  straddle, and straddling is polarity-independent, so eager detection
  and the lazy walk agree).  Classification takes one of two routes:

  - *address prefixes* (ACLs): the DAG is a tree whose children tile
    part of their parent, so :class:`~repro.core.ddnf.PrefixTreeAtoms`
    numbers the atoms from prefix sizes alone, once, with the cached
    DAG; :func:`classify_prefix_tree` then walks the affected set's
    BDD node ids down the tree along the field's bits — one pass, no
    BDD apply;
  - *prefix ranges* (route maps): :func:`compute_dag_atoms` builds the
    remainder predicates once per (pair, dimension) and
    :meth:`DagAtoms.classify` tests them with BDD ``intersects`` and
    ``implies``, skipping every subtree whose node predicate is
    disjoint from or inside the set.

Both instantiations produce identical terms: every compared part is a
union of atoms, so bitset containment coincides with BDD containment
whenever classification succeeds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from .. import perf
from ..model.types import Prefix
from .ddnf import (
    DdnfDag,
    DdnfNode,
    PrefixTreeAtoms,
    RangeAlgebra,
    cached_dag,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only; no engine import
    from ..bdd import Bdd

__all__ = [
    "HeaderLocalizeError",
    "MatchTerm",
    "FlatTerm",
    "Localization",
    "GetMatchStats",
    "DagAtoms",
    "LocalizeSession",
    "classify_prefix_tree",
    "compute_dag_atoms",
    "get_match",
    "flatten_terms",
    "minimal_flat_terms",
    "header_localize",
]

ElementT = TypeVar("ElementT")

# Any /32 address: its predicate tests every bit of the field.
_HOST_PREFIX = Prefix(0, 32)


class HeaderLocalizeError(RuntimeError):
    """The affected set is not expressible over the supplied ranges.

    By construction SemanticDiff's sets are boolean combinations of the
    configurations' range predicates, making every remainder/leaf either
    contained in or disjoint from the set; this error firing means the
    caller passed ranges that don't generate the set's algebra.
    """


@dataclass(frozen=True)
class MatchTerm(Generic[ElementT]):
    """A (possibly nested) difference term ``range − minus₁ − …``."""

    range: ElementT
    minus: Tuple["MatchTerm[ElementT]", ...] = ()

    def render(self) -> str:
        """Human-readable nested-difference form."""
        if not self.minus:
            return str(self.range)
        inner = ", ".join(term.render() for term in self.minus)
        return f"({self.range}) - [{inner}]"


@dataclass(frozen=True)
class FlatTerm(Generic[ElementT]):
    """A flattened term: one positive range minus plain ranges only."""

    range: ElementT
    minus: Tuple[ElementT, ...] = ()

    def render(self) -> str:
        """Human-readable flat-difference form."""
        if not self.minus:
            return str(self.range)
        inner = " - ".join(str(m) for m in self.minus)
        return f"{self.range} - {inner}"


@dataclass
class GetMatchStats:
    """Instrumentation for the ablation benchmarks."""

    dag_nodes: int = 0
    containment_checks: int = 0
    recursive_calls: int = 0


@dataclass(frozen=True)
class Localization(Generic[ElementT]):
    """HeaderLocalize's output for one behavioral difference.

    ``included`` / ``excluded`` are the merged positive and subtracted
    ranges — the *Included Prefixes* / *Excluded Prefixes* rows of
    Table 2 — while ``terms`` keeps the precise structure.
    """

    terms: Tuple[FlatTerm[ElementT], ...]
    stats: GetMatchStats = field(default_factory=GetMatchStats, compare=False)

    @property
    def included(self) -> List[ElementT]:
        """The positive ranges (Included Prefixes row)."""
        return _unique_in_order(term.range for term in self.terms)

    @property
    def excluded(self) -> List[ElementT]:
        """The subtracted ranges (Excluded Prefixes row)."""
        return _unique_in_order(
            minus for term in self.terms for minus in term.minus
        )

    def render(self) -> str:
        """Union of the flat terms, rendered."""
        return " ∪ ".join(term.render() for term in self.terms)

    def is_empty(self) -> bool:
        """Whether the localized set is empty."""
        return not self.terms


# ---------------------------------------------------------------------------
# Set-algebra adapters: the traversal below is written once against this
# four-operation surface and run over BDDs or over atom bitsets.
# ``union`` treats ``None`` as the empty set so neither representation
# needs a false/zero constant threaded through the prune loops.


class _BddSets:
    """Localization algebra over BDDs (the paper's formulation)."""

    @staticmethod
    def contained(part: Bdd, target: Bdd) -> bool:
        return part.implies(target)

    @staticmethod
    def intersects(part: Bdd, target: Bdd) -> bool:
        return part.intersects(target)

    @staticmethod
    def complement(target: Bdd) -> Bdd:
        return ~target

    @staticmethod
    def subtract(a: Bdd, b: Bdd) -> Bdd:
        return a - b

    @staticmethod
    def union(a: Optional[Bdd], b: Bdd) -> Bdd:
        return b if a is None else a | b

    @staticmethod
    def covered(part: Bdd, union: Optional[Bdd]) -> bool:
        return part.is_false() if union is None else part.implies(union)


class _BitsetSets:
    """Localization algebra over atom bitsets (Python ints)."""

    __slots__ = ("all_mask",)

    def __init__(self, all_mask: int) -> None:
        self.all_mask = all_mask

    @staticmethod
    def contained(part: int, target: int) -> bool:
        return part & ~target == 0

    @staticmethod
    def intersects(part: int, target: int) -> bool:
        return part & target != 0

    def complement(self, target: int) -> int:
        return self.all_mask & ~target

    @staticmethod
    def subtract(a: int, b: int) -> int:
        return a & ~b

    @staticmethod
    def union(a: Optional[int], b: int) -> int:
        return b if a is None else a | b

    @staticmethod
    def covered(part: int, union: Optional[int]) -> bool:
        return part == 0 if union is None else part & ~union == 0


# ---------------------------------------------------------------------------
# Atom decomposition of a DAG (affected-independent, shared per pair).


def _straddle_error(node: DdnfNode) -> HeaderLocalizeError:
    if node.is_leaf():
        return HeaderLocalizeError(
            f"leaf {node.label} straddles the affected set; "
            "the range vocabulary does not generate it"
        )
    return HeaderLocalizeError(
        f"remainder of {node.label} straddles the affected set; "
        "the range vocabulary does not generate it"
    )


@dataclass
class DagAtoms(Generic[ElementT]):
    """The atom decomposition of one ddNF DAG.

    Node remainders (node predicate minus the union of its children's)
    are pairwise disjoint and union to the root predicate — were two
    remainders to share a point, the closure label of the two nodes'
    intersection would contain it and sit strictly below one of them,
    contradicting that the point escapes every child.  They are
    therefore the atoms of the algebra the vocabulary generates, and
    every node predicate is exactly the union of the remainder atoms
    at and below it.  Empty remainders (an internal node exactly
    covered by its children) get no atom bit, keeping the bitsets
    faithful for both polarities of a query.

    The decomposition depends only on the DAG and its predicates —
    never on an affected set — so one instance serves every
    localization of a pair/dimension.
    """

    #: the DAG's root, where classification starts its walk
    root: DdnfNode[ElementT]
    #: label -> the node's full predicate
    predicates: Dict[ElementT, Bdd]
    #: label -> the node's remainder predicate, for non-empty remainders
    remainders: Dict[ElementT, Bdd]
    #: label -> single-bit mask of the node's own remainder atom (0 if empty)
    remainder_bits: Dict[ElementT, int]
    #: label -> bitset of the node's full predicate
    node_bits: Dict[ElementT, int]
    #: number of atoms (bitsets use bits 0..atom_count-1)
    atom_count: int

    @property
    def all_mask(self) -> int:
        """Bitset with every atom bit set (the root predicate)."""
        return (1 << self.atom_count) - 1

    def classify(
        self, affected: Bdd, stats: Optional[GetMatchStats] = None
    ) -> int:
        """The bitset of ``affected`` — or raise on a straddling atom.

        Walks the DAG in its visited-set DFS preorder, checking each
        node's remainder atom, so a straddle raises at the same node,
        with the same message, as the lazy BDD walk: the walk visits
        nodes first in exactly this order, checks the node's own
        remainder before recursing, and straddling is invariant under
        target complementation (an atom meets both ``S`` and ``¬S`` iff
        it meets both ``¬S`` and ``S``), so the polarity flips the walk
        performs cannot move the first failing node.

        A node whose full predicate is disjoint from ``affected``
        contributes nothing and one that implies it contributes its
        whole ``node_bits``; either way no atom below it can straddle,
        so its subtree is skipped.  Every node below such a node is
        itself disjoint or implied, so the nodes that are still checked
        are visited in the same relative order as a scan of every node:
        the bits, the first straddling node and its message all match
        that scan.
        """
        bits = 0
        visited: Set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            label = node.label
            predicate = self.predicates[label]
            if stats is not None:
                stats.containment_checks += 1
            if not predicate.intersects(affected):
                continue
            if predicate.implies(affected):
                bits |= self.node_bits[label]
                continue
            remainder = self.remainders.get(label)
            if remainder is not None:
                if stats is not None:
                    stats.containment_checks += 1
                if remainder.implies(affected):
                    bits |= self.remainder_bits[label]
                elif remainder.intersects(affected):
                    raise _straddle_error(node)
            # Reversed so children pop in order: the recursive preorder.
            stack.extend(reversed(node.children))
        return bits


def compute_dag_atoms(
    dag: DdnfDag[ElementT], to_pred: Callable[[ElementT], Bdd]
) -> DagAtoms[ElementT]:
    """Materialize the remainder atoms of ``dag`` (see :class:`DagAtoms`)."""
    with perf.timer("header_localize.dag_atoms"):
        predicates: Dict[ElementT, Bdd] = {}
        remainders: Dict[ElementT, Bdd] = {}
        remainder_bits: Dict[ElementT, int] = {}
        atom_count = 0
        for node in dag.topological():
            predicate = predicates[node.label] = to_pred(node.label)
            remainder = predicate
            for child in node.children:
                remainder = remainder - to_pred(child.label)
            if remainder.is_false():
                remainder_bits[node.label] = 0
            else:
                remainders[node.label] = remainder
                remainder_bits[node.label] = 1 << atom_count
                atom_count += 1

        node_bits: Dict[ElementT, int] = {}

        def bits_of(node: DdnfNode[ElementT]) -> int:
            cached = node_bits.get(node.label)
            if cached is None:
                cached = remainder_bits[node.label]
                for child in node.children:
                    cached |= bits_of(child)
                node_bits[node.label] = cached
            return cached

        bits_of(dag.root)
    return DagAtoms(
        root=dag.root,
        predicates=predicates,
        remainders=remainders,
        remainder_bits=remainder_bits,
        node_bits=node_bits,
        atom_count=atom_count,
    )


def classify_prefix_tree(
    tree: PrefixTreeAtoms,
    affected: Bdd,
    var_indices: Sequence[int],
    stats: Optional[GetMatchStats] = None,
) -> int:
    """The bitset of ``affected`` over an address-prefix tree — or raise.

    ``var_indices`` are the field's BDD variables, most significant bit
    first and in the manager's variable order; ``affected`` must be
    projected onto them.  The walk follows the BDD's node ids down the
    tree with the prefix bits: at a position of depth ``d`` it takes
    the low/high child when the node tests bit ``d`` and keeps the node
    on both sides when it tests a later variable (the function does
    not depend on bit ``d`` then).  The node it holds is thus exactly
    the cofactor of ``affected`` at that position, so
    :meth:`DagAtoms.classify`'s answers come without a BDD apply:

    * a ``TRUE``/``FALSE`` cofactor settles the position's whole subtree;
    * a position holding no child lies in the node's remainder, and a
      non-constant cofactor there — or constant cofactors of both
      polarities across such positions — means the remainder straddles.

    Nodes are taken in the DAG's DFS preorder and each node's own
    positions are all seen before its children, so the first straddling
    node and its message match :meth:`DagAtoms.classify`.  A node
    testing a variable ordered before the position's bit (one outside
    the field) cannot be cofactored this way and raises ``ValueError``.
    """
    manager = affected.manager
    var_of, low_of, high_of = manager._var, manager._low, manager._high
    false, true = manager.false.node, manager.true.node
    nodes, tables = tree.nodes, tree.children
    node_bits, remainder_bits = tree.node_bits, tree.remainder_bits
    walked = 0
    bits = 0
    stack = [(0, affected.node)]
    while stack:
        index, cofactor = stack.pop()
        node = nodes[index]
        if cofactor == true:
            bits |= node_bits[node.label]
            continue
        if cofactor == false:
            continue
        table = tables[index]
        networks, sizes = table.networks, table.sizes
        child_cofactors = [false] * len(networks)
        remainder_seen = set()
        label = node.label
        pending = [(label.network, label.length, cofactor, 0, len(networks))]
        while pending:
            network, depth, function, low, high = pending.pop()
            walked += 1
            if function == true or function == false:
                if sizes[high] - sizes[low] < 1 << (32 - depth):
                    remainder_seen.add(function)
                if function == true:
                    child_cofactors[low:high] = [true] * (high - low)
                continue
            if low == high:
                raise _straddle_error(node)
            if (
                high - low == 1
                and networks[low] == network
                and nodes[table.positions[low]].label.length == depth
            ):
                child_cofactors[low] = function
                continue
            variable, bit = var_of[function], var_indices[depth]
            if variable == bit:
                below, above = low_of[function], high_of[function]
            elif variable > bit:
                below = above = function
            else:
                raise ValueError(
                    f"affected set tests variable {variable} above bit "
                    f"{depth} of the field; project it onto the field first"
                )
            upper = network | (1 << (31 - depth))
            middle = bisect_left(networks, upper, low, high)
            pending.append((upper, depth + 1, above, middle, high))
            pending.append((network, depth + 1, below, low, middle))
        if len(remainder_seen) > 1:
            raise _straddle_error(node)
        if true in remainder_seen:
            bits |= remainder_bits[label]
        # Reversed so children pop in DAG order: the preorder.
        for rank in reversed(table.dag_order):
            function = child_cofactors[rank]
            if function != false:
                stack.append((table.positions[rank], function))
    if stats is not None:
        stats.containment_checks += walked
    return bits


class LocalizeSession:
    """Pair-scoped localization state shared across differences.

    One session per component pair hoists everything that does not
    depend on the affected set out of the per-difference path, per
    dimension: the ddNF DAG (with its :class:`PrefixTreeAtoms` for
    address prefixes), the range-predicate cache (repeated
    localizations used to rebuild identical range BDDs per call) and
    the :class:`DagAtoms` decomposition.  ``backend`` pins the
    localization algebra; ``None`` means ``"atoms"``.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        self.backend = backend
        self._dags: Dict[Hashable, Tuple[Sequence, DdnfDag]] = {}
        self._pred_caches: Dict[Hashable, Dict] = {}
        self._atoms: Dict[Hashable, Tuple[DdnfDag, DagAtoms]] = {}

    def dag(
        self,
        dimension: Hashable,
        ranges: Sequence[ElementT],
        algebra: RangeAlgebra[ElementT],
    ) -> DdnfDag[ElementT]:
        """The ddNF DAG of ``ranges``, looked up once per dimension.

        The entry is keyed by the identity of ``ranges``: callers pass
        one sequence per dimension for the session's life and must not
        mutate it meanwhile (a mutated sequence would get the stale
        DAG); another sequence object resolves its DAG afresh.
        """
        entry = self._dags.get(dimension)
        if entry is None or entry[0] is not ranges:
            entry = (ranges, cached_dag(ranges, algebra))
            self._dags[dimension] = entry
        return entry[1]

    def pred_cache(self, dimension: Hashable) -> Dict:
        """The label → predicate cache for ``dimension``."""
        return self._pred_caches.setdefault(dimension, {})

    def dag_atoms(
        self,
        dimension: Hashable,
        dag: DdnfDag[ElementT],
        pred_of: Callable[[ElementT], Bdd],
    ) -> DagAtoms[ElementT]:
        """The (cached) atom decomposition of ``dag`` for ``dimension``."""
        entry = self._atoms.get(dimension)
        if entry is None or entry[0] is not dag:
            entry = (dag, compute_dag_atoms(dag, pred_of))
            self._atoms[dimension] = entry
        return entry[1]


# ---------------------------------------------------------------------------
# The generic GetMatch traversal and minimality prunes.


def _run_get_match(
    target,
    dag: DdnfDag[ElementT],
    pred_of: Callable[[ElementT], object],
    remainder_of: Callable[[DdnfNode[ElementT]], object],
    sets,
    stats: GetMatchStats,
) -> List[MatchTerm[ElementT]]:
    """The paper's recursive GetMatch, generic over the set algebra."""
    denote_cache: Dict[MatchTerm[ElementT], object] = {}

    def denote(term: MatchTerm[ElementT]):
        cached = denote_cache.get(term)
        if cached is None:
            cached = pred_of(term.range)
            for subtrahend in term.minus:
                cached = sets.subtract(cached, denote(subtrahend))
            denote_cache[term] = cached
        return cached

    def prune(terms: List[MatchTerm[ElementT]]) -> List[MatchTerm[ElementT]]:
        """Drop terms semantically covered by the union of the others.

        Overlapping DAG siblings (whose intersection is itself a closure
        node) can contribute redundant terms — e.g. ``B − D − (E∩D)``
        where ``E∩D ⊆ D``; the paper asks for the *minimal*
        representation, so we greedily keep only non-redundant terms,
        preferring structurally simpler (fewer subtrahends) ones.
        """
        unique = _dedupe(terms)
        if len(unique) <= 1:
            return unique
        # Simple terms first so complex ones are dropped preferentially.
        ordered = sorted(unique, key=lambda t: (len(t.minus), repr(t.range)))
        return _greedy_minimal(ordered, [denote(t) for t in ordered], sets)

    def walk(target, node: DdnfNode[ElementT]) -> List[MatchTerm[ElementT]]:
        stats.recursive_calls += 1
        node_pred = pred_of(node.label)
        if node.is_leaf():
            stats.containment_checks += 1
            if sets.contained(node_pred, target):
                return [MatchTerm(node.label)]
            if sets.intersects(node_pred, target):
                raise _straddle_error(node)
            return []
        remainder = remainder_of(node)
        stats.containment_checks += 1
        if sets.contained(remainder, target):
            complement = sets.complement(target)
            nonmatches: List[MatchTerm[ElementT]] = []
            for child in node.children:
                nonmatches.extend(walk(complement, child))
            return [MatchTerm(node.label, tuple(prune(nonmatches)))]
        if sets.intersects(remainder, target):
            raise _straddle_error(node)
        matches: List[MatchTerm[ElementT]] = []
        for child in node.children:
            matches.extend(walk(target, child))
        return prune(matches)

    return _dedupe(walk(target, dag.root))


def _greedy_minimal(ordered: List, denotations: List, sets) -> List:
    """Keep the terms not covered by the union of the rest, greedily.

    Each drop decision compares one denotation against the union of
    everything already kept plus everything not yet decided — computed
    in O(n) total set unions via a suffix-union precomputation plus an
    incrementally maintained kept-union, instead of re-folding the
    whole remainder from scratch per candidate (the old O(n²) pass).
    The decisions are identical: ``kept_union ∪ suffix[i+1]`` is
    exactly the union over ``kept + ordered[i+1:]``.
    """
    count = len(ordered)
    suffix = [None] * (count + 1)
    for index in range(count - 1, -1, -1):
        suffix[index] = sets.union(suffix[index + 1], denotations[index])
    kept: List = []
    kept_union = None
    for index, term in enumerate(ordered):
        tail = suffix[index + 1]
        if kept_union is None:
            union_rest = tail
        elif tail is None:
            union_rest = kept_union
        else:
            union_rest = sets.union(kept_union, tail)
        if not sets.covered(denotations[index], union_rest):
            kept.append(term)
            kept_union = sets.union(kept_union, denotations[index])
    return kept


def get_match(
    affected: Bdd,
    dag: DdnfDag[ElementT],
    to_pred: Callable[[ElementT], Bdd],
    stats: Optional[GetMatchStats] = None,
) -> List[MatchTerm[ElementT]]:
    """The paper's recursive GetMatch over the containment DAG (BDD form).

    ``to_pred`` maps a range label to its BDD over the same dimensions as
    ``affected`` (other dimensions must already be projected away by the
    caller).
    """
    if stats is None:
        stats = GetMatchStats()
    stats.dag_nodes = len(dag)

    pred_cache: Dict[ElementT, Bdd] = {}

    def pred_of(label: ElementT) -> Bdd:
        cached = pred_cache.get(label)
        if cached is None:
            cached = to_pred(label)
            pred_cache[label] = cached
        return cached

    remainder_cache: Dict[ElementT, Bdd] = {}

    def remainder_of(node: DdnfNode[ElementT]) -> Bdd:
        cached = remainder_cache.get(node.label)
        if cached is None:
            cached = pred_of(node.label)
            for child in node.children:
                cached = cached - pred_of(child.label)
            remainder_cache[node.label] = cached
        return cached

    return _run_get_match(
        affected, dag, pred_of, remainder_of, _BddSets(), stats
    )


def _unique_in_order(items) -> List:
    """Hash-based order-preserving dedup.

    All the dedup sites (terms, ranges) previously did ``item not in
    seen`` against a list, degrading large localizations to O(n²);
    terms and ranges are hashable, so a set membership check keeps each
    pass linear.
    """
    seen: set = set()
    unique: List = []
    for item in items:
        if item not in seen:
            seen.add(item)
            unique.append(item)
    return unique


def _dedupe(terms: List[MatchTerm[ElementT]]) -> List[MatchTerm[ElementT]]:
    """Drop duplicate terms (a node reachable via two parents is visited
    twice in a DAG traversal)."""
    return _unique_in_order(terms)


def flatten_terms(terms: Sequence[MatchTerm[ElementT]]) -> List[FlatTerm[ElementT]]:
    """Single-pass removal of nested differences (§3.2's final step).

    ``R − (X − Y)`` = ``(R − X) ∪ Y`` because ``Y ⊆ X ⊆ R`` in a
    containment DAG, so each nested subtrahend surfaces as its own term.
    """
    flat: List[FlatTerm[ElementT]] = []

    def emit(term: MatchTerm[ElementT]) -> None:
        flat.append(FlatTerm(term.range, tuple(m.range for m in term.minus)))
        for subtrahend in term.minus:
            for nested in subtrahend.minus:
                emit(nested)

    for term in terms:
        emit(term)
    # Deduplicate while preserving discovery order.
    return _unique_in_order(flat)


def _minimal_flat(
    flat: Sequence[FlatTerm[ElementT]],
    pred_of: Callable[[ElementT], object],
    sets,
) -> List[FlatTerm[ElementT]]:
    """Generic core of :func:`minimal_flat_terms` (see its docstring)."""
    unique = _unique_in_order(flat)
    if len(unique) <= 1:
        return list(unique)

    def denote(term: FlatTerm[ElementT]):
        result = pred_of(term.range)
        for subtrahend in term.minus:
            result = sets.subtract(result, pred_of(subtrahend))
        return result

    ordered = sorted(unique, key=lambda t: (len(t.minus), repr(t.range)))
    kept = _greedy_minimal(ordered, [denote(t) for t in ordered], sets)
    if len(kept) == len(unique):
        return list(unique)
    perf.add("header_localize.flat_terms_pruned", len(unique) - len(kept))
    # Preserve discovery order for the survivors.
    survivors = {id(term) for term in kept}
    return [term for term in unique if id(term) in survivors]


def minimal_flat_terms(
    flat: Sequence[FlatTerm[ElementT]],
    to_pred: Callable[[ElementT], Bdd],
) -> List[FlatTerm[ElementT]]:
    """Drop flat terms semantically covered by the union of the rest.

    GetMatch prunes redundant *nested* terms at every DAG level, but
    flattening can still surface a redundant piece: when two overlapping
    parents both exclude parts of the affected set, the matching part
    recovered under one parent (say ``G1 = G2 ∩ X1``) may be strictly
    contained in the part recovered under the other (``G2``), and both
    surface as stand-alone flat terms.  The paper's output is the
    *minimal* representation, so we greedily keep only non-redundant
    terms, preferring structurally simpler (fewer subtrahends) ones.
    The greedy drop preserves the denoted union exactly: a term is only
    dropped while the remaining candidates still cover it.
    """
    pred_cache: Dict[ElementT, Bdd] = {}

    def pred_of(label: ElementT) -> Bdd:
        cached = pred_cache.get(label)
        if cached is None:
            cached = to_pred(label)
            pred_cache[label] = cached
        return cached

    return _minimal_flat(flat, pred_of, _BddSets())


def header_localize(
    affected: Bdd,
    ranges: Sequence[ElementT],
    algebra: RangeAlgebra[ElementT],
    to_pred: Callable[[ElementT], Bdd],
    *,
    backend: Optional[str] = None,
    session: Optional[LocalizeSession] = None,
    dimension: Hashable = None,
) -> Localization[ElementT]:
    """End-to-end HeaderLocalize: DAG (cached), GetMatch, flattening, and
    the final minimality prune over the flat terms.

    ``backend`` selects the localization algebra (``"bdd"`` vs the
    bitset-backed ``"atoms"``); ``None`` defers to the
    session's backend, then to ``"atoms"``.  ``session``/
    ``dimension`` share the DAG, predicate caches and atom
    decompositions across the differences of one component pair.
    An address-prefix vocabulary (its DAG has tree atoms) is classified
    by :func:`classify_prefix_tree`, other vocabularies by
    :meth:`DagAtoms.classify`.
    """
    with perf.timer("header_localize"):
        if session is None:
            session = LocalizeSession(backend=backend)
        stats = GetMatchStats()
        dag = session.dag(dimension, ranges, algebra)
        stats.dag_nodes = len(dag)

        pred_cache = session.pred_cache(dimension)

        def pred_of(label: ElementT) -> Bdd:
            cached = pred_cache.get(label)
            if cached is None:
                cached = to_pred(label)
                pred_cache[label] = cached
            return cached

        name = backend or session.backend or "atoms"
        if name == "atoms":
            if dag.tree_atoms is not None:
                atoms = dag.tree_atoms
                # Bit vectors allocate their variables MSB first in
                # increasing order, so a host prefix's sorted support
                # is the field's bits in walk order.
                field_vars = pred_of(_HOST_PREFIX).support()
                target_bits = classify_prefix_tree(
                    atoms, affected, field_vars, stats
                )
            else:
                atoms = session.dag_atoms(dimension, dag, pred_of)
                target_bits = atoms.classify(affected, stats)
            sets = _BitsetSets(atoms.all_mask)
            node_bits = atoms.node_bits
            terms = _run_get_match(
                target_bits,
                dag,
                node_bits.__getitem__,
                lambda node: atoms.remainder_bits[node.label],
                sets,
                stats,
            )
            flat = _minimal_flat(
                flatten_terms(terms), node_bits.__getitem__, sets
            )
        else:
            remainder_cache: Dict[ElementT, Bdd] = {}

            def remainder_of(node: DdnfNode[ElementT]) -> Bdd:
                cached = remainder_cache.get(node.label)
                if cached is None:
                    cached = pred_of(node.label)
                    for child in node.children:
                        cached = cached - pred_of(child.label)
                    remainder_cache[node.label] = cached
                return cached

            terms = _run_get_match(
                affected, dag, pred_of, remainder_of, _BddSets(), stats
            )
            flat = _minimal_flat(flatten_terms(terms), pred_of, _BddSets())
        localization = Localization(terms=tuple(flat), stats=stats)
    perf.add("header_localize.ranges", len(ranges))
    perf.add("header_localize.terms", len(localization.terms))
    return localization
