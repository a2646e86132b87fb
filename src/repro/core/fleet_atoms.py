"""Fleet-scale atomization: seed the matrix's ACL counts from shared atoms.

Under the per-pair backends every matrix pairing of two distinct ACLs
repays the full cost of encoding and refining both partitions, so a
fleet whose devices all differ pays it N(N−1)/2 times.
:func:`seed_acl_counts` runs in :func:`repro.core.fleet.compare_fleet`
after the symmetry plan and before each matrix pass, over exactly
the pairs that pass will analyze:

1. collect the ACL pairs whose memo key is neither in the memo nor in
   its persistent cache (:meth:`DiffMemo.peek`, which counts no memo
   hits or misses — the matrix still does that);
2. split those *missing* pairs into connected components of the graph
   whose nodes are ACL fingerprints and whose edges are the pairs;
3. per component, fold every ACL over one shared
   :class:`~repro.encoding.PacketSpace` into a single
   :class:`~repro.bdd.fleet_atoms.AtomUniverse`, turning each ACL's
   classes into Python-int bitsets;
4. compute each pair's exact difference count with
   :func:`~repro.bdd.fleet_atoms.differing_pair_count` — pure bitwise
   work — and seed it with :meth:`DiffMemo.put_seed`, which writes it
   through to the persistent cache.

The matrix then replays every seeded pair as arithmetic; warm and edit
runs find the unchanged pairs in the cache and fold only what changed.
A pair of two equal fingerprints is seeded with 0 without any fold
(identical content has no differences).  Route maps are not seeded:
their community vocabulary depends on the pair, so one shared universe
would be unsound there, and the memo already runs each distinct
route-map pair once.

A component whose fold trips the atom budget
(:func:`~repro.bdd.atoms.default_atom_budget` of its total class count)
or violates universe coverage is simply not seeded — its pairs run
through per-pair atoms in the matrix — and only the perf counter
``fleet_atoms.budget_fallbacks`` records it, so the report is the same
either way.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import perf
from ..bdd.atoms import AtomBudgetExceeded, resolve_atom_budget
from ..bdd.fleet_atoms import (
    AtomUniverse,
    UniverseCoverageError,
    differing_pair_count,
)
from ..encoding import PacketSpace, acl_equivalence_classes
from ..model.acl import Acl
from ..model.device import DeviceConfig
from .match_policies import PolicyPairing
from .memo import DiffMemo, acl_key, count_entry
from .results import ComponentKind
from .setalg import canonical_action_key

__all__ = ["seed_acl_counts"]

#: fingerprint -> (per-class bitsets over the universe, per-class
#: canonical action keys) — everything a pair count needs.
VectorTable = Dict[str, Tuple[List[int], List]]


def seed_acl_counts(
    pairs: Sequence[Tuple[DeviceConfig, DeviceConfig]],
    pairings: Sequence[PolicyPairing],
    memo: DiffMemo,
) -> None:
    """Seed ``memo`` with the exact count of every missing ACL pair.

    ``pairings[i]`` is ``match_policies(*pairs[i])``, shared with the
    matrix so no pair is matched twice.  Only keys the matrix will look
    up are seeded, in the orientation it looks them up.
    """
    with perf.timer("fleet_atoms.seed"):
        acls: Dict[str, Acl] = {}
        missing: Dict[Tuple[str, str], None] = {}
        for (device1, device2), pairing in zip(pairs, pairings):
            fps1 = device1.fingerprints.acls
            fps2 = device2.fingerprints.acls
            for pair in pairing.acl_pairs:
                fp1, fp2 = fps1[pair.name1], fps2[pair.name2]
                if (fp1, fp2) in missing:
                    continue
                key = acl_key(fp1, fp2)
                if memo.peek(key) is not None:
                    continue
                if fp1 == fp2:
                    memo.put_seed(key, count_entry(ComponentKind.ACL, 0))
                    continue
                missing[(fp1, fp2)] = None
                acls.setdefault(fp1, device1.acls[pair.name1])
                acls.setdefault(fp2, device2.acls[pair.name2])
        for component in _components(missing):
            fingerprints = sorted({fp for edge in component for fp in edge})
            try:
                vectors = _fold({fp: acls[fp] for fp in fingerprints})
            except (AtomBudgetExceeded, UniverseCoverageError):
                perf.add("fleet_atoms.budget_fallbacks")
                continue
            for fp1, fp2 in component:
                bitsets1, keys1 = vectors[fp1]
                bitsets2, keys2 = vectors[fp2]
                count = differing_pair_count(bitsets1, keys1, bitsets2, keys2)
                memo.put_seed(
                    acl_key(fp1, fp2), count_entry(ComponentKind.ACL, count)
                )


def _components(
    edges: Dict[Tuple[str, str], None],
) -> List[List[Tuple[str, str]]]:
    """The edges grouped by connected component, in first-seen order."""
    parent: Dict[str, str] = {}

    def find(node: str) -> str:
        root = parent.setdefault(node, node)
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for fp1, fp2 in edges:
        root1, root2 = find(fp1), find(fp2)
        if root1 != root2:
            parent[root1] = root2
    components: Dict[str, List[Tuple[str, str]]] = {}
    for edge in edges:
        components.setdefault(find(edge[0]), []).append(edge)
    return list(components.values())


def _fold(acls: Dict[str, Acl]) -> VectorTable:
    """Bitset vectors of ``acls`` over one shared atom universe.

    ACLs are folded in the (sorted) order given, so the universe is a
    function of the ACL set alone.
    """
    space = PacketSpace()
    classes_by_fp = {
        fingerprint: acl_equivalence_classes(space, acl)
        for fingerprint, acl in acls.items()
    }
    total_classes = sum(len(c) for c in classes_by_fp.values())
    universe = AtomUniverse(
        atom_budget=resolve_atom_budget(None, total_classes, 0)
    )
    partitions = {
        fingerprint: (
            universe.add_partition([cls.predicate for cls in classes]),
            [canonical_action_key(cls.action) for cls in classes],
        )
        for fingerprint, classes in classes_by_fp.items()
    }
    perf.add("fleet_atoms.universes")
    perf.add("fleet_atoms.atoms", universe.size)
    perf.add("fleet_atoms.fold_probes", universe.probes)
    return {
        fingerprint: (universe.vector(pid), keys)
        for fingerprint, (pid, keys) in partitions.items()
    }
