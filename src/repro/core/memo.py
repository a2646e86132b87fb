"""Cross-pair diff memoization keyed by component fingerprints.

Fleet comparison is O(n²) pairs, but templated fleets are built from a
handful of *distinct* components: most ACL/route-map/structural diffs
across the matrix compare content that has already been compared.  The
:class:`DiffMemo` table makes each unique ``(fingerprint_a,
fingerprint_b)`` component diff run exactly once; every later pair
sharing those fingerprints replays the memoized result.

Soundness (the DESIGN.md argument in one paragraph): fingerprints hash
the full span-free canonical form of a component
(:mod:`repro.model.fingerprint`), so equal fingerprints mean
SemanticDiff/StructuralDiff receive identical content and — both being
deterministic — would produce the same differences.  Replay therefore
preserves Theorem 3.3's modular verdict.  Two deliberate restrictions
keep *reports* (not just verdicts) exact:

* only **clean** results are memoized — a component aborted by a node
  or time budget is never stored, so budgets need not be part of the
  key and a memo hit always represents a completed analysis;
* an entry with ``count > 0`` is replayed as a *count* (fleet matrix)
  or recomputed live (full reports), because text localization must
  point at the actual devices' lines; an entry with ``count == 0``
  lets both modes skip the component entirely, which contributes
  nothing to a report either way.

Entries are JSON-compatible dictionaries (serialized via
:mod:`repro.core.serialize`), so the memo can be backed by the on-disk
:class:`repro.cache.ArtifactCache`.  One memo serves one run: the
fleet matrix and the reference reports read and write it in the same
process, one pair at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .. import perf
from ..model.fingerprint import ComponentFingerprints
from .results import ComponentKind, SemanticDifference, StructuralDifference
from .serialize import (
    SCHEMA_VERSION,
    semantic_difference_to_dict,
    structural_difference_to_dict,
)

__all__ = [
    "DiffMemo",
    "MemoKey",
    "acl_key",
    "count_entry",
    "route_map_key",
    "structural_key",
    "semantic_entry",
    "structural_entry",
]

#: Memo keys are flat tuples of primitives: hashable for the in-memory
#: table and ``repr()``-stable for content-addressing the disk cache.
MemoKey = Tuple


def route_map_key(fp1: str, fp2: str, exhaustive_communities: bool) -> MemoKey:
    """Key for one route-map pair diff (exhaustive-communities mode
    changes the localization attached to entries, so it is in the key)."""
    return ("route_map", fp1, fp2, bool(exhaustive_communities))


def acl_key(fp1: str, fp2: str) -> MemoKey:
    """Key for one ACL pair diff."""
    return ("acl", fp1, fp2)


def structural_key(
    fps1: ComponentFingerprints,
    fps2: ComponentFingerprints,
    ospf_interface_pairing: Dict[str, str],
) -> MemoKey:
    """Key for the whole StructuralDiff of a pair.

    The OSPF interface pairing is an explicit input of
    ``structural_diff_all`` (it is derived from both devices'
    interfaces, which the structural fingerprints already cover, but
    callers may override pairings — keying on it keeps that case
    correct for free).
    """
    return (
        "structural",
        fps1.structural,
        fps2.structural,
        tuple(sorted(ospf_interface_pairing.items())),
    )


def semantic_entry(
    kind: ComponentKind,
    differences: Iterable[SemanticDifference],
    context: str = "",
    provenance: Optional[str] = None,
    replay: Optional[Dict] = None,
) -> Dict:
    """A clean semantic component result as a memo/cache entry.

    When ``provenance`` is supplied the differences were produced in
    collect mode — they carry localization — and the entry is marked
    ``localized`` so collect-mode hits can *replay* it instead of
    recomputing (:mod:`repro.core.replay`): ``provenance`` is the
    span/label digest gating the replay, ``replay`` the augmentation
    block carrying flags serialization omits.  Entries without the mark
    (count-mode results, pre-v5 cache entries) still replay as counts
    only.
    """
    serialized = [semantic_difference_to_dict(d) for d in differences]
    entry = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind.value,
        "context": context,
        "count": len(serialized),
        "semantic": serialized,
        "structural": [],
    }
    if provenance is not None:
        entry["localized"] = True
        entry["provenance"] = provenance
        entry["replay"] = replay if replay is not None else {}
    return entry


def count_entry(kind: ComponentKind, count: int, context: str = "") -> Dict:
    """A count-only entry, as seeded by fleet-scale atomization.

    Carries the exact difference count but no serialized differences.
    Seeds are persisted like any other entry (:meth:`DiffMemo.put_seed`),
    which is sound because no reader uses the ``semantic`` list of an
    entry that is not ``localized``: count mode sums ``count``, collect
    mode skips a zero count and otherwise recomputes live (then
    :meth:`DiffMemo.upgrade` replaces the seed with the localized
    result), and only localized entries are replayed
    (:mod:`repro.core.replay`).  ``seeded`` marks the entry so
    diagnostics and tests can tell it from a completed per-pair
    analysis.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind.value,
        "context": context,
        "count": int(count),
        "semantic": [],
        "structural": [],
        "seeded": True,
    }


def structural_entry(differences: Iterable[StructuralDifference]) -> Dict:
    """A clean StructuralDiff result as a memo/cache entry."""
    serialized = [structural_difference_to_dict(d) for d in differences]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "structural",
        "context": "",
        "count": len(serialized),
        "semantic": [],
        "structural": serialized,
    }


class DiffMemo:
    """In-memory memo table with optional persistent-cache backing.

    Reads fall through to the :class:`~repro.cache.ArtifactCache` when
    one is attached (read-through), and every new entry is written
    through immediately, so a warm cache survives the process.
    """

    def __init__(self, cache: Optional[object] = None) -> None:
        self._entries: Dict[MemoKey, Dict] = {}
        self._cache = cache

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: MemoKey) -> bool:
        return key in self._entries

    def get(self, key: MemoKey) -> Optional[Dict]:
        """The entry for ``key``, consulting the backing cache on miss."""
        entry = self.peek(key)
        perf.add("memo.hits" if entry is not None else "memo.misses")
        return entry

    def peek(self, key: MemoKey) -> Optional[Dict]:
        """:meth:`get` without counting a memo hit or miss.

        For lookahead (fleet seeding probes the keys the matrix will
        look up), so each logical lookup is counted once.
        """
        entry = self._entries.get(key)
        if entry is None and self._cache is not None:
            entry = self._cache.get_diff(key)
            if entry is not None:
                self._entries[key] = entry
        return entry

    def put(self, key: MemoKey, entry: Dict) -> None:
        """Record a clean result (first write wins; results for equal
        fingerprints are identical, so later writes are redundant)."""
        if key in self._entries:
            return
        self._entries[key] = entry
        perf.add("memo.stores")
        if self._cache is not None:
            self._cache.put_diff(key, entry)

    def upgrade(self, key: MemoKey, entry: Dict) -> None:
        """Replace a count-only entry with a localized one.

        ``put`` is first-write-wins because equal fingerprints imply
        equal results — but a count-mode run stores entries *without*
        localization, and under that rule they would permanently block
        collect-mode replay.  Upgrading is monotone (strictly more
        information, same count and differences), so replacing is as
        sound as the original write; an already-localized entry is left
        alone.
        """
        existing = self._entries.get(key)
        if existing is not None and existing.get("localized"):
            return
        self._entries[key] = entry
        perf.add("memo.upgrades")
        if self._cache is not None:
            self._cache.put_diff(key, entry)

    def put_seed(self, key: MemoKey, entry: Dict) -> None:
        """Record a seeded (count-only) entry and persist it.

        Seeds are exact counts derived from fleet-scale atomization
        (:func:`repro.core.fleet_atoms.seed_acl_counts`); they are
        written through to the persistent cache so warm and edit runs
        fold only what changed (see :func:`count_entry` for why a
        persisted seed is sound).  First write wins, and a seed never
        overwrites an existing entry.
        """
        if key in self._entries:
            return
        self._entries[key] = entry
        perf.add("memo.seeds")
        if self._cache is not None:
            self._cache.put_diff(key, entry)
