"""Node stores for the ROBDD engine: where (var, low, high) triples live.

The engine's original layout kept nodes in three parallel Python lists
plus a ``dict`` unique table keyed by ``(var, low, high)`` tuples.  That
is simple and fast to look up, but on SemanticDiff workloads that
allocate millions of nodes the *memory* story dominates: every node
costs three boxed ints in the lists plus a three-element key tuple and
a boxed value in the dict — several hundred bytes per node once dict
load factors are counted.

:class:`FlatNodeStore` keeps the node columns as flat int lists (list
indexing returns the stored int objects directly — an ``array('q')``
column would box a fresh int on every read, and the kernels read the
columns an order of magnitude more often than they create nodes) and
replaces the unique table with an open-addressed, linear-probing hash
table whose slots are node ids in a single ``array('q')`` — no key
tuples and no dict entries at all, because the key of a stored node can
be read back out of the node columns.  At a two-thirds load ceiling the
table costs 12–24 bytes per node where the tuple-keyed dict cost well
over a hundred, which is what lets SemanticDiff's million-node managers
fit hot caches.

Slot value 0 marks an empty slot: the terminals (ids 0 and 1) are
created structurally, never stored in the table, so every table entry
is a decision node with id >= 2.

Both stores expose the same tiny surface — ``var``/``low``/``high``
sequences, :meth:`mk`, ``unique_entries`` — and both route fresh
allocations through an optional ``budget_check`` hook, which the
manager arms with its node/deadline budget.  Centralizing creation here
means *every* kernel allocation site honours the budget (the historical
inline fast paths checked it only in ``BddManager._mk``).

Store selection: the ``store`` argument of :class:`~.engine.BddManager`
is a fresh store instance, or ``None`` for a :class:`FlatNodeStore`.
:class:`DictNodeStore` is the reference the store tests pass in.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional, Tuple, Union

__all__ = [
    "DictNodeStore",
    "FlatNodeStore",
    "resolve_store",
]

# Terminal ids, mirrored from the engine (kept literal to avoid a
# circular import; the engine asserts they agree).
_FALSE = 0
_TRUE = 1

# Sentinel variable index for terminals (engine._TERMINAL_LEVEL).
_TERMINAL_LEVEL = 1 << 30

# Multiplicative mixing constants for the open-addressed table (odd,
# high-entropy — the classic Knuth/xxHash style multipliers).
_MIX1 = 0x9E3779B1
_MIX2 = 0x85EBCA77
_MIX3 = 0xC2B2AE3D

#: Initial unique-table capacity (slots, power of two).
_INITIAL_CAPACITY = 1 << 12


class FlatNodeStore:
    """Struct-of-arrays node storage with an open-addressed unique table.

    ``var``/``low``/``high`` are flat int lists indexed by node id; the
    unique table is a power-of-two ``array('q')`` of node ids probed
    linearly.  The table grows (doubling, rehash by re-inserting every
    decision node) when occupancy passes two thirds, so probes stay
    short on every workload size.
    """

    kind = "flat"

    __slots__ = ("var", "low", "high", "_table", "_mask", "_used", "budget_check")

    def __init__(self) -> None:
        self.var = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self.low = [0, 1]
        self.high = [0, 1]
        self._table = array("q", bytes(8 * _INITIAL_CAPACITY))
        self._mask = _INITIAL_CAPACITY - 1
        self._used = 0
        #: Armed by the manager; called before every fresh allocation.
        self.budget_check: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self.var)

    @property
    def unique_entries(self) -> int:
        """Decision nodes in the unique table (terminals excluded)."""
        return self._used

    def mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` with reduction."""
        if low == high:
            return low
        table = self._table
        mask = self._mask
        var_arr, low_arr, high_arr = self.var, self.low, self.high
        slot = (var * _MIX1 ^ low * _MIX2 ^ high * _MIX3) & mask
        node = table[slot]
        while node:
            if (
                low_arr[node] == low
                and high_arr[node] == high
                and var_arr[node] == var
            ):
                return node
            slot = (slot + 1) & mask
            node = table[slot]
        if self.budget_check is not None:
            self.budget_check()
        node = len(var_arr)
        var_arr.append(var)
        low_arr.append(low)
        high_arr.append(high)
        table[slot] = node
        self._used += 1
        if self._used * 3 > mask * 2:
            self._grow()
        return node

    def _grow(self) -> None:
        """Double the table and re-insert every decision node."""
        capacity = (self._mask + 1) << 1
        table = array("q", bytes(8 * capacity))
        mask = capacity - 1
        var_arr, low_arr, high_arr = self.var, self.low, self.high
        for node in range(2, len(var_arr)):
            slot = (
                var_arr[node] * _MIX1
                ^ low_arr[node] * _MIX2
                ^ high_arr[node] * _MIX3
            ) & mask
            while table[slot]:
                slot = (slot + 1) & mask
            table[slot] = node
        self._table = table
        self._mask = mask


class DictNodeStore:
    """The historical layout: Python lists plus a tuple-keyed dict.

    Kept as the reference implementation the flat store's tests
    compare against.
    """

    kind = "dict"

    __slots__ = ("var", "low", "high", "_unique", "budget_check")

    def __init__(self) -> None:
        self.var = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self.low = [0, 1]
        self.high = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self.budget_check: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self.var)

    @property
    def unique_entries(self) -> int:
        """Decision nodes in the unique table (terminals excluded)."""
        return len(self._unique)

    def mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` with reduction."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            if self.budget_check is not None:
                self.budget_check()
            node = len(self.var)
            self.var.append(var)
            self.low.append(low)
            self.high.append(high)
            self._unique[key] = node
        return node


NodeStore = Union[FlatNodeStore, DictNodeStore]

def resolve_store(spec: Optional[NodeStore] = None) -> NodeStore:
    """A fresh :class:`FlatNodeStore` for ``None``, else ``spec`` as-is.

    A passed-in store must be empty/fresh, since the manager seeds
    terminals through it.
    """
    if spec is None:
        return FlatNodeStore()
    if isinstance(spec, str):
        raise TypeError(
            f"store must be a node store instance, not a name ({spec!r})"
        )
    return spec
