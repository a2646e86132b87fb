"""A reduced ordered binary decision diagram (ROBDD) engine.

This module is a from-scratch substitute for the JavaBDD library used by
Campion.  It implements hash-consed ROBDD nodes with an if-then-else (ite)
core, operation-specialized binary apply kernels, the standard boolean
connectives, restriction, existential and universal quantification,
satisfiability counting, and variable support computation.

Design notes
------------
* Nodes live in a pluggable *node store* (:mod:`repro.bdd.store`): flat
  parallel columns (``var``/``low``/``high``) indexed by integer node ids,
  with ids 0 and 1 reserved for the terminal FALSE and TRUE nodes.  The
  default :class:`~repro.bdd.store.FlatNodeStore` keeps the columns in
  ``array('q')`` C arrays and the unique table open-addressed in one more
  flat array — no boxed ints, no key tuples — which matters because
  SemanticDiff on 10,000-rule ACLs creates millions of nodes.  The manager
  aliases the columns as ``_var``/``_low``/``_high``, so every traversal
  below reads them by plain indexing whatever the store.
* The store's unique table maps ``(var, low, high)`` triples to node ids
  so that structurally equal subgraphs share one node; BDD equality is then
  id equality, which is what makes the pairwise intersection tests in
  SemanticDiff cheap.  All node creation — the kernels' fold sites
  included — funnels through ``store.mk``, which is also where resource
  budgets are enforced.
* Every traversal — the ite core, the binary apply kernels, quantification,
  restriction, counting, and cube enumeration — runs on an explicit stack
  rather than Python recursion, so BDDs over thousands of variables (deep
  chain conjunctions, 10,000-rule ACL encodings) cannot hit
  ``RecursionError`` regardless of ``sys.getrecursionlimit()``.
* The hot connectives (AND/OR/XOR/DIFF/NOT) have *specialized* kernels with
  their own operand caches and terminal short-circuits.  Commutative
  operations normalize their cache key (``a&b`` and ``b&a`` share one
  entry), DIFF runs in a single pass instead of materializing the negation,
  and NOT keeps a bidirectional complement cache (negation is an
  involution).  The generic ite core stays behind :meth:`BddManager.ite`;
  every connective equals its ite formulation node for node, which is
  what the kernel tests check.
* Caches are never invalidated because nodes are immortal for the life of
  the manager; Campion's workloads are one-shot comparisons so this is the
  right trade-off.  Cache effectiveness is observable through
  :meth:`BddManager.stats`, which reports per-operation hit/miss counters
  and node/cache population snapshots.
* Variable order is the order of :meth:`BddManager.new_var` calls.  Callers
  that care about ordering (see ``benchmarks/bench_ablation_var_order.py``)
  allocate variables accordingly.

The public surface is :class:`BddManager` and the lightweight :class:`Bdd`
wrapper, which supports ``&``, ``|``, ``^``, ``~`` and ``-`` (set
difference) operators so that the algorithm code reads like the paper's
set algebra.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import perf
from .store import resolve_store

__all__ = ["AnalysisBudgetExceeded", "Bdd", "BddManager"]


class AnalysisBudgetExceeded(RuntimeError):
    """A BDD analysis outgrew its resource budget and was aborted.

    Raised from the node-allocation path when the manager holds more
    nodes than its ``node_limit`` or its wall-clock ``deadline`` has
    passed.  Carries structured fields so callers can report *which*
    budget tripped and convert the abort into a per-component degraded
    result instead of letting the process OOM or hang:

    * ``resource`` — ``"nodes"`` or ``"deadline"``,
    * ``limit`` — the configured bound (node count, or seconds granted),
    * ``used`` — the observed value at abort time.
    """

    def __init__(self, resource: str, limit: float, used: float):
        self.resource = resource
        self.limit = limit
        self.used = used
        if resource == "nodes":
            detail = f"{int(used)} nodes allocated, limit {int(limit)}"
        else:
            detail = f"{used:.1f}s elapsed, budget {limit:.1f}s"
        super().__init__(f"analysis budget exceeded ({resource}): {detail}")

# Terminal node ids.  They are the same in every manager.
_FALSE = 0
_TRUE = 1

# Sentinel variable index for terminals: larger than any real variable so
# that terminals sort below all decision nodes in the variable order.
_TERMINAL_LEVEL = 1 << 30

# Names of the operation caches surfaced by BddManager.stats().
_OP_NAMES = ("ite", "and", "or", "xor", "diff", "not", "intersect")

# Deadline checks poll the clock once per this many fresh node
# allocations: cheap enough to leave on, frequent enough that a BDD
# blow-up is caught within milliseconds of the deadline passing.
_DEADLINE_CHECK_EVERY = 4096


class Bdd:
    """An immutable boolean function handle bound to a :class:`BddManager`.

    Instances are value objects: two ``Bdd`` handles from the same manager
    denote the same function if and only if their node ids are equal, so
    ``==`` and hashing are O(1).
    """

    __slots__ = ("manager", "node")

    def __init__(self, manager: "BddManager", node: int):
        self.manager = manager
        self.node = node

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bdd):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.node == _FALSE:
            return "Bdd(FALSE)"
        if self.node == _TRUE:
            return "Bdd(TRUE)"
        return f"Bdd(node={self.node}, var={self.manager._var[self.node]})"

    # -- predicates -------------------------------------------------------
    def is_false(self) -> bool:
        """True when this function is unsatisfiable."""
        return self.node == _FALSE

    def is_true(self) -> bool:
        """True when this function is a tautology."""
        return self.node == _TRUE

    def __bool__(self) -> bool:
        """Truthiness is satisfiability, matching set-intuition (`if s:`)."""
        return self.node != _FALSE

    # -- connectives ------------------------------------------------------
    def __and__(self, other: "Bdd") -> "Bdd":
        return self.manager.apply_and(self, other)

    def __or__(self, other: "Bdd") -> "Bdd":
        return self.manager.apply_or(self, other)

    def __xor__(self, other: "Bdd") -> "Bdd":
        return self.manager.apply_xor(self, other)

    def __invert__(self) -> "Bdd":
        return self.manager.apply_not(self)

    def __sub__(self, other: "Bdd") -> "Bdd":
        """Set difference: ``self & ~other``."""
        return self.manager.apply_diff(self, other)

    # -- relational helpers -------------------------------------------------
    def implies(self, other: "Bdd") -> bool:
        """Decide ``self => other`` (set containment)."""
        return self.manager.apply_diff(self, other).is_false()

    def intersects(self, other: "Bdd") -> bool:
        """Decide whether the two sets share any element."""
        return self.manager.intersects(self, other)

    # -- queries ------------------------------------------------------------
    def satcount(self, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        Defaults to all variables currently allocated in the manager.
        """
        return self.manager.satcount(self, nvars)

    def support(self) -> List[int]:
        """Sorted list of variable indices this function depends on."""
        return self.manager.support(self)

    def any_model(self) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (partial: unmentioned vars are free)."""
        return self.manager.any_model(self)


class BddManager:
    """Owner of all BDD nodes, the unique table, and operation caches."""

    def __init__(
        self,
        node_limit: Optional[int] = None,
        time_budget: Optional[float] = None,
        store=None,
    ) -> None:
        # The node store owns the parallel node columns (slots 0/1 are
        # the FALSE/TRUE terminals) and the unique table; the manager
        # aliases the columns for the kernels' direct indexing.
        self._store = resolve_store(store)
        self._var = self._store.var
        self._low = self._store.low
        self._high = self._store.high
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._diff_cache: Dict[Tuple[int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        # Unordered operand pairs proven to have empty intersection by the
        # short-circuit intersection kernel (no result node to store).
        self._disjoint_cache: set = set()
        self._satcount_cache: Dict[Tuple[int, int], int] = {}
        self._hits: Dict[str, int] = {name: 0 for name in _OP_NAMES}
        self._misses: Dict[str, int] = {name: 0 for name in _OP_NAMES}
        self._num_vars = 0
        # Resource budget (see set_budget); checked on node allocation,
        # the single point every kernel grows through.
        self._node_limit: Optional[int] = None
        self._deadline: Optional[float] = None
        self._time_budget: Optional[float] = None
        self._deadline_countdown = _DEADLINE_CHECK_EVERY
        self._budget_active = False
        self.set_budget(node_limit=node_limit, time_budget=time_budget)
        self.false = Bdd(self, _FALSE)
        self.true = Bdd(self, _TRUE)

    # -- variable management ------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of decision variables allocated so far."""
        return self._num_vars

    def new_var(self) -> Bdd:
        """Allocate the next variable in the global order and return it."""
        var = self._num_vars
        self._num_vars += 1
        return Bdd(self, self._mk(var, _FALSE, _TRUE))

    def new_vars(self, count: int) -> List[Bdd]:
        """Allocate ``count`` consecutive variables."""
        if count < 0:
            raise ValueError(f"variable count must be non-negative, got {count}")
        return [self.new_var() for _ in range(count)]

    def var(self, index: int) -> Bdd:
        """The positive literal of an already-allocated variable."""
        if not 0 <= index < self._num_vars:
            raise IndexError(f"variable {index} not allocated (have {self._num_vars})")
        return Bdd(self, self._mk(index, _FALSE, _TRUE))

    def nvar(self, index: int) -> Bdd:
        """The negative literal of an already-allocated variable."""
        if not 0 <= index < self._num_vars:
            raise IndexError(f"variable {index} not allocated (have {self._num_vars})")
        return Bdd(self, self._mk(index, _TRUE, _FALSE))

    def constant(self, value: bool) -> Bdd:
        """The constant TRUE or FALSE function."""
        return self.true if value else self.false

    @property
    def node_count(self) -> int:
        """Total number of allocated nodes, including the two terminals."""
        return len(self._var)

    # -- statistics ----------------------------------------------------------
    def stats(self) -> Dict:
        """Cache-effectiveness and population counters, JSON-compatible.

        ``caches`` maps each operation to its hit/miss counters (misses
        are memoized subproblem expansions, so ``misses`` also bounds the
        work each kernel actually performed) and current entry count.
        """
        cache_tables = {
            "ite": self._ite_cache,
            "and": self._and_cache,
            "or": self._or_cache,
            "xor": self._xor_cache,
            "diff": self._diff_cache,
            "not": self._not_cache,
            "intersect": self._disjoint_cache,
        }
        return {
            "node_store": self._store.kind,
            "budget": {
                "node_limit": self._node_limit,
                "time_budget": self._time_budget,
            },
            "num_vars": self._num_vars,
            "node_count": self.node_count,
            "unique_entries": self._store.unique_entries,
            "satcount_entries": len(self._satcount_cache),
            "caches": {
                name: {
                    "hits": self._hits[name],
                    "misses": self._misses[name],
                    "entries": len(cache_tables[name]),
                }
                for name in _OP_NAMES
            },
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents are untouched)."""
        for name in _OP_NAMES:
            self._hits[name] = 0
            self._misses[name] = 0

    # -- resource budgets ----------------------------------------------------
    def set_budget(
        self,
        node_limit: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> None:
        """Arm (or disarm, with both ``None``) this manager's budget.

        ``node_limit`` bounds total allocated nodes; ``time_budget`` is
        wall-clock seconds from *now*.  When either trips, node
        allocation raises :class:`AnalysisBudgetExceeded` — the manager
        stays internally consistent (nodes are immortal, caches only
        hold finished subresults), so a caller may catch the exception,
        report the component as aborted, and keep using other managers.
        """
        if node_limit is not None and node_limit < 2:
            raise ValueError(f"node_limit must cover the terminals, got {node_limit}")
        if time_budget is not None and time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {time_budget}")
        self._node_limit = node_limit
        self._time_budget = time_budget
        self._deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self._deadline_countdown = _DEADLINE_CHECK_EVERY
        self._budget_active = node_limit is not None or time_budget is not None
        # Arm the store hook: every fresh allocation — including the
        # kernels' inline fold sites — checks the budget exactly when
        # one is set, and pays nothing when none is.
        self._store.budget_check = self._check_budget if self._budget_active else None

    def _check_budget(self) -> None:
        """Raise if a fresh allocation would exceed the armed budget."""
        if self._node_limit is not None and len(self._var) >= self._node_limit:
            raise AnalysisBudgetExceeded("nodes", self._node_limit, len(self._var))
        if self._deadline is not None:
            self._deadline_countdown -= 1
            if self._deadline_countdown <= 0:
                self._deadline_countdown = _DEADLINE_CHECK_EVERY
                now = time.monotonic()
                if now > self._deadline:
                    elapsed = self._time_budget + (now - self._deadline)
                    raise AnalysisBudgetExceeded(
                        "deadline", self._time_budget, elapsed
                    )

    # -- node construction ----------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` with reduction."""
        return self._store.mk(var, low, high)

    def cube(self, literals) -> Bdd:
        """Conjunction of single-variable literals, built directly.

        ``literals`` is a mapping (or iterable of pairs) from variable
        index to phase — ``True`` for the positive literal.  The chain is
        constructed bottom-up straight against the unique table, one
        ``_mk`` per literal, with no apply traffic or cache pollution;
        the encoders lean on this for address/port bit patterns, which
        dominate node construction on large ACLs.  Conflicting phases for
        one variable yield FALSE.
        """
        pairs = literals.items() if hasattr(literals, "items") else literals
        items: Dict[int, bool] = {}
        for var, value in pairs:
            if not 0 <= var < self._num_vars:
                raise IndexError(
                    f"variable {var} not allocated (have {self._num_vars})"
                )
            value = bool(value)
            previous = items.get(var)
            if previous is None:
                items[var] = value
            elif previous != value:
                return self.false  # x & ~x
        node = _TRUE
        for var in sorted(items, reverse=True):
            if items[var]:
                node = self._mk(var, _FALSE, node)
            else:
                node = self._mk(var, node, _FALSE)
        return Bdd(self, node)

    def threshold(self, var_indices: Sequence[int], bound: int, at_least: bool) -> Bdd:
        """Comparison of an MSB-first variable chain against a constant.

        Builds the predicate ``value >= bound`` (``at_least=True``) or
        ``value <= bound`` over the unsigned integer laid out across
        ``var_indices`` (most significant bit first, indices strictly
        increasing so the chain respects the global order).  Constructed
        bottom-up with one ``_mk`` per bit — a threshold function is a
        single chain in the diagram, so no apply traffic is needed.
        """
        width = len(var_indices)
        if not 0 <= bound < (1 << width):
            raise ValueError(f"bound {bound} out of range for {width}-bit chain")
        for position in range(width):
            var = var_indices[position]
            if not 0 <= var < self._num_vars:
                raise IndexError(
                    f"variable {var} not allocated (have {self._num_vars})"
                )
            if position and var <= var_indices[position - 1]:
                raise ValueError("var_indices must be strictly increasing")
        # Suffix invariant, LSB upward: node == "remaining bits satisfy the
        # comparison given the prefix so far is exactly equal to bound's".
        node = _TRUE
        for position in range(width - 1, -1, -1):
            bit_set = (bound >> (width - 1 - position)) & 1
            var = var_indices[position]
            if at_least:
                if bit_set:
                    node = self._mk(var, _FALSE, node)
                else:
                    node = self._mk(var, node, _TRUE)
            else:
                if bit_set:
                    node = self._mk(var, _TRUE, node)
                else:
                    node = self._mk(var, node, _FALSE)
        return Bdd(self, node)

    # -- ite core ---------------------------------------------------------------
    def _ite(self, f: int, g: int, h: int) -> int:
        """If-then-else on raw node ids, on an explicit stack.

        Work items are 4-tuples: ``(0, f, g, h)`` expands a subproblem,
        ``(1, key, top, 0)`` folds the two child results (sitting on the
        value stack) into a node and memoizes it under ``key``.
        """
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        cache = self._ite_cache
        hits = misses = 0
        values: List[int] = []
        tasks: List[Tuple] = [(0, f, g, h)]
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g, h = task
                # Terminal short-circuits.
                if f == _TRUE:
                    values.append(g)
                    continue
                if f == _FALSE:
                    values.append(h)
                    continue
                if g == h:
                    values.append(g)
                    continue
                if g == _TRUE and h == _FALSE:
                    values.append(f)
                    continue
                key = (f, g, h)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                fv, gv, hv = var_arr[f], var_arr[g], var_arr[h]
                top = fv if fv < gv else gv
                if hv < top:
                    top = hv
                if fv == top:
                    f0, f1 = low_arr[f], high_arr[f]
                else:
                    f0 = f1 = f
                if gv == top:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                if hv == top:
                    h0, h1 = low_arr[h], high_arr[h]
                else:
                    h0 = h1 = h
                tasks.append((1, key, top, 0))
                tasks.append((0, f1, g1, h1))
                tasks.append((0, f0, g0, h0))
            else:
                _, key, top, _ = task
                high = values.pop()
                low = values.pop()
                result = mk(top, low, high)
                cache[key] = result
                values.append(result)
        self._hits["ite"] += hits
        self._misses["ite"] += misses
        return values[-1]

    # -- specialized binary kernels ---------------------------------------------
    # Each kernel is the apply algorithm for one connective with inlined
    # terminal cases, its own memo table, and (for commutative operations)
    # operand-sorted cache keys.  Terminal and cache-hit resolutions return
    # before any stack setup; only genuine cache misses enter the loop.
    # Work items mirror the ite core: ``(0, f, g)`` expands a subproblem,
    # ``(1, key, top)`` folds the two child results from the value stack
    # into a node and memoizes it under the already-built ``key`` (reusing
    # the key tuple keeps the combine phase allocation-free on hits in the
    # unique table).

    def _and(self, f: int, g: int) -> int:
        if f == g or g == _TRUE:
            return f
        if f == _FALSE or g == _FALSE:
            return _FALSE
        if f == _TRUE:
            return g
        if g < f:  # commutative: one cache entry per unordered pair
            f, g = g, f
        cache = self._and_cache
        result = cache.get((f, g))
        if result is not None:
            self._hits["and"] += 1
            return result
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        hits = misses = 0
        values: List[int] = []
        # Work items: (0, f, g) expand; (1, key, top) fold two child
        # results from the value stack; (2, key, top, high) fold when the
        # high child resolved inline before the low child was scheduled.
        tasks: List[Tuple] = [(0, f, g)]
        while tasks:
            task = tasks.pop()
            tag = task[0]
            if tag == 0:
                _, f, g = task
                if f == g or g == _TRUE:
                    values.append(f)
                    continue
                if f == _FALSE or g == _FALSE:
                    values.append(_FALSE)
                    continue
                if f == _TRUE:
                    values.append(g)
                    continue
                if g < f:
                    f, g = g, f
                key = (f, g)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                fv, gv = var_arr[f], var_arr[g]
                if fv <= gv:
                    top, f0, f1 = fv, low_arr[f], high_arr[f]
                else:
                    top, f0, f1 = gv, f, f
                if gv <= fv:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                # Resolve children inline when a terminal rule or a cache
                # hit answers them — skips a push/pop round-trip each.
                if f0 == g0 or g0 == _TRUE:
                    r0 = f0
                elif f0 == _FALSE or g0 == _FALSE:
                    r0 = _FALSE
                elif f0 == _TRUE:
                    r0 = g0
                else:
                    if g0 < f0:
                        f0, g0 = g0, f0
                    r0 = cache.get((f0, g0), -1)
                    if r0 >= 0:
                        hits += 1
                if f1 == g1 or g1 == _TRUE:
                    r1 = f1
                elif f1 == _FALSE or g1 == _FALSE:
                    r1 = _FALSE
                elif f1 == _TRUE:
                    r1 = g1
                else:
                    if g1 < f1:
                        f1, g1 = g1, f1
                    r1 = cache.get((f1, g1), -1)
                    if r1 >= 0:
                        hits += 1
                if r0 >= 0:
                    if r1 >= 0:
                        result = mk(top, r0, r1)
                        cache[key] = result
                        values.append(result)
                    else:
                        values.append(r0)
                        tasks.append((1, key, top))
                        tasks.append((0, f1, g1))
                elif r1 >= 0:
                    tasks.append((2, key, top, r1))
                    tasks.append((0, f0, g0))
                else:
                    tasks.append((1, key, top))
                    tasks.append((0, f1, g1))
                    tasks.append((0, f0, g0))
            else:
                if tag == 1:
                    _, key, top = task
                    high = values.pop()
                else:
                    _, key, top, high = task
                low = values.pop()
                result = mk(top, low, high)
                cache[key] = result
                values.append(result)
        self._hits["and"] += hits
        self._misses["and"] += misses
        return values[-1]

    def _or(self, f: int, g: int) -> int:
        if f == g or g == _FALSE:
            return f
        if f == _TRUE or g == _TRUE:
            return _TRUE
        if f == _FALSE:
            return g
        if g < f:  # commutative
            f, g = g, f
        cache = self._or_cache
        result = cache.get((f, g))
        if result is not None:
            self._hits["or"] += 1
            return result
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        hits = misses = 0
        values: List[int] = []
        tasks: List[Tuple] = [(0, f, g)]
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g = task
                if f == g or g == _FALSE:
                    values.append(f)
                    continue
                if f == _TRUE or g == _TRUE:
                    values.append(_TRUE)
                    continue
                if f == _FALSE:
                    values.append(g)
                    continue
                if g < f:
                    f, g = g, f
                key = (f, g)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                fv, gv = var_arr[f], var_arr[g]
                if fv <= gv:
                    top, f0, f1 = fv, low_arr[f], high_arr[f]
                else:
                    top, f0, f1 = gv, f, f
                if gv <= fv:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                # Resolve children inline when a terminal rule or a cache
                # hit answers them — skips a push/pop round-trip each.
                if f0 == g0 or g0 == _FALSE:
                    r0 = f0
                elif f0 == _TRUE or g0 == _TRUE:
                    r0 = _TRUE
                elif f0 == _FALSE:
                    r0 = g0
                else:
                    if g0 < f0:
                        f0, g0 = g0, f0
                    r0 = cache.get((f0, g0), -1)
                    if r0 >= 0:
                        hits += 1
                if f1 == g1 or g1 == _FALSE:
                    r1 = f1
                elif f1 == _TRUE or g1 == _TRUE:
                    r1 = _TRUE
                elif f1 == _FALSE:
                    r1 = g1
                else:
                    if g1 < f1:
                        f1, g1 = g1, f1
                    r1 = cache.get((f1, g1), -1)
                    if r1 >= 0:
                        hits += 1
                if r0 >= 0:
                    if r1 >= 0:
                        result = mk(top, r0, r1)
                        cache[key] = result
                        values.append(result)
                    else:
                        values.append(r0)
                        tasks.append((1, key, top))
                        tasks.append((0, f1, g1))
                elif r1 >= 0:
                    tasks.append((2, key, top, r1))
                    tasks.append((0, f0, g0))
                else:
                    tasks.append((1, key, top))
                    tasks.append((0, f1, g1))
                    tasks.append((0, f0, g0))
            else:
                if task[0] == 1:
                    _, key, top = task
                    high = values.pop()
                else:
                    _, key, top, high = task
                low = values.pop()
                result = mk(top, low, high)
                cache[key] = result
                values.append(result)
        self._hits["or"] += hits
        self._misses["or"] += misses
        return values[-1]

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return _FALSE
        if f == _FALSE:
            return g
        if g == _FALSE:
            return f
        if f == _TRUE:
            return self._not(g)
        if g == _TRUE:
            return self._not(f)
        if g < f:  # commutative
            f, g = g, f
        cache = self._xor_cache
        result = cache.get((f, g))
        if result is not None:
            self._hits["xor"] += 1
            return result
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        hits = misses = 0
        values: List[int] = []
        tasks: List[Tuple] = [(0, f, g)]
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g = task
                if f == g:
                    values.append(_FALSE)
                    continue
                if f == _FALSE:
                    values.append(g)
                    continue
                if g == _FALSE:
                    values.append(f)
                    continue
                if f == _TRUE:
                    values.append(self._not(g))
                    continue
                if g == _TRUE:
                    values.append(self._not(f))
                    continue
                if g < f:
                    f, g = g, f
                key = (f, g)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                fv, gv = var_arr[f], var_arr[g]
                if fv <= gv:
                    top, f0, f1 = fv, low_arr[f], high_arr[f]
                else:
                    top, f0, f1 = gv, f, f
                if gv <= fv:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                tasks.append((1, key, top))
                tasks.append((0, f1, g1))
                tasks.append((0, f0, g0))
            else:
                _, key, top = task
                high = values.pop()
                low = values.pop()
                result = mk(top, low, high)
                cache[key] = result
                values.append(result)
        self._hits["xor"] += hits
        self._misses["xor"] += misses
        return values[-1]

    def _diff(self, f: int, g: int) -> int:
        """``f & ~g`` in one pass (no intermediate negation graph)."""
        if f == _FALSE or g == _TRUE or f == g:
            return _FALSE
        if g == _FALSE:
            return f
        if f == _TRUE:
            return self._not(g)
        cache = self._diff_cache
        result = cache.get((f, g))
        if result is not None:
            self._hits["diff"] += 1
            return result
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        hits = misses = 0
        values: List[int] = []
        tasks: List[Tuple] = [(0, f, g)]
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g = task
                if f == _FALSE or g == _TRUE or f == g:
                    values.append(_FALSE)
                    continue
                if g == _FALSE:
                    values.append(f)
                    continue
                if f == _TRUE:
                    values.append(self._not(g))
                    continue
                key = (f, g)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                fv, gv = var_arr[f], var_arr[g]
                if fv <= gv:
                    top, f0, f1 = fv, low_arr[f], high_arr[f]
                else:
                    top, f0, f1 = gv, f, f
                if gv <= fv:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                # Resolve children inline when a terminal rule or a cache
                # hit answers them — skips a push/pop round-trip each.
                if f0 == _FALSE or g0 == _TRUE or f0 == g0:
                    r0 = _FALSE
                elif g0 == _FALSE:
                    r0 = f0
                elif f0 == _TRUE:
                    r0 = self._not(g0)
                else:
                    r0 = cache.get((f0, g0), -1)
                    if r0 >= 0:
                        hits += 1
                if f1 == _FALSE or g1 == _TRUE or f1 == g1:
                    r1 = _FALSE
                elif g1 == _FALSE:
                    r1 = f1
                elif f1 == _TRUE:
                    r1 = self._not(g1)
                else:
                    r1 = cache.get((f1, g1), -1)
                    if r1 >= 0:
                        hits += 1
                if r0 >= 0:
                    if r1 >= 0:
                        result = mk(top, r0, r1)
                        cache[key] = result
                        values.append(result)
                    else:
                        values.append(r0)
                        tasks.append((1, key, top))
                        tasks.append((0, f1, g1))
                elif r1 >= 0:
                    tasks.append((2, key, top, r1))
                    tasks.append((0, f0, g0))
                else:
                    tasks.append((1, key, top))
                    tasks.append((0, f1, g1))
                    tasks.append((0, f0, g0))
            else:
                if task[0] == 1:
                    _, key, top = task
                    high = values.pop()
                else:
                    _, key, top, high = task
                low = values.pop()
                result = mk(top, low, high)
                cache[key] = result
                values.append(result)
        self._hits["diff"] += hits
        self._misses["diff"] += misses
        return values[-1]

    def _not(self, f: int) -> int:
        """Negation with a bidirectional complement cache.

        Negation is an involution on ROBDDs with both terminals, so every
        computed pair is cached in both directions: ``~~x`` is a lookup.
        """
        if f <= _TRUE:
            return f ^ 1
        cache = self._not_cache
        result = cache.get(f)
        if result is not None:
            self._hits["not"] += 1
            return result
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        mk = self._store.mk
        hits = misses = 0
        values: List[int] = []
        tasks: List[Tuple] = [(0, f)]
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                f = task[1]
                if f <= _TRUE:
                    values.append(f ^ 1)
                    continue
                cached = cache.get(f)
                if cached is not None:
                    hits += 1
                    values.append(cached)
                    continue
                misses += 1
                tasks.append((1, f, var_arr[f]))
                tasks.append((0, high_arr[f]))
                tasks.append((0, low_arr[f]))
            else:
                _, f, top = task
                high = values.pop()
                low = values.pop()
                result = mk(top, low, high)
                cache[f] = result
                cache[result] = f
                values.append(result)
        self._hits["not"] += hits
        self._misses["not"] += misses
        return values[-1]

    def _intersects(self, f: int, g: int) -> bool:
        """Decide ``f & g != FALSE`` without building the product BDD.

        Depth-first search over operand pairs: any branch reaching a pair
        with a shared satisfying path returns True immediately, so
        non-empty intersections usually resolve after one root-to-terminal
        walk.  When the search exhausts (the sets are disjoint) every pair
        it visited is recorded in ``_disjoint_cache`` — across a
        SemanticDiff run the big operand (the disagreement region) is
        fixed, so later classes resolve mostly from cache.  Results in
        ``_and_cache`` are consulted too: a cached conjunction answers the
        emptiness question for free.
        """
        if f == _FALSE or g == _FALSE:
            return False
        if f == g or f == _TRUE or g == _TRUE:
            return True
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        disjoint = self._disjoint_cache
        and_cache = self._and_cache
        hits = 0
        visited: set = set()
        stack: List[Tuple[int, int]] = [(f, g)]
        while stack:
            f, g = stack.pop()
            if f == _FALSE or g == _FALSE:
                continue
            if f == g or f == _TRUE or g == _TRUE:
                self._hits["intersect"] += hits
                self._misses["intersect"] += len(visited)
                return True
            if g < f:
                f, g = g, f
            pair = (f, g)
            if pair in visited:
                continue
            if pair in disjoint:
                hits += 1
                continue
            cached = and_cache.get(pair)
            if cached is not None:
                hits += 1
                if cached == _FALSE:
                    continue
                self._hits["intersect"] += hits
                self._misses["intersect"] += len(visited)
                return True
            visited.add(pair)
            fv, gv = var_arr[f], var_arr[g]
            if fv <= gv:
                f0, f1 = low_arr[f], high_arr[f]
            else:
                f0 = f1 = f
            if gv <= fv:
                g0, g1 = low_arr[g], high_arr[g]
            else:
                g0 = g1 = g
            stack.append((f1, g1))
            stack.append((f0, g0))
        # Exhausted without finding a common path: every visited pair is
        # a proven-empty intersection.
        disjoint.update(visited)
        self._hits["intersect"] += hits
        self._misses["intersect"] += len(visited)
        return False

    # -- connectives ------------------------------------------------------------
    def _check(self, *operands: Bdd) -> None:
        for operand in operands:
            if operand.manager is not self:
                raise ValueError("operands belong to different BddManagers")

    def ite(self, f: Bdd, g: Bdd, h: Bdd) -> Bdd:
        """``if f then g else h``."""
        self._check(f, g, h)
        perf.add("bdd.applies")
        return Bdd(self, self._ite(f.node, g.node, h.node))

    def apply_and(self, a: Bdd, b: Bdd) -> Bdd:
        """Conjunction of two functions."""
        if a.manager is not self or b.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return Bdd(self, self._and(a.node, b.node))

    def apply_or(self, a: Bdd, b: Bdd) -> Bdd:
        """Disjunction of two functions."""
        if a.manager is not self or b.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return Bdd(self, self._or(a.node, b.node))

    def apply_xor(self, a: Bdd, b: Bdd) -> Bdd:
        """Exclusive-or of two functions."""
        if a.manager is not self or b.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return Bdd(self, self._xor(a.node, b.node))

    def apply_not(self, a: Bdd) -> Bdd:
        """Negation of a function."""
        if a.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return Bdd(self, self._not(a.node))

    def apply_diff(self, a: Bdd, b: Bdd) -> Bdd:
        """``a & ~b`` without materializing ``~b`` separately."""
        if a.manager is not self or b.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return Bdd(self, self._diff(a.node, b.node))

    def intersects(self, a: Bdd, b: Bdd) -> bool:
        """Decide whether ``a & b`` is satisfiable (no result BDD built)."""
        if a.manager is not self or b.manager is not self:
            raise ValueError("operands belong to different BddManagers")
        perf.add("bdd.applies")
        return self._intersects(a.node, b.node)

    def conjoin(self, operands: Iterable[Bdd]) -> Bdd:
        """AND of an iterable (TRUE for the empty iterable)."""
        acc = _TRUE
        for operand in operands:
            self._check(operand)
            perf.add("bdd.applies")
            acc = self._and(acc, operand.node)
            if acc == _FALSE:
                break
        return Bdd(self, acc)

    def disjoin(self, operands: Iterable[Bdd]) -> Bdd:
        """OR of an iterable (FALSE for the empty iterable)."""
        acc = _FALSE
        for operand in operands:
            self._check(operand)
            perf.add("bdd.applies")
            acc = self._or(acc, operand.node)
            if acc == _TRUE:
                break
        return Bdd(self, acc)

    # -- restriction & quantification ------------------------------------------
    def restrict(self, f: Bdd, assignment: Dict[int, bool]) -> Bdd:
        """Substitute constants for the variables in ``assignment``."""
        self._check(f)
        if not assignment:
            return f
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        cache: Dict[int, int] = {}
        stack = [f.node]
        while stack:
            node = stack[-1]
            if node <= _TRUE or node in cache:
                stack.pop()
                continue
            var = var_arr[node]
            if var in assignment:
                child = high_arr[node] if assignment[var] else low_arr[node]
                if child <= _TRUE or child in cache:
                    stack.pop()
                    cache[node] = child if child <= _TRUE else cache[child]
                else:
                    stack.append(child)
                continue
            low, high = low_arr[node], high_arr[node]
            low_ready = low <= _TRUE or low in cache
            high_ready = high <= _TRUE or high in cache
            if low_ready and high_ready:
                stack.pop()
                low_res = low if low <= _TRUE else cache[low]
                high_res = high if high <= _TRUE else cache[high]
                cache[node] = self._mk(var, low_res, high_res)
            else:
                if not high_ready:
                    stack.append(high)
                if not low_ready:
                    stack.append(low)
        node = f.node
        return Bdd(self, node if node <= _TRUE else cache[node])

    def exists(self, f: Bdd, variables: Sequence[int]) -> Bdd:
        """Existential quantification over ``variables``."""
        return self._quantify(f, frozenset(variables), is_exists=True)

    def forall(self, f: Bdd, variables: Sequence[int]) -> Bdd:
        """Universal quantification over ``variables``."""
        return self._quantify(f, frozenset(variables), is_exists=False)

    def _quantify(self, f: Bdd, variables: frozenset, is_exists: bool) -> Bdd:
        self._check(f)
        if not variables:
            return f
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        combine = self._or if is_exists else self._and
        cache: Dict[int, int] = {}
        stack = [f.node]
        while stack:
            node = stack[-1]
            if node <= _TRUE or node in cache:
                stack.pop()
                continue
            low, high = low_arr[node], high_arr[node]
            low_ready = low <= _TRUE or low in cache
            high_ready = high <= _TRUE or high in cache
            if low_ready and high_ready:
                stack.pop()
                low_res = low if low <= _TRUE else cache[low]
                high_res = high if high <= _TRUE else cache[high]
                var = var_arr[node]
                if var in variables:
                    cache[node] = combine(low_res, high_res)
                else:
                    cache[node] = self._mk(var, low_res, high_res)
            else:
                if not high_ready:
                    stack.append(high)
                if not low_ready:
                    stack.append(low)
        node = f.node
        return Bdd(self, node if node <= _TRUE else cache[node])

    # -- queries ---------------------------------------------------------------
    def _count_below(self, root: int, nvars: int) -> int:
        """Model count of ``root`` over variables strictly below its level.

        Memoized in ``_satcount_cache`` keyed ``(node, nvars)``; shared by
        :meth:`satcount` and :meth:`uniform_model`.
        """
        if root == _FALSE:
            return 0
        if root == _TRUE:
            return 1
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        cache = self._satcount_cache

        def level(node: int) -> int:
            return var_arr[node] if node > _TRUE else nvars

        def resolved(node: int) -> Optional[int]:
            if node == _FALSE:
                return 0
            if node == _TRUE:
                return 1
            return cache.get((node, nvars))

        stack = [root]
        while stack:
            node = stack[-1]
            if node <= _TRUE or (node, nvars) in cache:
                stack.pop()
                continue
            low, high = low_arr[node], high_arr[node]
            low_res = resolved(low)
            high_res = resolved(high)
            if low_res is not None and high_res is not None:
                stack.pop()
                var = var_arr[node]
                cache[(node, nvars)] = low_res * (
                    1 << (level(low) - var - 1)
                ) + high_res * (1 << (level(high) - var - 1))
            else:
                if high_res is None:
                    stack.append(high)
                if low_res is None:
                    stack.append(low)
        return cache[(root, nvars)]

    def satcount(self, f: Bdd, nvars: Optional[int] = None) -> int:
        """Count satisfying assignments of ``f`` over ``nvars`` variables."""
        self._check(f)
        if nvars is None:
            nvars = self._num_vars
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        node = f.node
        top_level = self._var[node] if node > _TRUE else nvars
        return self._count_below(node, nvars) * (1 << top_level)

    def support(self, f: Bdd) -> List[int]:
        """Sorted variable indices appearing in ``f``."""
        self._check(f)
        seen: set = set()
        variables: set = set()
        stack = [f.node]
        while stack:
            node = stack.pop()
            if node <= _TRUE or node in seen:
                continue
            seen.add(node)
            variables.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(variables)

    def any_model(self, f: Bdd) -> Optional[Dict[int, bool]]:
        """One satisfying partial assignment, or ``None`` if unsatisfiable.

        Follows a deterministic low-first descent, so repeated calls on the
        same function return the same model (important for reproducible
        baseline counterexamples).
        """
        self._check(f)
        node = f.node
        if node == _FALSE:
            return None
        model: Dict[int, bool] = {}
        while node > _TRUE:
            if self._low[node] != _FALSE:
                model[self._var[node]] = False
                node = self._low[node]
            else:
                model[self._var[node]] = True
                node = self._high[node]
        return model

    def uniform_model(self, f: Bdd, rng, nvars: Optional[int] = None) -> Optional[Dict[int, bool]]:
        """A *total* model sampled uniformly from ``f``'s satisfying set.

        Each descent step weights the low/high branch by its model count,
        and variables skipped on the path are assigned by fair coin flips,
        giving exactly uniform sampling.  The iterated-counterexample
        baseline (§2.1) uses this to emulate the varied models an SMT
        solver returns — deterministic lexicographic models would step
        through single addresses and never cover the interesting ranges.
        """
        self._check(f)
        if f.node == _FALSE:
            return None
        if nvars is None:
            nvars = self._num_vars

        model: Dict[int, bool] = {}
        node = f.node
        level = 0
        while True:
            node_level = self._var[node] if node > _TRUE else nvars
            # Variables between the current level and the node are free.
            for free in range(level, min(node_level, nvars)):
                model[free] = bool(rng.getrandbits(1))
            if node <= _TRUE:
                break
            var = self._var[node]
            low, high = self._low[node], self._high[node]
            low_level = self._var[low] if low > _TRUE else nvars
            high_level = self._var[high] if high > _TRUE else nvars
            low_weight = self._count_below(low, nvars) * (1 << (low_level - var - 1))
            high_weight = self._count_below(high, nvars) * (1 << (high_level - var - 1))
            pick_high = rng.randrange(low_weight + high_weight) < high_weight
            model[var] = pick_high
            node = high if pick_high else low
            level = var + 1
        return model

    def random_cube_model(self, f: Bdd, rng, nvars: Optional[int] = None) -> Optional[Dict[int, bool]]:
        """A total model sampled uniformly over ``f``'s *cubes* (paths to
        TRUE), with off-path variables filled by coin flips.

        Point-uniform sampling (:meth:`uniform_model`) weights regions by
        cardinality, which buries structurally small regions; sampling by
        path instead gives every branch-distinct region similar mass —
        much closer to how an SMT solver's successive models hop between
        structural cases, which is what the §2.1 iterated-counterexample
        experiment depends on.
        """
        self._check(f)
        if f.node == _FALSE:
            return None
        if nvars is None:
            nvars = self._num_vars
        model = dict(self.random_cube(f, rng) or {})
        for index in range(nvars):
            if index not in model:
                model[index] = bool(rng.getrandbits(1))
        return model

    def random_cube(self, f: Bdd, rng) -> Optional[Dict[int, bool]]:
        """A path-uniform random cube: the partial assignment along one
        uniformly-chosen BDD path to TRUE (off-path variables omitted)."""
        self._check(f)
        if f.node == _FALSE:
            return None
        low_arr, high_arr = self._low, self._high

        path_counts: Dict[int, int] = {_FALSE: 0, _TRUE: 1}
        stack = [f.node]
        while stack:
            node = stack[-1]
            if node in path_counts:
                stack.pop()
                continue
            low, high = low_arr[node], high_arr[node]
            low_res = path_counts.get(low)
            high_res = path_counts.get(high)
            if low_res is not None and high_res is not None:
                stack.pop()
                path_counts[node] = low_res + high_res
            else:
                if high_res is None:
                    stack.append(high)
                if low_res is None:
                    stack.append(low)

        cube: Dict[int, bool] = {}
        node = f.node
        while node > _TRUE:
            var = self._var[node]
            low_paths = path_counts[low_arr[node]]
            high_paths = path_counts[high_arr[node]]
            pick_high = rng.randrange(low_paths + high_paths) < high_paths
            cube[var] = pick_high
            node = high_arr[node] if pick_high else low_arr[node]
        return cube

    def iter_cubes(self, f: Bdd) -> Iterator[Dict[int, bool]]:
        """Yield all prime paths to TRUE as partial assignments (cubes).

        Each cube assigns only the variables on its BDD path; absent
        variables are don't-cares.  The cubes are disjoint and their union
        is exactly ``f``.  The traversal is an explicit-stack DFS (low
        branch first, matching the historical recursive order) with the
        partial assignment kept as a parent-linked chain, so arbitrarily
        deep BDDs enumerate without recursion.
        """
        self._check(f)
        low_arr, high_arr, var_arr = self._low, self._high, self._var
        # Stack entries: (node, chain) where chain is (var, value, parent).
        stack: List[Tuple[int, Optional[Tuple[int, bool, Optional[tuple]]]]] = [
            (f.node, None)
        ]
        while stack:
            node, chain = stack.pop()
            if node == _FALSE:
                continue
            if node == _TRUE:
                assignments = []
                link = chain
                while link is not None:
                    var, value, link = link
                    assignments.append((var, value))
                yield dict(reversed(assignments))
                continue
            var = var_arr[node]
            stack.append((high_arr[node], (var, True, chain)))
            stack.append((low_arr[node], (var, False, chain)))

    def dag_size(self, f: Bdd) -> int:
        """Number of decision nodes reachable from ``f`` (terminals excluded)."""
        self._check(f)
        seen: set = set()
        stack = [f.node]
        while stack:
            node = stack.pop()
            if node <= _TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)
