"""Lightweight performance telemetry: named counters and wall-clock timers.

The hot paths (SemanticDiff, HeaderLocalize, the parsers) report into a
process-global :class:`PerfRegistry`; benchmarks and the CLI snapshot it
to JSON so perf trajectories (``BENCH_atoms.json``,
``BENCH_fleet_memo.json``) carry the *why* behind a wall-clock number — how
many class pairs were compared (``semantic_diff.pairs_compared``, the
``bdd`` backend's loop) or how many atoms/bitset operations replaced
them (``setalg.atoms``, ``setalg.atom_probes``, ``setalg.bitset_ops``,
``setalg.atom_budget_fallbacks`` — see :mod:`repro.core.setalg`), how
long parsing took versus diffing, how the BDD caches behaved.

Instrumentation is deliberately coarse-grained (one timer span per
parse/diff/localize call, counters bumped in bulk), so the registry adds
nothing measurable to the hot loops it describes.  Mutation is guarded
by a lock because the analysis service (``repro.service``) runs jobs on
threads that report concurrently.

Usage::

    from repro import perf

    with perf.timer("semantic_diff"):
        ...work...
    perf.add("semantic_diff.pairs_compared", len(pairs))

    perf.snapshot()   # JSON-compatible dict of everything recorded
    perf.reset()      # start a fresh measurement window
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "PerfRegistry",
    "REGISTRY",
    "add",
    "timer",
    "record",
    "snapshot",
    "reset",
    "dump_json",
]


class PerfRegistry:
    """A named bag of monotonic counters and aggregated timer spans."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        # name -> [calls, total_seconds, max_seconds]
        self._timers: Dict[str, list] = {}
        self._lock = threading.Lock()

    # -- counters ------------------------------------------------------------
    def add(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` by ``amount`` (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- timers --------------------------------------------------------------
    def record(self, name: str, seconds: float) -> None:
        """Fold one measured span into timer ``name``."""
        with self._lock:
            entry = self._timers.get(name)
            if entry is None:
                self._timers[name] = [1, seconds, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds
                if seconds > entry[2]:
                    entry[2] = seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and fold it into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> Dict:
        """Everything recorded so far, as JSON-compatible dictionaries."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "timers": {
                    name: {
                        "calls": entry[0],
                        "total_s": entry[1],
                        "mean_s": entry[1] / entry[0],
                        "max_s": entry[2],
                    }
                    for name, entry in sorted(self._timers.items())
                },
            }

    def reset(self) -> None:
        """Clear all counters and timers."""
        with self._lock:
            self.counters.clear()
            self._timers.clear()

    def dump_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """Render the snapshot as JSON, optionally writing it to ``path``."""
        text = json.dumps(self.snapshot(), indent=indent, sort_keys=False)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text


#: The process-global registry the instrumented modules report into.
REGISTRY = PerfRegistry()

# Module-level conveniences bound to the global registry.
add = REGISTRY.add
timer = REGISTRY.timer
record = REGISTRY.record
snapshot = REGISTRY.snapshot
reset = REGISTRY.reset
dump_json = REGISTRY.dump_json
