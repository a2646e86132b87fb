"""Run the ``campion`` CLI with a timing span around each layer's entry points.

Usage::

    python benchmarks/e2e/traced_cli.py TRACE.json RUN_ID -- <campion arguments>

The launcher wraps the public functions each layer exposes, on the
module attribute its caller resolves at call time, then calls
``repro.cli.main``.  Every call records a span (name, start, end,
parent span id, run id) in memory; at exit the spans are written to
``TRACE.json`` next to the run's ``repro.perf`` counter and timer
snapshot.  Standard output and the exit code are the CLI's own, so a
traced run is checked like any other.

Nothing under ``src/`` knows it is being traced: the spans come from
outside the program, which is why they sit at layer boundaries only.
The span-arithmetic helpers at the bottom need no ``repro`` import.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: Name of the span around ``repro.cli.main``; every other span nests in it.
ROOT_SPAN = "cli"


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._open: List[int] = []
        #: values read off layer results (symmetry statistics)
        self.facts: Dict[str, int] = {}

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                return function(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter()

        return traced

    def patch(self, owner: object, attributes: Iterable[str], name: str) -> None:
        """Replace each ``owner.<attribute>`` by its traced version."""
        for attribute in attributes:
            setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))


def install(tracer: Tracer) -> Callable:
    """Wrap every layer entry point; returns the traced ``repro.cli.main``."""
    # import_module, not ``import a.b as c``: ``repro.core`` re-exports
    # functions named like its submodules (config_diff, header_localize).
    cli, config_diff, fleet, header_localize, present, fingerprint = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "cli",
            "core.config_diff",
            "core.fleet",
            "core.header_localize",
            "core.present",
            "model.fingerprint",
        )
    )
    from repro.cache import ArtifactCache
    from repro.core.parallel import SymmetryPlan

    tracer.patch(cli, ("parse_config", "load_config"), "parsers")
    tracer.patch(ArtifactCache, ("get_device", "get_diff"), "cache.read")
    tracer.patch(ArtifactCache, ("put_device", "put_diff"), "cache.write")
    tracer.patch(fingerprint, ("compute_template",), "fingerprint.template")
    tracer.patch(fleet, ("plan_near_pairs",), "near_symmetry.plan")
    tracer.patch(fleet, ("pairwise_count_outcomes",), "parallel.matrix")
    tracer.patch(SymmetryPlan, ("expand_near",), "fleet.expand")
    tracer.patch(fleet, ("compute_fleet_coverage",), "coverage")
    tracer.patch(cli, ("config_diff",), "config_diff")
    tracer.patch(fleet, ("config_diff",), "config_diff")
    tracer.patch(config_diff, ("diff_acls", "diff_route_maps"), "semantic_diff")
    tracer.patch(present, ("header_localize",), "header_localize")
    tracer.patch(header_localize, ("cached_dag",), "ddnf.dag")
    tracer.patch(cli, ("fleet_report_to_dict", "report_to_json"), "serialize")

    compare_fleet = tracer.wrap("fleet", cli.compare_fleet)

    def fleet_with_facts(*args, **kwargs):
        report = compare_fleet(*args, **kwargs)
        if report.symmetry is not None:
            tracer.facts["classes"] = report.symmetry.classes
            tracer.facts["analyzed_pairs"] = report.symmetry.analyzed_pairs
        return report

    cli.compare_fleet = fleet_with_facts
    return tracer.wrap(ROOT_SPAN, cli.main)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, run_id, campion_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    traced_main = install(tracer)
    from repro import perf

    try:
        return traced_main(campion_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as handle:
            json.dump(
                {
                    "run": run_id,
                    "spans": tracer.spans,
                    "facts": tracer.facts,
                    "perf": perf.snapshot(),
                },
                handle,
            )


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(start: float, end: float, children: List[Dict]) -> float:
    """Length of [start, end] covered by the union of the children."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda span: span["start"]):
        low = max(child["start"], reach)
        high = min(child["end"], end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds per span name, each span minus the part its children cover.

    Children are found by parent id, not by name, so a span nested in
    another of the same name (recursion) is counted once, in its own
    self time.
    """
    children: Dict[int, List[Dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span["end"] - span["start"]
        totals[span["name"]] += duration - _covered(
            span["start"], span["end"], children[span["id"]]
        )
    return dict(totals)


def span_counts(spans: List[Dict]) -> Dict[str, int]:
    """Calls per span name."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span["name"]] += 1
    return dict(counts)


def root_seconds(spans: List[Dict]) -> Optional[float]:
    """Duration of the root span, or ``None`` if the run never started."""
    for span in spans:
        if span["name"] == ROOT_SPAN and span["parent"] is None:
            return span["end"] - span["start"]
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
