"""Compare two full results of the end-to-end benchmark against its bounds.

Usage::

    python benchmarks/e2e/run.py --seed 0 > parent.json   # at the parent commit
    python benchmarks/e2e/run.py --seed 0 > change.json   # with the change
    python benchmarks/e2e/compare.py parent.json change.json

For every workload and end-to-end metric it prints both medians and
quartiles and one verdict against the metric's bound in
``BENCHMARK.json`` (``fail_frac`` may not increase at all):

* ``unresolved`` -- the run-to-run spread of either side, (q3 - q1) over
  the median, is wider than the bound, so the bound cannot be judged;
  unless every run of the change reads better than every run of the
  parent;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``unchanged`` -- otherwise (this includes improvements; the delta
  column shows their size).

Per-layer counts and ratios that differ between the two results follow
the table: at one commit and one seed they must repeat exactly.  Exits 1
when any verdict is not ``unchanged``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Optional

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def _is_timing(name: str, unit: str) -> bool:
    """Whether a per-layer metric times work, and so varies run to run.

    Every other per-layer metric counts work and must repeat exactly.
    """
    return unit == "s" or name == "trace.overhead"


def load_result(path: str) -> Dict:
    """The JSON object on the last line of a ``run.py`` output file."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return json.loads(lines[-1])


def spread(stats: Dict) -> float:
    """(q3 - q1) / median, or 0 for a zero median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def _every_run_better(parent: Dict, change: Dict, sign: float) -> bool:
    old, new = parent.get("values") or [], change.get("values") or []
    return bool(old and new) and all(sign * (n - o) < 0 for n in new for o in old)


def verdict(parent: Dict, change: Dict, bound: float, better: str = "lower") -> str:
    """``regressed``, ``unchanged`` or ``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        return "regressed" if sign * (change["median"] - parent["median"]) > 0 else "unchanged"
    if max(spread(parent), spread(change)) > bound and not _every_run_better(parent, change, sign):
        return "unresolved"
    worse = sign * (change["median"] - parent["median"]) / parent["median"]
    return "regressed" if worse > bound else "unchanged"


def _bounds() -> Dict[str, Dict]:
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    bounds = {metric["name"]: metric for metric in metrics}
    bounds["fail_frac"] = {"bound": 0.0, "better": "lower"}
    return bounds


def _cell(stats: Dict) -> str:
    return f"{stats['median']:.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}] n={stats['n']}"


def compare(parent: Dict, change: Dict, out=sys.stdout) -> List[str]:
    """Print the comparison table; returns every verdict printed."""
    bounds = _bounds()
    verdicts: List[str] = []
    print(f"{'workload':18s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s} {'bound':>6s}  verdict", file=out)
    for name, old in parent["workloads"].items():
        new: Optional[Dict] = change["workloads"].get(name)
        if new is None:
            print(f"{name:18s} missing from the change's result", file=out)
            verdicts.append("unresolved")
            continue
        for metric, spec in bounds.items():
            if metric not in old["end_to_end"] or metric not in new["end_to_end"]:
                continue
            a, b = old["end_to_end"][metric], new["end_to_end"][metric]
            result = verdict(a, b, spec["bound"], spec["better"])
            verdicts.append(result)
            delta = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            print(f"{name:18s} {metric:12s} {_cell(a):34s} {_cell(b):34s} "
                  f"{delta:+8.1%} {spec['bound']:6.0%}  {result}", file=out)
        for metric, a in sorted(old["per_layer"].items()):
            b = new["per_layer"].get(metric)
            if not _is_timing(metric, a["unit"]) and b is not None and b["value"] != a["value"]:
                print(f"{name:18s} per-layer count {metric}: {a['value']} -> {b['value']}", file=out)
    return verdicts


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    verdicts = compare(load_result(argv[0]), load_result(argv[1]))
    return 0 if all(result == "unchanged" for result in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
