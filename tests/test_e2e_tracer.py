"""The end-to-end benchmark's tracer still resolves every entry point.

``benchmarks/e2e/traced_cli.py`` wraps named functions across ``src/``
(``repro.core.parallel.SymmetryPlan``, ``repro.core.config_diff.diff_acls``
and the rest) before it runs the CLI.  A rename or a dropped re-export
that nothing in ``src/`` uses breaks the benchmark while every other
test stays green, so this runs the tracer once on a small fleet and
checks the layers it records.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.workloads.datacenter import parameterized_clos_fleet

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "benchmarks" / "e2e" / "traced_cli.py"

#: Every span a cold ``fleet --json`` run over a parameterized Clos
#: fleet records.
EXPECTED_SPANS = {
    "cache.read",
    "cache.write",
    "cli",
    "config_diff",
    "coverage",
    "ddnf.dag",
    "fingerprint.template",
    "fleet",
    "fleet.expand",
    "header_localize",
    "near_symmetry.plan",
    "parallel.matrix",
    "parsers",
    "semantic_diff",
    "serialize",
}


def test_traced_fleet_run_records_every_layer(tmp_path):
    devices, _ = parameterized_clos_fleet(count=6, roles=3, rule_count=8, seed=0)
    configs = []
    for device in devices:
        path = tmp_path / f"{device.hostname}.cfg"
        path.write_text("\n".join(device.raw_lines) + "\n")
        configs.append(str(path))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(TRACED_CLI),
            str(trace),
            "r0",
            "--",
            "--cache-dir",
            str(tmp_path / "cache"),
            "fleet",
            "--json",
            *configs,
        ],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    # An unresolved entry point fails at startup, before any trace is
    # written, with the same exit status as a fleet that has outliers.
    assert trace.exists(), proc.stderr
    assert proc.returncode == 1, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert {span["name"] for span in spans} == EXPECTED_SPANS
    assert all(span["run"] == "r0" for span in spans)
