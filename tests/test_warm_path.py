"""What a warm run pays for, and who may freeze the cyclic collector.

A warm ``campion fleet`` run finds every device and every component
diff in the persistent cache.  It must then reuse the facts the parser
sealed on each cached device (no template is computed, no policy's
spans are walked) and never load the analysis engine or a vendor
parser.  One-shot CLI commands freeze the loaded fleet out of the
cyclic collector; the library API and the service must leave the
collector as they found it.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys

from repro.core.fleet import compare_fleet
from repro.service.supervisor import Supervisor
from repro.workloads.datacenter import gateway_fleet, parameterized_clos_fleet

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules a fully cached run has no use for.
ENGINE_MODULES = (
    "repro.bdd.engine",
    "repro.encoding",
    "repro.core.semantic_diff",
    "repro.core.setalg",
    "repro.parsers.cisco",
    "repro.parsers.juniper",
)

#: Functions that re-derive what a parser seals on a device.
DERIVATIONS = ("compute_template", "walk_spans", "_walk_spans")

# Runs ``repro.cli.main`` on argv[1:] and writes to argv[1]'s file the
# calls of each derivation, the engine modules loaded at exit, the exit
# code and the collector's state.  The call count comes from a profile
# hook, so it sees every call whatever module the function lives in.
_PROBE = """
import collections, gc, json, sys
out_path, argv = sys.argv[1], sys.argv[2:]
calls = collections.Counter()
names = set(json.loads(%r))

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_name in names:
        calls[frame.f_code.co_name] += 1

sys.setprofile(hook)
import repro.cli
code = repro.cli.main(argv)
sys.setprofile(None)
sys.stdout.flush()
with open(out_path, "w") as handle:
    json.dump({
        "calls": calls,
        "modules": sorted(m for m in sys.modules if m.startswith("repro")),
        "code": code,
        "gc_enabled": gc.isenabled(),
        "freeze_count": gc.get_freeze_count(),
    }, handle)
"""


def _probe(tmp_path, name, argv):
    """Run the CLI under the probe in a fresh process."""
    result = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _PROBE % json.dumps(DERIVATIONS),
            str(result),
            *argv,
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.exists(), proc.stderr
    return proc, json.loads(result.read_text())


def _write_fleet(tmp_path, devices):
    paths = []
    for device in devices:
        path = tmp_path / f"{device.hostname}.cfg"
        path.write_text("\n".join(device.raw_lines) + "\n")
        paths.append(str(path))
    return paths


def test_warm_fleet_run_reuses_sealed_facts_and_skips_the_engine(tmp_path):
    devices, _ = parameterized_clos_fleet(count=6, roles=3, rule_count=8, seed=0)
    argv = ["--cache-dir", str(tmp_path / "cache"), "fleet", "--json"]
    argv += _write_fleet(tmp_path, devices)
    cold_proc, cold = _probe(tmp_path, "cold", argv)
    warm_proc, warm = _probe(tmp_path, "warm", argv)
    assert cold["code"] == warm["code"] == 1, warm_proc.stderr
    assert "misses=0" in warm_proc.stderr
    assert "localization_replays=0" not in warm_proc.stderr  # replays ran
    assert warm_proc.stdout == cold_proc.stdout
    # The cold run derives the facts once, at parse time.
    assert cold["calls"]["compute_template"] == len(devices)
    assert not warm["calls"], warm["calls"]
    loaded = [
        module
        for module in warm["modules"]
        if module.startswith(ENGINE_MODULES)
    ]
    assert not loaded, loaded


def test_cli_freezes_the_loaded_fleet(tmp_path):
    devices, _ = gateway_fleet(count=3, outliers=1, rule_count=6, seed=0)
    argv = ["--no-cache", "fleet", "--json", *_write_fleet(tmp_path, devices)]
    proc, probe = _probe(tmp_path, "cli", argv)
    assert probe["code"] == 1, proc.stderr
    assert probe["gc_enabled"] is True
    assert probe["freeze_count"] > 0


def _collector_state():
    return gc.isenabled(), gc.get_freeze_count()


def test_library_call_leaves_the_collector_alone():
    devices, _ = gateway_fleet(count=3, outliers=1, rule_count=6, seed=0)
    before = _collector_state()
    compare_fleet(devices)
    assert _collector_state() == before


def test_service_job_leaves_the_collector_alone():
    devices, _ = gateway_fleet(count=3, outliers=1, rule_count=6, seed=0)
    configs = [
        {"name": f"{device.hostname}.cfg", "text": "\n".join(device.raw_lines)}
        for device in devices
    ]
    before = _collector_state()
    result = Supervisor(cache=None).run_job({"configs": configs}, None)
    assert result["report"]["outliers"]
    assert _collector_state() == before
