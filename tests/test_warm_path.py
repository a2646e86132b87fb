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

from repro import perf
from repro.core.fleet import compare_fleet
from repro.core.memo import DiffMemo
from repro.core.serialize import dumps, fleet_report_to_dict
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

#: Per-pair work a warm near-symmetric run already has the answer to:
#: rebuilding a replayed difference, signing a representative pair.
REPLAYED_WORK = ("semantic_difference_from_dict", "pair_signature")

# Runs ``repro.cli.main`` on argv[1:] and writes to argv[1]'s file the
# calls of each counted function, the engine modules loaded at exit,
# the perf counters, the exit code and the collector's state.  The call count comes from a profile
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
from repro import perf
code = repro.cli.main(argv)
sys.setprofile(None)
sys.stdout.flush()
with open(out_path, "w") as handle:
    json.dump({
        "calls": calls,
        "counters": perf.REGISTRY.counters,
        "modules": sorted(m for m in sys.modules if m.startswith("repro")),
        "code": code,
        "gc_enabled": gc.isenabled(),
        "freeze_count": gc.get_freeze_count(),
    }, handle)
"""


def _probe(tmp_path, name, argv, counted=DERIVATIONS):
    """Run the CLI under the probe in a fresh process, counting the
    calls of the functions named in ``counted``."""
    result = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _PROBE % json.dumps(counted),
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


def test_warm_near_symmetric_run_replays_without_rebuilding(tmp_path):
    devices, _ = parameterized_clos_fleet(count=6, roles=3, rule_count=8, seed=0)
    argv = ["--cache-dir", str(tmp_path / "cache"), "fleet", "--json"]
    argv += _write_fleet(tmp_path, devices)
    cold_proc, cold = _probe(tmp_path, "cold", argv, REPLAYED_WORK)
    warm_proc, warm = _probe(tmp_path, "warm", argv, REPLAYED_WORK)
    assert cold["code"] == warm["code"] == 1, warm_proc.stderr
    assert warm_proc.stdout == cold_proc.stdout
    counters = warm["counters"]
    assert counters["memo.localization_replays"] > 0
    # Every replayed difference is written from its stored fragment ...
    assert counters["serialize.replayed_fragments"] == counters[
        "memo.localization_replays"
    ]
    assert warm["calls"].get("semantic_difference_from_dict", 0) == 0
    # ... and only representative pairs sharing a hole atom are signed
    # one by one (this fleet has none).
    assert warm["calls"].get("pair_signature", 0) == counters[
        "near_symmetry.sharing_pairs"
    ]


def _text_runs(tmp_path, argv):
    """Cold and warm text output of one command over one cache; the
    warm run replays localized differences."""
    outputs = []
    for name in ("cold", "warm"):
        proc, probe = _probe(tmp_path, f"text-{name}", argv)
        assert probe["code"] == 1, proc.stderr
        # compare prints its timings last; they are not report text
        outputs.append(
            "\n".join(
                line
                for line in proc.stdout.splitlines()
                if not line.startswith("(parse ")
            )
        )
    assert probe["counters"]["memo.localization_replays"] > 0
    return outputs


def test_replayed_text_reports_equal_live_ones(tmp_path):
    devices, _ = parameterized_clos_fleet(count=6, roles=3, rule_count=8, seed=0)
    paths = _write_fleet(tmp_path, devices)
    cache = ["--cache-dir", str(tmp_path / "fleet-cache")]
    cold, warm = _text_runs(tmp_path, cache + ["fleet", *paths])
    assert warm == cold
    assert "Difference 1 (semantic)" in warm
    cache = ["--cache-dir", str(tmp_path / "compare-cache")]
    cold, warm = _text_runs(tmp_path, cache + ["compare", *paths[:2]])
    assert warm == cold


def test_mutating_a_serialized_report_leaves_the_memo_intact():
    devices, _ = parameterized_clos_fleet(count=6, roles=3, rule_count=8, seed=0)
    memo = DiffMemo()
    compare_fleet(devices, memo=memo)
    before = perf.REGISTRY.counters.get("memo.localization_replays", 0)
    report = compare_fleet(devices, memo=memo)
    assert perf.REGISTRY.counters["memo.localization_replays"] > before
    first = fleet_report_to_dict(report)
    text = dumps(first)
    assert text == json.dumps(first, indent=2)

    def scribble(value):
        if isinstance(value, dict):
            for key in list(value):
                if isinstance(value[key], (dict, list)):
                    scribble(value[key])
                else:
                    value[key] = "scribbled"
            value["added"] = ["scribbled"]
        elif isinstance(value, list):
            for item in value:
                scribble(item)
            value.append("scribbled")

    scribble(first)
    # The scribbled copy is written as what it now holds ...
    assert dumps(first) == json.dumps(first, indent=2)
    # ... and the report, with the memo behind it, is untouched.
    second = fleet_report_to_dict(report)
    assert dumps(second) == text
    assert second == json.loads(text)


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
