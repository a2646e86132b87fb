"""Tests of the end-to-end benchmark's own logic (``python -m pytest benchmarks/e2e -q``)."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402
import workloads  # noqa: E402


def _span(ident, name, parent, start, end):
    return {"id": ident, "name": name, "parent": parent, "run": "r", "start": start, "end": end}


def test_self_time_subtracts_children_including_recursion():
    spans = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "config_diff", 0, 1.0, 9.0),
        _span(2, "config_diff", 1, 2.0, 5.0),  # recursive: same name, nested
        _span(3, "semantic_diff", 2, 3.0, 4.0),
        _span(4, "cache.read", 1, 6.0, 7.0),
    ]
    own = traced_cli.self_times(spans)
    assert own == pytest.approx(
        {"cli": 2.0, "config_diff": 4.0 + 2.0, "semantic_diff": 1.0, "cache.read": 1.0}
    )
    assert sum(own.values()) == pytest.approx(traced_cli.root_seconds(spans))
    assert traced_cli.span_counts(spans)["config_diff"] == 2


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert traced_cli.self_times(spans)["cli"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_canonical_digest_ignores_key_order_but_not_list_order():
    digest = workloads.canonical_digest
    base = '{"outliers": ["a", "b"], "reference": "c"}'
    assert digest(base) == digest('{"reference": "c",\n  "outliers": ["a", "b"]}')
    assert digest(base) == digest(base.encode())
    assert digest(base) != digest('{"outliers": ["b", "a"], "reference": "c"}')


def _child(exit_code, stdout=b'{"x": 1}'):
    return run.ChildRun(seconds=1.0, exit_code=exit_code, max_rss_kb=1, stdout=stdout, stderr=b"")


def test_failure_accounting():
    good = {"digest": workloads.canonical_digest('{"x": 1}'), "exit_code": 1, "truth_problem": None}
    assert run.failure(_child(1), good) is None
    assert run.failure(_child(3), good) == "exit 3, expected 1"
    assert run.failure(_child(3), {**good, "exit_code": 3}) == "exit 3, expected 3"
    assert run.failure(_child(2), good) is not None
    assert run.failure(_child(0), good) == "exit 0, expected 1"
    assert run.failure(_child(-9), good) == "killed by signal 9"
    assert run.failure(_child(1, b"Traceback"), good) == "standard output is not JSON"
    assert run.failure(_child(1, b'{"x": 2}'), good) == "report differs from the reference"

    measured = run.Measurement(attempted=4, failures=["edit round 0: exit 3, expected 1"])
    measured.seconds = {"cold": [1.0], "warm": [1.0], "edit": []}
    report = run.workload_report(measured)
    assert report["end_to_end"]["fail_frac"]["median"] == 0.25
    assert not report["correct"]
    assert run.one_workload_result(measured, trace=False)["failed"] == 1


def test_verdicts_against_the_bound():
    def stats(median, q1, q3, values=None):
        return {"median": median, "q1": q1, "q3": q3, "n": 5, "values": values or [median]}

    tight = stats(1.00, 0.99, 1.01)
    assert compare.verdict(tight, stats(1.05, 1.04, 1.06), 0.10) == "unchanged"
    assert compare.verdict(tight, stats(1.20, 1.19, 1.21), 0.10) == "regressed"
    assert compare.verdict(tight, stats(1.00, 0.80, 1.30), 0.10) == "unresolved"
    assert compare.verdict(stats(1.0, 0.8, 1.3, [0.8, 1.0, 1.3]), stats(0.5, 0.4, 0.6, [0.4, 0.5, 0.6]), 0.10) == "unchanged"
    assert compare.verdict(stats(0.0, 0.0, 0.0), stats(0.2, 0.2, 0.2), 0.0) == "regressed"
    assert compare.verdict(tight, stats(1.2, 1.19, 1.21), 0.10, better="higher") == "unchanged"


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "acl_pair", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_of_each_tiny_workload(name, tmp_path):
    workloads.prepare(name, 0, tmp_path / "workload", tiny=True)
    spec = json.loads((tmp_path / "workload" / "workload.json").read_text())
    variants = tmp_path / "workload" / "variants"
    assert spec["edit_filename"] in spec["args"]
    assert (variants / "base.cfg").read_text() != (variants / "edit.cfg").read_text()

    measured = run.run_workload(name, seed=0, rounds=1, traced_rounds=1, tiny=True)
    assert measured.correct, measured.failures + measured.problems
    assert measured.attempted == 6
    assert len(measured.setup) == 3

    result = run.one_workload_result(measured, trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    traced = run.one_workload_result(measured, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    assert traced["metrics"]["cold.cache.hit_ratio"]["value"] == 0.0
    assert traced["metrics"]["warm.cache.hit_ratio"]["value"] == 1.0
