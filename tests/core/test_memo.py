"""Tests for fingerprint-keyed diff memoization."""

import pytest

from repro import perf
from repro.core import (
    DiffMemo,
    acl_key,
    compare_fleet,
    config_diff,
    config_diff_summary,
    fleet_report_to_dict,
    report_to_dict,
)
from repro.workloads.datacenter import gateway_fleet
from repro.workloads.figure1 import figure1_devices


class TestDiffMemoTable:
    def test_get_put_roundtrip(self):
        memo = DiffMemo()
        key = acl_key("fp1", "fp2")
        assert memo.get(key) is None
        entry = {"count": 0, "semantic": [], "structural": []}
        memo.put(key, entry)
        assert memo.get(key) == entry
        assert key in memo
        assert len(memo) == 1

    def test_first_write_wins(self):
        memo = DiffMemo()
        key = acl_key("fp1", "fp2")
        memo.put(key, {"count": 0})
        memo.put(key, {"count": 99})
        assert memo.get(key) == {"count": 0}


class TestConfigDiffParity:
    def test_summary_matches_report_without_memo(self):
        device1, device2 = figure1_devices()
        report = config_diff(device1, device2)
        assert config_diff_summary(device1, device2) == report.total_differences()

    def test_memoized_report_identical_to_fresh(self):
        device1, device2 = figure1_devices()
        fresh = config_diff(device1, device2)
        memo = DiffMemo()
        cold = config_diff_summary(device1, device2, memo=memo)
        warm = config_diff_summary(device1, device2, memo=memo)
        live = config_diff(device1, device2, memo=memo)
        assert cold == warm == fresh.total_differences()
        assert report_to_dict(live) == report_to_dict(fresh)

    def test_warm_summary_replays_from_memo(self):
        device1, device2 = figure1_devices()
        memo = DiffMemo()
        config_diff_summary(device1, device2, memo=memo)
        perf.reset()
        config_diff_summary(device1, device2, memo=memo)
        counters = perf.snapshot()["counters"]
        assert counters.get("memo.hits", 0) > 0
        assert counters.get("memo.misses", 0) == 0

    def test_self_comparison_is_all_hits_after_warmup(self):
        device1, _ = figure1_devices()
        memo = DiffMemo()
        assert config_diff_summary(device1, device1, memo=memo) == 0
        assert config_diff_summary(device1, device1, memo=memo) == 0


class TestFleetMemoIdentity:
    @pytest.fixture(scope="class")
    def fleet(self):
        return gateway_fleet(count=5, outliers=2, rule_count=10, seed=4)

    def test_memoized_fleet_identical_to_baseline(self, fleet):
        devices, expected = fleet
        baseline = compare_fleet(devices, use_memo=False)
        memoized = compare_fleet(devices)
        assert fleet_report_to_dict(baseline) == fleet_report_to_dict(memoized)
        assert memoized.outliers == expected

    def test_fleet_records_memo_hits(self, fleet):
        devices, _ = fleet
        perf.reset()
        compare_fleet(devices)
        counters = perf.snapshot()["counters"]
        assert counters.get("memo.hits", 0) > 0
        assert counters.get("memo.stores", 0) > 0

    def test_shared_memo_spans_runs(self, fleet):
        devices, _ = fleet
        memo = DiffMemo()
        first = compare_fleet(devices, memo=memo)
        perf.reset()
        second = compare_fleet(devices, memo=memo)
        counters = perf.snapshot()["counters"]
        assert counters.get("memo.stores", 0) == 0  # everything replayed
        assert fleet_report_to_dict(first) == fleet_report_to_dict(second)
