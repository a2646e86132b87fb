"""Tests for the process-parallel comparison fan-out.

The load-bearing property is *bit-for-bit determinism*: a fleet report
computed with workers must serialize identically to the serial one, on
both the university and datacenter workloads.
"""

import pytest

from repro.core import (
    compare_fleet,
    config_diff,
    diff_pairs,
    pairwise_counts,
    report_to_dict,
    report_to_json,
    resolve_timeout,
    resolve_workers,
)
from repro.workloads.datacenter import gateway_fleet
from repro.workloads.university import university_network


def fleet_as_json(report):
    return {
        "reference": report.reference,
        "matrix": sorted(report.matrix.items()),
        "reports": {
            hostname: report_to_json(pair_report)
            for hostname, pair_report in report.reports.items()
        },
    }


class TestResolveWorkers:
    def test_explicit_argument_wins(self):
        assert resolve_workers(3) == 3

    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_timeout_is_argument_or_unbounded(self):
        assert resolve_timeout(2.5) == 2.5
        assert resolve_timeout(None) is None
        with pytest.raises(ValueError):
            resolve_timeout(-1.0)


class TestParallelFleet:
    def test_datacenter_fleet_byte_identical(self):
        devices, expected_outliers = gateway_fleet(
            count=6, outliers=2, rule_count=12, seed=5
        )
        serial = compare_fleet(devices, workers=1)
        parallel = compare_fleet(devices, workers=2)
        assert fleet_as_json(serial) == fleet_as_json(parallel)
        assert set(parallel.outliers) == set(expected_outliers)

    def test_university_fleet_byte_identical(self):
        network = university_network()
        devices = [
            network.core.cisco,
            network.core.juniper,
            network.border.cisco,
            network.border.juniper,
        ]
        serial = compare_fleet(devices, workers=1)
        parallel = compare_fleet(devices, workers=2)
        assert fleet_as_json(serial) == fleet_as_json(parallel)

    def test_explicit_reference_with_workers(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=2)
        reference = devices[0].hostname
        serial = compare_fleet(devices, reference=reference, workers=1)
        parallel = compare_fleet(devices, reference=reference, workers=2)
        assert fleet_as_json(serial) == fleet_as_json(parallel)


class TestBatchHelpers:
    def test_pairwise_counts_match_config_diff(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=9)
        pairs = [(devices[0], devices[1]), (devices[1], devices[2])]
        expected = [
            config_diff(a, b).total_differences() for a, b in pairs
        ]
        assert pairwise_counts(pairs, workers=1) == expected
        assert pairwise_counts(pairs, workers=2) == expected

    def test_diff_pairs_serialized_reports(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=9)
        pairs = [(devices[0], devices[1]), (devices[2], devices[3])]
        expected = [report_to_dict(config_diff(a, b)) for a, b in pairs]
        assert diff_pairs(pairs, workers=1) == expected
        assert diff_pairs(pairs, workers=2) == expected
