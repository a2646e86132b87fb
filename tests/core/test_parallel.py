"""Tests for the per-pair matrix runner.

The load-bearing property is that each ``ok`` outcome is exactly the
pair's ``config_diff`` difference count, in input order.
"""

import pytest

from repro.core import config_diff, pairwise_count_outcomes, resolve_timeout
from repro.workloads.datacenter import gateway_fleet


class TestResolveTimeout:
    def test_timeout_is_argument_or_unbounded(self):
        assert resolve_timeout(2.5) == 2.5
        assert resolve_timeout(None) is None
        with pytest.raises(ValueError):
            resolve_timeout(-1.0)


class TestBatchHelpers:
    def test_pairwise_counts_match_config_diff(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=9)
        pairs = [(devices[0], devices[1]), (devices[1], devices[2])]
        expected = [
            config_diff(a, b).total_differences() for a, b in pairs
        ]
        outcomes = pairwise_count_outcomes(pairs)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.result for o in outcomes] == expected
