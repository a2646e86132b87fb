"""Tests for the per-pair matrix runner.

The load-bearing property is that each ``ok`` outcome is exactly the
pair's ``config_diff`` difference count, in input order.
"""

import pytest

from repro.core import (
    compare_fleet,
    config_diff,
    pairwise_count_outcomes,
    resolve_node_limit,
    resolve_timeout,
)
from repro.workloads.datacenter import gateway_fleet


class TestResolveTimeout:
    def test_timeout_is_argument_or_unbounded(self):
        assert resolve_timeout(2.5) == 2.5
        assert resolve_timeout(None) is None
        with pytest.raises(ValueError):
            resolve_timeout(-1.0)

    def test_nan_timeout_is_rejected(self):
        with pytest.raises(ValueError, match="must be positive, got nan"):
            resolve_timeout(float("nan"))

    def test_node_limit_covers_the_terminals(self):
        assert resolve_node_limit(2) == 2
        assert resolve_node_limit(None) is None
        for bad in (1, 0, -5):
            with pytest.raises(ValueError, match="must be at least 2"):
                resolve_node_limit(bad)

    @pytest.mark.parametrize(
        "budget", [{"timeout": float("nan")}, {"node_limit": 0}]
    )
    def test_compare_fleet_rejects_invalid_budget(self, budget):
        devices, _ = gateway_fleet(count=3, outliers=1, rule_count=6, seed=1)
        with pytest.raises(ValueError):
            compare_fleet(devices, **budget)


class TestBatchHelpers:
    def test_pairwise_counts_match_config_diff(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=9)
        pairs = [(devices[0], devices[1]), (devices[1], devices[2])]
        expected = [
            config_diff(a, b).total_differences() for a, b in pairs
        ]
        outcomes = pairwise_count_outcomes(pairs)
        assert [o.ok for o in outcomes] == [True, True]
        assert [o.result for o in outcomes] == expected
