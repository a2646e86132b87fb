"""Tests for n-way fleet comparison and outlier detection."""

import importlib
import random
from unittest import mock

import pytest

from repro import perf
from repro.bdd import AnalysisBudgetExceeded
from repro.core import compare_fleet, fleet_report_to_dict
from repro.core.fleet import FleetReport, _elect_medoid
from repro.parsers import parse_cisco
from repro.workloads.datacenter import gateway_fleet, parameterized_clos_fleet
from repro.workloads.figure1 import CISCO_FIGURE1


def _named(text, hostname):
    return parse_cisco(text.replace("hostname cisco_router", f"hostname {hostname}"), f"{hostname}.cfg")


class TestValidation:
    def test_needs_two_devices(self):
        with pytest.raises(ValueError):
            compare_fleet([_named(CISCO_FIGURE1, "a")])

    def test_unique_hostnames_required(self):
        with pytest.raises(ValueError):
            compare_fleet([_named(CISCO_FIGURE1, "a"), _named(CISCO_FIGURE1, "a")])

    def test_unknown_reference_rejected(self):
        fleet = [_named(CISCO_FIGURE1, "a"), _named(CISCO_FIGURE1, "b")]
        with pytest.raises(ValueError):
            compare_fleet(fleet, reference="zz")


class TestIdenticalFleet:
    def test_no_outliers(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b", "c")]
        report = compare_fleet(fleet)
        assert report.outliers == []
        assert set(report.conforming) == {"b", "c"} or set(report.conforming) == set(
            report.hostnames
        ) - {report.reference}

    def test_matrix_all_zero(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b", "c")]
        report = compare_fleet(fleet)
        assert all(count == 0 for count in report.matrix.values())


class TestMedoidElection:
    def test_tie_breaks_to_smallest_hostname(self):
        survivors = {"c": [1, 1], "a": [1, 1], "b": [1, 1]}
        assert _elect_medoid(["c", "a", "b"], survivors) == "a"

    def test_insertion_order_never_matters(self):
        # Parallel completion order feeds candidate/survivor dicts in
        # arbitrary order; the elected reference must not move.
        survivors = {"d": [2, 0], "b": [1, 1], "a": [0, 2], "c": [1, 1]}
        candidates = list(survivors)
        rng = random.Random(0)
        elected = {
            _elect_medoid(shuffled, dict(sorted(survivors.items())))
            for shuffled in (
                rng.sample(candidates, len(candidates)) for _ in range(10)
            )
        }
        # All four means tie at 1; "a" wins every shuffle.
        assert elected == {"a"}

    def test_exact_means_not_float_rounding(self):
        # Equal exact means with different survivor counts must tie
        # (and break by hostname), which Fraction guarantees.
        survivors = {"b": [1, 2], "a": [3, 0], "c": [9]}
        assert _elect_medoid(["b", "a", "c"], survivors) == "a"

    def test_smaller_mean_beats_hostname(self):
        survivors = {"a": [5, 5], "z": [0, 0]}
        assert _elect_medoid(["a", "z"], survivors) == "z"

    def test_identical_fleet_elects_smallest_hostname(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("c", "a", "b")]
        assert compare_fleet(fleet).reference == "a"


class TestOutlierDetection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_outliers_found_exactly(self, seed):
        devices, expected = gateway_fleet(count=6, outliers=2, seed=seed)
        report = compare_fleet(devices)
        assert report.outliers == expected

    def test_medoid_is_a_conforming_device(self):
        devices, expected = gateway_fleet(count=6, outliers=2, seed=0)
        report = compare_fleet(devices)
        assert report.reference not in expected

    def test_cross_vendor_fleet_clean_when_equivalent(self):
        devices, _ = gateway_fleet(count=4, outliers=0, seed=5)
        report = compare_fleet(devices)
        assert report.outliers == []

    def test_explicit_reference(self):
        devices, expected = gateway_fleet(count=5, outliers=1, seed=1)
        conforming = next(d.hostname for d in devices if d.hostname not in expected)
        report = compare_fleet(devices, reference=conforming)
        assert report.reference == conforming
        assert report.outliers == expected

    def test_outlier_reports_carry_localization(self):
        devices, expected = gateway_fleet(count=4, outliers=1, seed=2)
        report = compare_fleet(devices)
        outlier_report = report.reports[expected[0]]
        assert outlier_report.semantic
        difference = outlier_report.semantic[0]
        # The deviation is the appended 192.0.2.x permit rule.
        # compare_fleet runs the full ConfigDiff pipeline, so Present's
        # ACL header localizations are attached.
        dst = difference.extra_localizations.get("dstIp")
        assert dst is not None

    def test_pair_count_symmetry(self):
        devices, _ = gateway_fleet(count=4, outliers=1, seed=3)
        report = compare_fleet(devices)
        for first in report.hostnames:
            for second in report.hostnames:
                if first == second:
                    continue
                key = (min(first, second), max(first, second))
                if key in report.matrix:
                    assert report.pair_count(first, second) == report.pair_count(
                        second, first
                    )

    def test_render_summary(self):
        devices, expected = gateway_fleet(count=4, outliers=1, seed=0)
        report = compare_fleet(devices)
        summary = report.render_summary()
        assert "fleet of 4" in summary
        assert expected[0] in summary

    def test_render_summary_evaluates_each_property_once(self):
        # outliers/conforming/failed each walk every report; the summary
        # must bind them once, not recompute per use (the old version
        # re-evaluated the properties in every f-string).
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=0)
        report = compare_fleet(devices)
        with mock.patch.object(
            FleetReport,
            "outliers",
            new_callable=mock.PropertyMock,
            return_value=report.outliers,
        ) as outliers, mock.patch.object(
            FleetReport,
            "conforming",
            new_callable=mock.PropertyMock,
            return_value=report.conforming,
        ) as conforming, mock.patch.object(
            FleetReport,
            "failed",
            new_callable=mock.PropertyMock,
            return_value=[],
        ) as failed:
            report.render_summary()
        assert outliers.call_count == 1
        assert conforming.call_count == 1
        assert failed.call_count == 1


class TestPairCountErrors:
    REPORT = FleetReport(
        reference="a",
        hostnames=["a", "b", "c"],
        matrix={("a", "b"): 1},
        failed_pairs={("b", "c"): "timeout: too slow"},
    )

    def test_order_insensitive_lookup(self):
        assert self.REPORT.pair_count("a", "b") == 1
        assert self.REPORT.pair_count("b", "a") == 1

    def test_unknown_hostname_names_it_and_the_fleet(self):
        with pytest.raises(KeyError) as excinfo:
            self.REPORT.pair_count("a", "zz")
        message = str(excinfo.value)
        assert "no such device(s) in the fleet: zz" in message
        assert "a, b, c" in message

    def test_both_unknown_hostnames_listed_sorted(self):
        with pytest.raises(KeyError) as excinfo:
            self.REPORT.pair_count("zz", "mm")
        assert "no such device(s) in the fleet: mm, zz" in str(excinfo.value)

    def test_failed_pair_includes_recorded_cause(self):
        with pytest.raises(KeyError) as excinfo:
            self.REPORT.pair_count("c", "b")
        message = str(excinfo.value)
        assert "comparison failed" in message
        assert "timeout: too slow" in message

    def test_same_device_is_not_a_pair(self):
        with pytest.raises(KeyError) as excinfo:
            self.REPORT.pair_count("a", "a")
        assert "is one device, not a pair" in str(excinfo.value)

    def test_uncompared_pair_says_so(self):
        with pytest.raises(KeyError) as excinfo:
            self.REPORT.pair_count("a", "c")
        assert "was not compared" in str(excinfo.value)

    def test_explicit_reference_leaves_non_reference_pairs_uncompared(self):
        devices, _ = gateway_fleet(count=4, outliers=0, rule_count=8, seed=1)
        hostnames = sorted(device.hostname for device in devices)
        report = compare_fleet(devices, reference=hostnames[0])
        with pytest.raises(KeyError, match="was not compared"):
            report.pair_count(hostnames[1], hostnames[2])


class TestBudgetAbortedPairs:
    """A matrix pair whose analysis a budget aborts has no count: it
    fails (without a retry) instead of counting the aborted component
    as zero differences, and the medoid is elected over the rest."""

    @pytest.fixture(scope="class")
    def fleet(self):
        devices, _ = gateway_fleet(count=4, outliers=3, rule_count=24, seed=0)
        return devices

    @pytest.mark.parametrize("compress", ["off", "near"])
    def test_every_pair_aborted_is_no_verdict(self, fleet, compress):
        # Unbudgeted, the six pairs count 1 or 2 differences; at 50
        # nodes every one of them aborts on ACL GW_POLICY.
        with pytest.raises(RuntimeError, match="all 6 pairwise comparisons failed"):
            compare_fleet(fleet, node_limit=50, compress=compress)

    @pytest.mark.parametrize("compress", ["off", "near"])
    def test_aborted_pairs_fail_and_survivors_elect(self, fleet, compress):
        perf.reset()
        report = compare_fleet(fleet, node_limit=300, compress=compress)
        aborted = {("gw0", "gw2"), ("gw0", "gw3"), ("gw2", "gw3")}
        assert set(report.failed_pairs) == aborted
        for cause in report.failed_pairs.values():
            assert cause == (
                "error: PairAborted: [ACLs] ACL GW_POLICY: analysis aborted:"
                " analysis budget exceeded (nodes): 300 nodes allocated,"
                " limit 300"
            )
        # A node-limit abort recurs exactly, so it is not retried.
        assert "parallel.retries" not in perf.snapshot()["counters"]
        # Only gw1's pairs survive, each with its one difference; gw0
        # and gw1 tie on a mean of 1 and the hostname breaks the tie.
        assert report.matrix == {
            ("gw0", "gw1"): 1,
            ("gw1", "gw2"): 1,
            ("gw1", "gw3"): 1,
        }
        assert report.reference == "gw0"
        assert report.is_partial()


class TestBudgetAbortsUnderNearSymmetry:
    """On a templated fleet one budget-aborted representative pair
    stands for many fleet pairs: they fail with its cause, and no
    aborted component is analyzed twice in the run."""

    @pytest.fixture(scope="class")
    def fleet(self):
        devices, _ = parameterized_clos_fleet(
            count=12, roles=3, rule_count=8, seed=0
        )
        return devices

    def _aborting_diffs(self, monkeypatch):
        """Patch ConfigDiff's ACL diff to list each call that aborts."""
        module = importlib.import_module("repro.core.config_diff")
        real = module.diff_acls
        aborted = []

        def recording(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except AnalysisBudgetExceeded:
                aborted.append(args[:2])
                raise

        monkeypatch.setattr(module, "diff_acls", recording)
        return aborted

    def test_replaying_pairs_fail_without_fallback(self, fleet, monkeypatch):
        aborted = self._aborting_diffs(monkeypatch)
        perf.reset()
        report = compare_fleet(fleet, node_limit=1000)
        counters = perf.snapshot()["counters"]
        # 6 representative pairs stand for all 66; the 3 cross-role
        # ones abort on the role ACL, and the 48 fleet pairs they stand
        # for fail with that cause instead of being analyzed one by one.
        assert report.symmetry.analyzed_pairs == 6
        assert report.symmetry.fallback_pairs == 0
        assert "near_symmetry.fallbacks" not in counters
        assert counters["parallel.errors"] == 3
        assert len(report.failed_pairs) == 48
        assert len(report.matrix) == 18  # every same-role pair
        for cause in report.failed_pairs.values():
            assert cause.startswith("error: PairAborted: [ACLs] ACL PCLOS_POLICY_")
            assert "limit 1000" in cause
        # Each aborting ACL pair ran to the budget once; the reference
        # reports replayed the remembered aborts.
        assert len(aborted) == 6
        assert counters["memo.abort_replays"] > 0
        assert report.is_partial()

    def test_same_report_as_uncompressed(self, fleet, monkeypatch):
        aborted = self._aborting_diffs(monkeypatch)
        near = fleet_report_to_dict(compare_fleet(fleet, node_limit=1000))
        near_aborts = len(aborted)
        off = fleet_report_to_dict(
            compare_fleet(fleet, node_limit=1000, compress="off")
        )
        near.pop("symmetry", None)
        off.pop("symmetry", None)
        assert near == off
        # Uncompressed, all 66 pairs run, yet each aborting ACL pair
        # still runs to the budget once per orientation (memo keys are
        # ordered): 3 role pairs x 2 ACLs, both ways round.
        assert near_aborts == 6
        assert len(aborted) - near_aborts == 2 * near_aborts
