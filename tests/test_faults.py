"""Fault-injection tests for the robustness layer.

Exercises the failure paths the happy-path suites never reach: pair
analyses that raise, stanzas the parsers cannot model (strict vs
lenient), and BDD analyses that blow through their node budget.  Pair
faults are injected by monkeypatching ``_count_pair`` in
:mod:`repro.core.parallel`, the one pair-counting seam, which the
matrix looks up at call time for the first attempt and the retry
alike.
"""

import random

import pytest

from repro import perf
from repro.bdd import AnalysisBudgetExceeded
from repro.core import compare_fleet, config_diff
from repro.core import parallel
from repro.core.config_diff import PairAborted
from repro.model.types import ConfigError
from repro.parsers import parse_cisco
from repro.workloads.acl_gen import random_rules, render_cisco_acl
from repro.workloads.datacenter import gateway_fleet, parameterized_clos_fleet
from repro.workloads.figure1 import CISCO_FIGURE1, figure1_devices


def crash_everywhere(device1, device2, **options):
    raise RuntimeError("injected crash")


class TestCrashingWorker:
    def test_crash_isolated_per_pair(self, monkeypatch):
        """One poisoned pair fails alone; the rest of the batch survives."""
        real = parallel._count_pair
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=6, seed=3)

        def poisoned(device1, device2, **options):
            if {device1.hostname, device2.hostname} == {
                devices[0].hostname,
                devices[1].hostname,
            }:
                raise RuntimeError("injected crash")
            return real(device1, device2, **options)

        monkeypatch.setattr(parallel, "_count_pair", poisoned)
        pairs = [(devices[0], devices[1]), (devices[1], devices[2]), (devices[2], devices[3])]
        outcomes = parallel.pairwise_count_outcomes(pairs)
        assert [o.ok for o in outcomes] == [False, True, True]
        assert "injected crash" in outcomes[0].error
        assert outcomes[0].retried  # the automatic retry ran and also failed
        assert all(isinstance(o.result, int) for o in outcomes[1:])

    def test_transient_crash_healed_by_retry(self, monkeypatch):
        """A crash on a pair's first attempt only (e.g. environmental)
        succeeds on the retry."""
        real = parallel._count_pair
        seen = set()

        def first_attempt_crash(device1, device2, **options):
            pair = (device1.hostname, device2.hostname)
            if pair not in seen:
                seen.add(pair)
                raise RuntimeError("injected crash")
            return real(device1, device2, **options)

        monkeypatch.setattr(parallel, "_count_pair", first_attempt_crash)
        d1, d2 = figure1_devices()
        outcomes = parallel.pairwise_count_outcomes([(d1, d2), (d2, d1)])
        assert all(o.ok and o.retried for o in outcomes)
        assert [o.result for o in outcomes] == [
            config_diff(d1, d2).total_differences()
        ] * 2

    def test_retry_disabled(self, monkeypatch):
        """Retry is disabled for a budget abort: the abort is the
        answer to the budget the pair was given."""
        calls = []

        def aborted(device1, device2, **options):
            calls.append(device1.hostname)
            raise PairAborted("budget spent")

        monkeypatch.setattr(parallel, "_count_pair", aborted)
        d1, d2 = figure1_devices()
        outcomes = parallel.pairwise_count_outcomes([(d1, d2)] * 2)
        assert len(calls) == 2  # one attempt per pair
        assert all(o.aborted and not o.retried for o in outcomes)
        assert outcomes[0].describe() == "error: PairAborted: budget spent"

    def test_serial_path_isolates_failures_too(self, monkeypatch):
        monkeypatch.setattr(parallel, "_count_pair", crash_everywhere)
        d1, d2 = figure1_devices()
        outcomes = parallel.pairwise_count_outcomes([(d1, d2)])
        assert not outcomes[0].ok
        assert outcomes[0].describe() == (
            "error: RuntimeError: injected crash (after retry)"
        )


class TestFleetFaults:
    def test_six_device_fleet_survives_crash_and_timeout(self, monkeypatch):
        """A pair that fails on its retry too, in a 6-device fleet run
        under a time budget, still yields a medoid from the surviving
        pairs and lists the failed pair with its cause."""
        real = parallel._count_pair
        devices, expected_outliers = gateway_fleet(
            count=6, outliers=2, rule_count=8, seed=5
        )
        names = sorted(d.hostname for d in devices)
        # Fail the pair between the two lexicographically-last devices:
        # it cannot involve the medoid, so the reference phase never
        # recomputes (and heals) it.
        doomed = {names[-1], names[-2]}

        def faulty(device1, device2, **options):
            if {device1.hostname, device2.hostname} == doomed:
                raise RuntimeError("injected crash")
            return real(device1, device2, **options)

        # compress="off": the injected fault targets *hostnames*, which
        # symmetry compression would reroute through class
        # representatives (gateway clones share a fingerprint class).
        monkeypatch.setattr(parallel, "_count_pair", faulty)
        report = compare_fleet(devices, timeout=30.0, compress="off")
        assert report.is_partial()
        assert list(report.failed_pairs) == [tuple(sorted(doomed))]
        assert list(report.failed_pairs.values()) == [
            "error: RuntimeError: injected crash (after retry)"
        ]
        assert report.reference not in doomed
        # every other device still got a full reference report
        assert set(report.reports) == set(names) - {report.reference}
        assert set(report.outliers) == set(expected_outliers)

    def test_fleet_all_pairs_failed(self, monkeypatch):
        monkeypatch.setattr(parallel, "_count_pair", crash_everywhere)
        devices, _ = gateway_fleet(count=3, outliers=0, rule_count=6, seed=1)
        # compress="off": with compression the conforming clones' intra-
        # class pairs expand to 0 without running _count_pair, so not
        # every pair can fail.
        with pytest.raises(RuntimeError, match="all 3 pairwise"):
            compare_fleet(devices, compress="off")

    def test_near_all_pairs_failed_counts_fallback_pairs(self, monkeypatch):
        """Under near compression the one analyzed pair fails, its 9
        member pairs fall back and fail too: the message counts all 10
        analyzed pairs of the fleet's 10, not the 1 planned pair."""
        devices, _ = parameterized_clos_fleet(
            count=5, roles=1, rule_count=4, seed=0
        )
        doomed = {device.hostname for device in devices}
        real = parallel._count_pair

        def faulty(device1, device2, **options):
            if {device1.hostname, device2.hostname} <= doomed:
                raise RuntimeError("injected crash")
            return real(device1, device2, **options)

        monkeypatch.setattr(parallel, "_count_pair", faulty)
        with pytest.raises(RuntimeError) as excinfo:
            compare_fleet(devices, compress="near")
        assert str(excinfo.value) == (
            "fleet comparison failed: all 10 pairwise comparisons failed"
            " (10 analyzed of 10 fleet pairs, 9 of them near-symmetry"
            " fallbacks)"
        )

    def test_fleet_reference_phase_failure_is_recorded(self, monkeypatch):
        from repro.core import fleet as fleet_module

        devices, _ = gateway_fleet(count=3, outliers=0, rule_count=6, seed=1)
        names = sorted(d.hostname for d in devices)
        real = fleet_module.config_diff

        def faulty(d1, d2, **kwargs):
            if d2.hostname == names[-1]:
                raise RuntimeError("reference diff crashed")
            return real(d1, d2, **kwargs)

        monkeypatch.setattr(fleet_module, "config_diff", faulty)
        report = compare_fleet(devices)
        assert report.failed == [names[-1]]
        assert "reference diff crashed" in report.failed_reports[names[-1]]
        assert report.is_partial()
        assert names[-1] not in report.outliers + report.conforming
        assert "comparison failed" in report.render_summary()


class TestLenientParsing:
    BROKEN = CISCO_FIGURE1 + "\nroute-map BROKEN permit\n match ip address prefix-list\n"

    def test_strict_raises(self):
        with pytest.raises(ConfigError, match="route-map"):
            parse_cisco(self.BROKEN, "r.cfg", strict=True)

    def test_lenient_records_and_skips(self):
        device = parse_cisco(self.BROKEN, "r.cfg", strict=False)
        assert device.parse_degraded()
        assert "BROKEN" not in device.route_maps
        assert "POL" in device.route_maps  # healthy stanzas unaffected
        (diagnostic,) = device.parse_errors()
        assert diagnostic.span.start_line > 0
        assert diagnostic.span.filename == "r.cfg"
        assert "route-map" in diagnostic.reason

    def test_lenient_pair_report_flags_degraded(self):
        device1 = parse_cisco(self.BROKEN, "r1.cfg")
        device2 = parse_cisco(
            self.BROKEN.replace("hostname cisco_router", "hostname other"),
            "r2.cfg",
        )
        report = config_diff(device1, device2)
        assert report.is_degraded()
        assert set(report.parse_diagnostics) == {"cisco_router", "other"}


class TestNodeLimit:
    def _big_acl_device(self, hostname, seed, rules=10_000):
        text = render_cisco_acl(
            "GW_POLICY", random_rules(rules, random.Random(seed)), hostname=hostname
        )
        return parse_cisco(text, f"{hostname}.cfg")

    def test_engine_raises_structured_error(self):
        device1 = self._big_acl_device("gw1", seed=1)
        device2 = self._big_acl_device("gw2", seed=2)
        from repro.core import diff_acls

        with pytest.raises(AnalysisBudgetExceeded) as excinfo:
            diff_acls(
                device1.acls["GW_POLICY"],
                device2.acls["GW_POLICY"],
                "gw1",
                "gw2",
                node_limit=2_000,
            )
        assert excinfo.value.resource == "nodes"
        assert excinfo.value.limit == 2_000

    def test_config_diff_aborts_only_offending_component(self):
        device1 = self._big_acl_device("gw1", seed=1)
        device2 = self._big_acl_device("gw2", seed=2)
        report = config_diff(device1, device2, node_limit=2_000)
        assert report.is_degraded()
        (aborted,) = report.aborted
        assert "GW_POLICY" in aborted.component
        assert aborted.resource == "nodes"
        assert not report.is_equivalent()  # verdict unknown, not "equivalent"

    def test_generous_limit_does_not_trip(self):
        d1, d2 = figure1_devices()
        unbudgeted = config_diff(d1, d2)
        budgeted = config_diff(d1, d2, node_limit=1_000_000)
        assert not budgeted.aborted
        assert budgeted.total_differences() == unbudgeted.total_differences()


class TestFleetAtomsFaults:
    """Fault paths of fleet-scale seeding on the default path: a
    component that cannot be atomized falls back to per-pair atoms and
    must degrade, never corrupt the report."""

    def _fleet(self, seed=7):
        return gateway_fleet(count=4, outliers=1, rule_count=8, seed=seed)

    def _baseline(self, devices):
        from repro.core.serialize import fleet_report_to_dict

        return fleet_report_to_dict(
            compare_fleet(devices, use_memo=False)
        )

    def test_atom_budget_fallback_keeps_report_intact(self, monkeypatch):
        from repro.bdd import atoms
        from repro.core.serialize import fleet_report_to_dict

        devices, expected = self._fleet()
        baseline = self._baseline(devices)
        monkeypatch.setattr(atoms, "default_atom_budget", lambda n1, n2: 2)
        base = perf.REGISTRY.counters.get("fleet_atoms.budget_fallbacks", 0)
        report = compare_fleet(devices)
        assert (
            perf.REGISTRY.counters.get("fleet_atoms.budget_fallbacks", 0)
            > base
        )
        # The fallback is a perf counter only: no note, same bytes.
        assert fleet_report_to_dict(report) == baseline
        assert set(report.outliers) == set(expected)

    def test_coverage_guard_fallback_keeps_report_intact(self, monkeypatch):
        from repro.bdd.fleet_atoms import UniverseCoverageError
        from repro.core import fleet_atoms as fleet_atoms_module
        from repro.core.serialize import fleet_report_to_dict

        devices, expected = self._fleet()
        baseline = self._baseline(devices)

        def tripped(acls):
            raise UniverseCoverageError("injected coverage hole")

        monkeypatch.setattr(fleet_atoms_module, "_fold", tripped)
        base = perf.REGISTRY.counters.get("fleet_atoms.budget_fallbacks", 0)
        report = compare_fleet(devices)
        assert (
            perf.REGISTRY.counters.get("fleet_atoms.budget_fallbacks", 0)
            > base
        )
        assert fleet_report_to_dict(report) == baseline
        assert set(report.outliers) == set(expected)
