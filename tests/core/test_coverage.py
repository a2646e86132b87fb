"""Tests for per-device configuration coverage (schema v4).

Coverage answers the NetCov-style question for a fleet run: which
policy-defining lines actually participated in some localized
difference, and which policies the run had nothing to say about.  It is
a pure function of the finished report plus the parsed devices, so it
must be identical across compression, memoization, and worker knobs.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.core import compare_fleet
from repro.core import fleet_report_to_dict
from repro.core.coverage import compute_fleet_coverage, policy_spans
from repro.core.replay import provenance_digest
from repro.model import spans as spans_module
from repro.model.spans import walk_spans
from repro.model.types import SourceSpan
from repro.parsers import parse_cisco
from repro.workloads.datacenter import gateway_fleet
from repro.workloads.figure1 import figure1_devices


@pytest.fixture(scope="module")
def fleet():
    devices, expected = gateway_fleet(
        count=6, outliers=2, rule_count=12, seed=0
    )
    return devices, expected, compare_fleet(devices)


class TestExercisedLines:
    def test_every_device_covered(self, fleet):
        devices, _, report = fleet
        assert sorted(report.coverage) == report.hostnames

    def test_outliers_have_exercised_lines(self, fleet):
        _, expected, report = fleet
        for hostname in expected:
            assert report.coverage[hostname].exercised_lines > 0

    def test_reference_untouched_by_appended_rule_deviations(self, fleet):
        # The injected deviation is a rule appended on the outlier only;
        # the reference side of that difference region has no matching
        # lines (empty span), so reference coverage correctly stays 0 —
        # the differing configuration text lives on the outliers.
        _, expected, report = fleet
        assert expected, "fixture must inject outliers"
        assert report.coverage[report.reference].exercised_lines == 0

    def test_conforming_devices_have_zero_exercised_lines(self, fleet):
        _, _, report = fleet
        for hostname in report.conforming:
            coverage = report.coverage[hostname]
            assert coverage.exercised_lines == 0
            # ... and every policy is listed as untouched.
            assert len(coverage.unexercised) == len(coverage.policies)

    def test_exercised_is_subset_of_policy_lines(self, fleet):
        _, _, report = fleet
        for coverage in report.coverage.values():
            for policy in coverage.policies:
                assert set(policy.exercised) <= set(policy.lines)
                assert list(policy.exercised) == sorted(policy.exercised)
                assert list(policy.lines) == sorted(policy.lines)
            assert coverage.policy_lines >= coverage.exercised_lines


class TestInvarianceAcrossKnobs:
    def test_identical_across_compression_and_memo(self, fleet):
        devices, _, report = fleet
        baseline = {
            hostname: coverage.to_dict()
            for hostname, coverage in report.coverage.items()
        }
        for kwargs in (
            {"compress": "off"},
            {"compress": "near", "use_memo": False},
        ):
            other = compare_fleet(devices, **kwargs)
            fresh = {
                hostname: coverage.to_dict()
                for hostname, coverage in other.coverage.items()
            }
            assert fresh == baseline, f"coverage diverged under {kwargs}"


class TestUnmatchedPolicies:
    BASE = (
        "hostname {host}\n"
        "!\n"
        "ip access-list extended COMMON\n"
        " permit tcp 10.0.0.0 0.0.0.255 any eq 80\n"
        " deny ip any any\n"
        "!\n"
    )
    EXTRA = (
        "ip access-list extended ONLY_A\n"
        " permit udp 192.0.2.0 0.0.0.255 any eq 53\n"
        " deny ip any any\n"
        "!\n"
    )

    def test_unmatched_policy_is_wholly_exercised(self):
        device_a = parse_cisco(
            self.BASE.format(host="a") + self.EXTRA, "a.cfg"
        )
        device_b = parse_cisco(self.BASE.format(host="b"), "b.cfg")
        report = compare_fleet([device_a, device_b])
        only = next(
            policy
            for policy in report.coverage["a"].policies
            if policy.name == "ONLY_A"
        )
        # The policy's existence is the difference: no differing-line
        # pair to point at, so every defining line counts as exercised.
        assert only.lines
        assert only.exercised == only.lines
        assert only.is_exercised
        # The shared ACL is identical on both sides and stays untouched.
        common = next(
            policy
            for policy in report.coverage["b"].policies
            if policy.name == "COMMON"
        )
        assert common.exercised == ()
        assert "acl ONLY_A" not in report.coverage["a"].unexercised


class TestPolicySpans:
    def test_spans_name_every_policy_with_lines(self, fleet):
        devices, _, _ = fleet
        device = devices[0]
        spans = policy_spans(device)
        names = [(kind, name) for kind, name, _ in spans]
        assert names == sorted(names, key=lambda item: (item[0], item[1]))
        assert {name for _, name, _ in spans} == set(device.acls) | set(
            device.route_maps
        )
        for _, _, lines in spans:
            assert lines, "every generated policy has source lines"


def _reflective_walk(value):
    """The generic reflective span walk, kept as the reference: it asks
    ``dataclasses`` about every object it visits."""
    if isinstance(value, SourceSpan):
        if not value.is_empty():
            yield value
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _reflective_walk(getattr(value, field.name))
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from _reflective_walk(item)
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _reflective_walk(item)


def _reflective_policy_spans(device):
    return [
        (
            kind,
            name,
            frozenset(
                number
                for span in _reflective_walk(policies[name])
                if span.filename == device.filename and span.start_line > 0
                for number in range(span.start_line, span.end_line + 1)
            ),
        )
        for kind, policies in (
            ("acl", device.acls),
            ("route-map", device.route_maps),
        )
        for name in sorted(policies)
    ]


class TestSpanWalker:
    ACL_A = (
        "hostname a\n!\n"
        "ip access-list extended EDGE\n"
        " permit tcp 10.0.0.0 0.0.0.255 any eq 80\n"
        " permit udp 192.0.2.0 0.0.0.255 any eq 53\n"
        " deny ip any any\n!\n"
    )
    ACL_B = (
        "hostname b\n!\n"
        "ip access-list extended EDGE\n"
        " permit tcp 10.0.0.0 0.0.0.255 any eq 443\n"
        " deny ip any any\n!\n"
    )

    def test_provenance_digests_are_pinned(self):
        # Persisted localized cache entries are keyed by these digests,
        # which hash the spans the parsers seal on each device, in walk
        # order: a reordered walk must fail here rather than silently
        # orphan every stored entry.
        a = parse_cisco(self.ACL_A, "a.cfg")
        b = parse_cisco(self.ACL_B, "b.cfg")
        assert provenance_digest(
            a.reachable_spans[("acl", "EDGE")],
            b.reachable_spans[("acl", "EDGE")],
            "ACL EDGE",
            "EDGE",
            "EDGE",
        ) == "fdfa47dfea2f2e5375066695819ca58311bf394b107bfcf555d98e710e874662"
        cisco, juniper = figure1_devices()
        assert provenance_digest(
            cisco.reachable_spans[("route-map", "POL")],
            juniper.reachable_spans[("route-map", "POL")],
            "BGP neighbor 10.255.0.1 out",
            "POL",
            "POL",
        ) == "0c5c3dd6bc4db30389343ac10cc53db62af19286a8f5e3ba72bb165561ca4fa2"

    def test_policy_spans_equal_reflective_walk(self, fleet):
        devices, _, _ = fleet
        for device in [*devices, *figure1_devices()]:
            assert policy_spans(device) == _reflective_policy_spans(device)
            for policy in [*device.acls.values(), *device.route_maps.values()]:
                assert walk_spans(policy) == list(_reflective_walk(policy))

    def test_fields_read_once_per_type_across_fleet_coverage(
        self, fleet, monkeypatch
    ):
        # The walk runs when the parser seals a device, so rebuild every
        # device's span table here from an empty type table.
        devices, _, _ = fleet
        monkeypatch.setattr(spans_module, "_CHILDREN", {})
        calls = Counter()
        real_fields = dataclasses.fields

        def counting_fields(class_or_instance):
            calls[
                class_or_instance
                if isinstance(class_or_instance, type)
                else type(class_or_instance)
            ] += 1
            return real_fields(class_or_instance)

        monkeypatch.setattr(dataclasses, "fields", counting_fields)
        for device in devices:
            assert spans_module.reachable_span_table(device) == device.reachable_spans
        assert calls, "the walk met no dataclass"
        assert max(calls.values()) == 1, calls


class TestDeterminism:
    def test_to_dict_json_roundtrip_and_order(self, fleet):
        _, _, report = fleet
        for coverage in report.coverage.values():
            data = coverage.to_dict()
            assert json.loads(json.dumps(data)) == data
            names = [policy["name"] for policy in data["policies"]]
            assert names == sorted(names)

    def test_recompute_is_pure(self, fleet):
        devices, _, report = fleet
        by_name = {device.hostname: device for device in devices}
        recomputed = compute_fleet_coverage(by_name, report)
        assert {
            hostname: coverage.to_dict()
            for hostname, coverage in recomputed.items()
        } == {
            hostname: coverage.to_dict()
            for hostname, coverage in report.coverage.items()
        }

    def test_render_mentions_counts(self, fleet):
        _, _, report = fleet
        rendered = report.render_coverage()
        assert rendered.startswith("configuration coverage")
        for hostname in report.hostnames:
            assert hostname in rendered
