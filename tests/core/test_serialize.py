"""Tests for JSON report serialization."""

import json

import pytest

from repro.core import (
    compare_fleet,
    config_diff,
    fleet_report_to_dict,
    report_to_dict,
    report_to_json,
    semantic_difference_to_dict,
    structural_difference_to_dict,
)
from repro.core.serialize import SCHEMA_VERSION
from repro.parsers import parse_cisco
from repro.workloads.datacenter import gateway_fleet
from repro.workloads.figure1 import (
    CISCO_FIGURE1,
    figure1_devices,
    section2_static_devices,
)


@pytest.fixture(scope="module")
def report():
    return config_diff(*figure1_devices(), exhaustive_communities=True)


class TestSchema:
    def test_top_level_fields(self, report):
        data = report_to_dict(report)
        assert data["schema_version"] == SCHEMA_VERSION == 5
        assert data["degraded"] is False
        assert data["aborted"] == []
        assert data["parse_diagnostics"] == {}
        assert data["router1"] == "cisco_router"
        assert data["router2"] == "juniper_router"
        assert data["equivalent"] is False
        assert data["total_differences"] == report.total_differences()

    def test_json_round_trips(self, report):
        data = json.loads(report_to_json(report))
        assert data == report_to_dict(report)

    def test_semantic_difference_payload(self, report):
        first = report_to_dict(report)["semantic"][0]
        assert first["kind"] == "Route Maps"
        assert first["action"]["router1"] == "REJECT"
        assert first["localization"]["included"] == [
            "10.9.0.0/16 : 16-32",
            "10.100.0.0/16 : 16-32",
        ]
        assert first["localization"]["excluded"] == [
            "10.9.0.0/16 : 16-16",
            "10.100.0.0/16 : 16-16",
        ]
        text = first["text"]["router1"]
        assert text["file"] == "cisco_router.cfg"
        assert text["start_line"] >= 1
        assert any("deny 10" in line for line in text["text"])

    def test_community_extension_serialized(self, report):
        second = report_to_dict(report)["semantic"][1]
        extra = second["extra_localizations"]["communities"]
        assert "10:10" in extra["rendered"] and "10:11" in extra["rendered"]

    def test_structural_difference_payload(self):
        data = report_to_dict(config_diff(*section2_static_devices()))
        static = [d for d in data["structural"] if d["kind"] == "Static Routes"]
        assert len(static) == 1
        assert static[0]["attribute"] == "presence"
        assert static[0]["value"]["router2"] is None
        assert static[0]["text"]["router1"] is not None
        assert static[0]["text"]["router2"] is None

    def test_equivalent_report(self):
        device1 = parse_cisco(CISCO_FIGURE1, "a.cfg")
        device2 = parse_cisco(CISCO_FIGURE1, "b.cfg")
        data = report_to_dict(config_diff(device1, device2))
        assert data["equivalent"] is True
        assert data["semantic"] == []
        assert data["structural"] == []


class TestDifferenceDictWrappers:
    def test_semantic_difference_json_roundtrip(self, report):
        for difference in report.semantic:
            data = semantic_difference_to_dict(difference)
            assert json.loads(json.dumps(data)) == data

    def test_structural_difference_json_roundtrip(self):
        static_report = config_diff(*section2_static_devices())
        assert static_report.structural
        for difference in static_report.structural:
            data = structural_difference_to_dict(difference)
            assert json.loads(json.dumps(data)) == data


class TestFleetReportDict:
    @pytest.fixture(scope="class")
    def fleet_report(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=2)
        return compare_fleet(devices)

    def test_shape(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["reference"] == fleet_report.reference
        assert data["hostnames"] == fleet_report.hostnames
        assert data["outliers"] == fleet_report.outliers
        assert data["conforming"] == fleet_report.conforming
        for first, second, count in data["matrix"]:
            assert fleet_report.pair_count(first, second) == count
        for hostname, report in fleet_report.reports.items():
            assert data["reports"][hostname] == report_to_dict(report)

    def test_json_roundtrip_and_no_timing(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert json.loads(json.dumps(data)) == data
        # Deliberately timing-free: two runs over the same fleet must
        # serialize byte-identically (the CI test job diffs them).
        assert "seconds" not in json.dumps(data)

    def test_matrix_is_sorted(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["matrix"] == sorted(data["matrix"])

    def test_v4_partial_and_notes(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["partial"] is False  # machine-readable, not a note
        assert data["notes"] == list(fleet_report.notes)
        assert data["notes"] == sorted(data["notes"])

    def test_v4_coverage_section(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert sorted(data["coverage"]) == fleet_report.hostnames
        for hostname, entry in data["coverage"].items():
            coverage = fleet_report.coverage[hostname]
            assert entry == coverage.to_dict()
            assert entry["policy_lines"] >= entry["exercised_lines"] >= 0
            names = [policy["name"] for policy in entry["policies"]]
            assert names == sorted(names)

    def test_v4_partial_true_on_failed_pairs(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=2)
        report = compare_fleet(devices)
        report.failed_pairs[("gw0", "gw1")] = "injected failure"
        data = fleet_report_to_dict(report)
        assert data["partial"] is True


class TestCliJson:
    def test_compare_json_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.figure1 import JUNIPER_FIGURE1

        cisco = tmp_path / "c.cfg"
        juniper = tmp_path / "j.cfg"
        cisco.write_text(CISCO_FIGURE1)
        juniper.write_text(JUNIPER_FIGURE1)
        code = main(["compare", "--json", str(cisco), str(juniper)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is False
        assert len(data["semantic"]) == 2
