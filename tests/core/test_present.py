"""Tests for Present: localization attachment and table rendering."""

import pytest

from repro.core import (
    ComponentKind,
    config_diff,
    diff_acls,
    localize_acl_differences,
    render_report,
    render_semantic_difference,
    render_structural_difference,
)
from repro.model import (
    Acl,
    AclAction,
    AclLine,
    IpWildcard,
    PortRange,
    Prefix,
    SourceSpan,
    StaticRoute,
    ip_to_int,
)
from repro.core.results import StructuralDifference
from repro.workloads.figure1 import figure1_devices, section2_static_devices


@pytest.fixture(scope="module")
def figure1_report():
    return config_diff(*figure1_devices())


class TestRouteMapRendering:
    def test_table2_rows_present(self, figure1_report):
        rendered = render_semantic_difference(figure1_report.semantic[0])
        for row in ("Included Prefixes", "Excluded Prefixes", "Policy Name", "Action", "Text"):
            assert row in rendered

    def test_table2a_contents(self, figure1_report):
        rendered = render_semantic_difference(figure1_report.semantic[0])
        assert "10.9.0.0/16 : 16-32" in rendered
        assert "10.9.0.0/16 : 16-16" in rendered
        assert "REJECT" in rendered
        assert "SET LOCAL PREF 30" in rendered
        assert "route-map POL deny 10" in rendered
        assert "rule3" in rendered

    def test_table2b_contents(self, figure1_report):
        rendered = render_semantic_difference(figure1_report.semantic[1])
        assert "0.0.0.0/0 : 0-32" in rendered
        assert "Community" in rendered
        assert "route-map POL deny 20" in rendered

    def test_router_names_in_header(self, figure1_report):
        rendered = render_semantic_difference(figure1_report.semantic[0])
        assert "cisco_router" in rendered
        assert "juniper_router" in rendered


class TestAclLocalization:
    def _acls(self):
        cisco = Acl(
            name="F",
            lines=(
                AclLine(
                    action=AclAction.DENY,
                    src=IpWildcard.from_prefix(Prefix.parse("9.140.0.0/23")),
                    source=SourceSpan("c.cfg", 3, 3, ("deny ipv4 9.140.0.0 0.0.1.255 any",)),
                ),
                AclLine(action=AclAction.PERMIT),
            ),
        )
        juniper = Acl(
            name="F",
            lines=(
                AclLine(
                    action=AclAction.PERMIT,
                    source=SourceSpan("j.cfg", 5, 7, ("term permit_all {", "then accept;", "}")),
                ),
            ),
        )
        return cisco, juniper

    def test_src_localization(self):
        cisco, juniper = self._acls()
        space, differences = diff_acls(cisco, juniper, "r1", "r2")
        assert len(differences) == 1
        difference = differences[0]
        localize_acl_differences(space, [difference], cisco, juniper)
        src_localization = difference.extra_localizations["srcIp"]
        assert [str(p) for p in src_localization.included] == ["9.140.0.0/23"]
        dst_localization = difference.extra_localizations["dstIp"]
        assert [str(p) for p in dst_localization.included] == ["0.0.0.0/0"]

    def test_acl_rendering_table7_shape(self):
        cisco, juniper = self._acls()
        space, differences = diff_acls(cisco, juniper, "r1", "r2")
        difference = differences[0]
        localize_acl_differences(space, [difference], cisco, juniper)
        rendered = render_semantic_difference(difference)
        assert "9.140.0.0/23" in rendered
        assert "ACL Name" in rendered
        assert "REJECT" in rendered and "ACCEPT" in rendered
        assert "deny ipv4 9.140.0.0" in rendered
        assert "term permit_all" in rendered

    def test_port_only_difference_gets_example(self):
        acl1 = Acl(
            name="F",
            lines=(
                AclLine(
                    action=AclAction.PERMIT,
                    protocol=6,
                    dst_ports=(PortRange.single(22),),
                ),
            ),
        )
        acl2 = Acl(name="F", lines=())
        space, differences = diff_acls(acl1, acl2)
        difference = differences[0]
        localize_acl_differences(space, [difference], acl1, acl2)
        assert difference.example.get("protocol") == "tcp"
        assert difference.example.get("dstPort") == "22"


class TestStructuralRendering:
    def test_table4_shape(self):
        report = config_diff(*section2_static_devices())
        static = [d for d in report.structural if d.kind is ComponentKind.STATIC_ROUTE]
        rendered = render_structural_difference(static[0])
        assert "10.1.1.2/31" in rendered
        assert "None" in rendered  # the absent side
        assert "ip route 10.1.1.2 255.255.255.254 10.2.2.2" in rendered

    def test_attribute_difference_rendering(self):
        difference = StructuralDifference(
            kind=ComponentKind.BGP_PROPERTY,
            component="bgp neighbor 10.0.0.1",
            attribute="send-community",
            value1="false",
            value2="true",
            router1="a",
            router2="b",
        )
        rendered = render_structural_difference(difference)
        assert "Send-Community" in rendered
        assert "false" in rendered and "true" in rendered


class TestReportRendering:
    def test_full_report(self, figure1_report):
        rendered = render_report(figure1_report)
        assert "cisco_router vs juniper_router" in rendered
        assert "Difference 1 (semantic)" in rendered
        assert "Difference 2 (semantic)" in rendered
        assert f"Total differences: {figure1_report.total_differences()}" in rendered

    def test_equivalent_report(self):
        from repro.parsers import parse_cisco
        from repro.workloads.figure1 import CISCO_FIGURE1

        report = config_diff(
            parse_cisco(CISCO_FIGURE1, "a.cfg"), parse_cisco(CISCO_FIGURE1, "b.cfg")
        )
        rendered = render_report(report)
        assert "behaviorally equivalent" in rendered

    def test_unmatched_rendered(self):
        cisco, juniper = figure1_devices()
        cisco.acls["ONLY"] = Acl(name="ONLY")
        report = config_diff(cisco, juniper)
        rendered = render_report(report)
        assert "ONLY" in rendered
        assert "missing on" in rendered
