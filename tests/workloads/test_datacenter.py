"""Tests that the data-center workload reproduces Table 6's counts."""

import hashlib
import re

import pytest

from repro.core import ComponentKind, config_diff
from repro.workloads.datacenter import (
    parameterized_clos_fleet,
    scenario1_redundant_pairs,
    scenario2_router_replacement,
    scenario3_gateway_acls,
)


def _counts(scenario):
    route_map = acl = static = other = 0
    noisy_clean_pairs = []
    for pair in scenario.pairs:
        report = config_diff(pair.primary, pair.backup)
        rm = [d for d in report.semantic if d.kind is ComponentKind.ROUTE_MAP]
        ac = [d for d in report.semantic if d.kind is ComponentKind.ACL]
        st = [d for d in report.structural if d.kind is ComponentKind.STATIC_ROUTE]
        ot = [
            d for d in report.structural if d.kind is not ComponentKind.STATIC_ROUTE
        ] + report.unmatched
        route_map += len(rm)
        acl += len(ac)
        static += len(st)
        other += len(ot)
        if not pair.seeded_bugs and (rm or ac or st or ot):
            noisy_clean_pairs.append(pair.name)
    return route_map, acl, static, other, noisy_clean_pairs


@pytest.fixture(scope="module")
def scenario1():
    return scenario1_redundant_pairs(seed=0)


@pytest.fixture(scope="module")
def scenario2():
    return scenario2_router_replacement(seed=1)


@pytest.fixture(scope="module")
def scenario3():
    return scenario3_gateway_acls()


class TestScenario1:
    def test_table6_counts(self, scenario1):
        route_map, acl, static, other, noise = _counts(scenario1)
        assert route_map == 5  # Table 6: BGP Semantic = 5
        assert static == 2  # Table 6: Static Routes Structural = 2
        assert acl == 0
        assert other == 0
        assert noise == []

    def test_every_seeded_bug_detected(self, scenario1):
        for pair in scenario1.pairs:
            if not pair.seeded_bugs:
                continue
            report = config_diff(pair.primary, pair.backup)
            assert not report.is_equivalent(), f"{pair.name} bug missed"

    def test_pair_count_parameter(self):
        scenario = scenario1_redundant_pairs(pair_count=8, seed=3)
        assert len(scenario.pairs) == 8


class TestScenario2:
    def test_table6_counts(self, scenario2):
        route_map, acl, static, other, noise = _counts(scenario2)
        assert route_map == 4  # Table 6: BGP Semantic = 4
        assert static == 0 and acl == 0 and other == 0
        assert noise == []

    def test_thirty_replacements(self, scenario2):
        assert len(scenario2.pairs) == 30

    def test_reflector_bug_present(self, scenario2):
        reflector = scenario2.pairs[0]
        assert "reflector" in reflector.name
        assert reflector.seeded_bugs
        report = config_diff(reflector.primary, reflector.backup)
        assert any(
            "LOCAL PREF" in d.action_pair()[0] or "LOCAL PREF" in d.action_pair()[1]
            for d in report.semantic
        )

    def test_community_bug_localized(self, scenario2):
        community_pairs = [
            p for p in scenario2.pairs if any("community" in b for b in p.seeded_bugs)
        ]
        assert len(community_pairs) == 1
        report = config_diff(community_pairs[0].primary, community_pairs[0].backup)
        actions = " ".join(a for d in report.semantic for a in d.action_pair())
        assert "65000:100" in actions and "65000:101" in actions


class TestScenario3:
    def test_table6_counts(self, scenario3):
        route_map, acl, static, other, noise = _counts(scenario3)
        assert acl == 3  # Table 6: ACLs Semantic = 3
        assert route_map == 0 and static == 0 and other == 0

    def test_table7_case_present(self, scenario3):
        """The whitelist-vs-blacklist ICMP difference, with header
        localization to the 9.140.0.0/23 source range."""
        pair = scenario3.pairs[0]
        report = config_diff(pair.primary, pair.backup)
        whitelist = [
            d
            for d in report.semantic
            if "permit_whitelist" in d.class2.step_name
        ]
        assert len(whitelist) == 1
        difference = whitelist[0]
        src_localization = difference.extra_localizations["srcIp"]
        assert [str(p) for p in src_localization.included] == ["9.140.0.0/23"]
        action1, action2 = difference.action_pair()
        assert action1 == "REJECT" and action2 == "ACCEPT"


def _fleet_digest(devices):
    digest = hashlib.sha256()
    for device in devices:
        digest.update(device.filename.encode() + b"\0")
        digest.update(("\n".join(device.raw_lines) + "\n").encode() + b"\0")
    return digest.hexdigest()


class TestParameterizedClosAddressPlan:
    # Digests of the texts generated when the address plan stopped at
    # 250 devices: widening it must not change any of them.
    @pytest.mark.parametrize(
        "count, roles, rule_count, seed, expected",
        [
            (1, 1, 4, 0, "21ca61daf68561f150798d84f30a42fef20ffd28867cb9411a76b387be8eb383"),
            (12, 3, 8, 0, "368b6254f5b4f564e7fb2e4a82bd629758bce05221d99323bdefbe914325e988"),
            (120, 3, 24, 1, "612df8f48b049442d31d08f9a74b70650313dd62ab09bdbde0b774472cee7371"),
            (250, 3, 8, 2, "2b0e078df9f690852ee9ecd9bd69dcf2017ac6054ed2d232898cd66a93003ca2"),
            (250, 5, 6, 3, "89480b8ffa193fda3611c37ac55d87e0ba2644600e6de48502a2199809182fce"),
        ],
    )
    def test_texts_up_to_250_devices_unchanged(
        self, count, roles, rule_count, seed, expected
    ):
        devices, _ = parameterized_clos_fleet(
            count=count, roles=roles, rule_count=rule_count, seed=seed
        )
        assert _fleet_digest(devices) == expected

    def test_addresses_unique_at_1000_devices(self):
        devices, _ = parameterized_clos_fleet(
            count=1000, roles=3, rule_count=2, seed=0, acls=1
        )
        assert len({device.hostname for device in devices}) == 1000
        text = "\n".join(line for device in devices for line in device.raw_lines)
        interfaces = re.findall(r"^ ip address (\S+) ", text, re.M)
        loopbacks = re.findall(r"^ bgp router-id (\S+)$", text, re.M)
        peers = re.findall(r"^ neighbor (\S+) remote-as", text, re.M)
        subnets = re.findall(r"^ network (\S+) 0\.0\.0\.255", text, re.M)
        assert len(loopbacks) == 1000 and len(subnets) == 1000
        assert len(interfaces) == 1000 * 3  # loopback + 2 uplinks each
        assert len(peers) == 1000 * 2
        for found in (interfaces, loopbacks, peers, subnets):
            assert len(set(found)) == len(found)
        # peers sit on their own uplink subnets, never on another address
        assert not set(peers) & set(interfaces)
        assert set(loopbacks) <= set(interfaces)

    def test_more_than_1000_devices_rejected(self):
        with pytest.raises(ValueError, match="1000"):
            parameterized_clos_fleet(count=1001)
