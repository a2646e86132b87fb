"""Tests for the Juniper JunOS parser (tree + interpretation)."""

import pickle

import pytest

from repro.model import AclAction, Action, Community, HostPrefix, Prefix, PrefixRange, ip_to_int
from repro.parsers import parse_juniper
from repro.parsers.common import ParseContext
from repro.parsers.juniper import parse_junos_tree


class TestTreeParser:
    def _tree(self, text):
        return parse_junos_tree(text, ParseContext("<t>"))

    def test_nested_blocks(self):
        tree = self._tree("a {\n  b {\n    c d;\n  }\n}\n")
        a = tree.children[0]
        assert a.words == ["a"]
        b = a.children[0]
        assert b.words == ["b"]
        assert b.children[0].words == ["c", "d"]

    def test_line_numbers(self):
        tree = self._tree("a {\n  b c;\n}\n")
        a = tree.children[0]
        assert a.start_line == 1
        assert a.end_line == 3
        assert a.children[0].start_line == 2

    def test_brackets_flatten(self):
        tree = self._tree("community C members [ 1:1 2:2 ];\n")
        statement = tree.children[0]
        assert statement.words == ["community", "C", "members", "1:1", "2:2"]

    def test_quoted_strings(self):
        tree = self._tree('as-path A ".* 100 .*";\n')
        assert tree.children[0].words == ["as-path", "A", ".* 100 .*"]

    def test_hash_comments_stripped(self):
        tree = self._tree("a b; # trailing comment\n# whole line\nc d;\n")
        assert [s.words for s in tree.children] == [["a", "b"], ["c", "d"]]

    def test_block_comments_stripped(self):
        tree = self._tree("a /* inline */ b;\n/* multi\nline */\nc d;\n")
        assert [s.words for s in tree.children] == [["a", "b"], ["c", "d"]]

    def test_child_lookup(self):
        tree = self._tree("x { family inet { address 1.2.3.4/24; } }\n")
        x = tree.children[0]
        family = x.child("family", "inet")
        assert family is not None
        assert family.child("address").words[1] == "1.2.3.4/24"
        assert x.child("nothing") is None


class TestSystemAndInterfaces:
    CONFIG = """\
system {
    host-name core1;
}
interfaces {
    xe-0/0/0 {
        description "uplink";
        unit 0 {
            family inet {
                address 10.0.0.2/24;
                filter {
                    input INBOUND;
                    output OUTBOUND;
                }
            }
        }
    }
    xe-0/0/1 {
        disable;
        unit 0 {
            family inet {
                address 10.0.1.2/24;
            }
        }
    }
}
"""

    def test_hostname(self):
        device = parse_juniper(self.CONFIG)
        assert device.hostname == "core1"
        assert device.vendor == "juniper"

    def test_interface_units(self):
        device = parse_juniper(self.CONFIG)
        interface = device.interfaces["xe-0/0/0.0"]
        assert interface.address.network == ip_to_int("10.0.0.2")
        assert str(interface.subnet()) == "10.0.0.0/24"
        assert interface.description == "uplink"
        assert interface.acl_in == "INBOUND"
        assert interface.acl_out == "OUTBOUND"

    def test_disable(self):
        device = parse_juniper(self.CONFIG)
        assert device.interfaces["xe-0/0/1.0"].shutdown


class TestStaticRoutes:
    CONFIG = """\
routing-options {
    static {
        route 10.1.1.2/31 {
            next-hop 10.2.2.2;
            preference 7;
            tag 55;
        }
        route 10.9.0.0/16 discard;
    }
    router-id 1.1.1.1;
    autonomous-system 65000;
}
"""

    def test_route_attributes(self):
        device = parse_juniper(self.CONFIG)
        route = device.static_routes[0]
        assert str(route.prefix) == "10.1.1.2/31"
        assert route.next_hop == ip_to_int("10.2.2.2")
        assert route.admin_distance == 7
        assert route.tag == 55

    def test_default_preference_is_5(self):
        device = parse_juniper(
            "routing-options { static { route 1.0.0.0/8 { next-hop 2.2.2.2; } } }\n"
        )
        assert device.static_routes[0].admin_distance == 5

    def test_discard_route(self):
        device = parse_juniper(self.CONFIG)
        route = device.static_routes[1]
        assert route.next_hop is None
        assert route.interface == "discard"


class TestPolicyOptions:
    def test_prefix_list_is_exact(self):
        device = parse_juniper(
            "policy-options { prefix-list NETS { 10.9.0.0/16; 10.100.0.0/16; } }\n"
        )
        entries = device.prefix_lists["NETS"].entries
        assert entries[0].range == PrefixRange(Prefix.parse("10.9.0.0/16"), 16, 16)
        assert all(e.action is Action.PERMIT for e in entries)

    def test_community_members_conjoin(self):
        device = parse_juniper(
            "policy-options { community COMM members [ 10:10 10:11 ]; }\n"
        )
        entry = device.community_lists["COMM"].entries[0]
        assert entry.communities == frozenset(
            {Community.parse("10:10"), Community.parse("10:11")}
        )

    def test_community_regex_member(self):
        device = parse_juniper(
            'policy-options { community C members "^52:1[0-5]$"; }\n'
        )
        entry = device.community_lists["C"].entries[0]
        assert entry.regex == "^52:1[0-5]$"

    def test_as_path(self):
        device = parse_juniper('policy-options { as-path A ".* 100 .*"; }\n')
        assert device.as_path_lists["A"].entries[0].regex == ".* 100 .*"


class TestPolicyStatements:
    CONFIG = """\
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
    }
    community COMM members [ 10:10 ];
    policy-statement POL {
        term rule1 {
            from {
                prefix-list NETS;
            }
            then reject;
        }
        term rule2 {
            from community COMM;
            then reject;
        }
        term rule3 {
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
"""

    def test_terms_become_clauses(self):
        device = parse_juniper(self.CONFIG)
        route_map = device.route_maps["POL"]
        assert [c.name for c in route_map.clauses] == [
            "term rule1",
            "term rule2",
            "term rule3",
        ]
        assert route_map.clauses[0].action is Action.DENY
        assert route_map.clauses[2].action is Action.PERMIT

    def test_fall_through_is_accept(self):
        device = parse_juniper(self.CONFIG)
        assert device.route_maps["POL"].default_action is Action.PERMIT

    def test_inline_from(self):
        device = parse_juniper(self.CONFIG)
        rule2 = device.route_maps["POL"].clauses[1]
        assert len(rule2.matches) == 1
        assert rule2.matches[0].community_list.name == "COMM"

    def test_sets(self):
        device = parse_juniper(self.CONFIG)
        rule3 = device.route_maps["POL"].clauses[2]
        assert rule3.sets[0].value == 30

    def test_term_source_spans_whole_term(self):
        device = parse_juniper(self.CONFIG)
        rule3 = device.route_maps["POL"].clauses[2]
        rendered = rule3.source.render()
        assert "term rule3" in rendered and "local-preference 30" in rendered

    @pytest.mark.parametrize(
        "modifier,expected",
        [
            ("exact", (16, 16)),
            ("orlonger", (16, 32)),
            ("longer", (17, 32)),
            ("upto /24", (16, 24)),
            ("prefix-length-range /20-/24", (20, 24)),
        ],
    )
    def test_route_filter_modifiers(self, modifier, expected):
        config = (
            "policy-options { policy-statement P { term t { from { "
            f"route-filter 10.9.0.0/16 {modifier}; "
            "} then accept; } } }\n"
        )
        device = parse_juniper(config)
        match = device.route_maps["P"].clauses[0].matches[0]
        entry = match.prefix_list.entries[0]
        assert (entry.range.low, entry.range.high) == expected

    def test_multiple_prefix_conditions_disjoin(self):
        """JunOS ORs prefix-lists/route-filters within one from block."""
        config = """\
policy-options {
    prefix-list A { 10.0.0.0/8; }
    policy-statement P {
        term t {
            from {
                prefix-list A;
                route-filter 11.0.0.0/8 orlonger;
            }
            then accept;
        }
    }
}
"""
        device = parse_juniper(config)
        matches = device.route_maps["P"].clauses[0].matches
        assert len(matches) == 1
        merged = matches[0].prefix_list
        assert len(merged.entries) == 2
        assert merged.permits(Prefix.parse("10.0.0.0/8"))
        assert merged.permits(Prefix.parse("11.5.0.0/16"))

    def test_community_set_action(self):
        config = """\
policy-options {
    community TAG members 5:5;
    policy-statement P {
        term t {
            then {
                community add TAG;
                accept;
            }
        }
    }
}
"""
        device = parse_juniper(config)
        set_action = device.route_maps["P"].clauses[0].sets[0]
        assert set_action.communities == frozenset({Community.parse("5:5")})
        assert set_action.additive

    def test_term_without_action_is_permit(self):
        config = (
            "policy-options { policy-statement P { term t { "
            "then { local-preference 10; } } } }\n"
        )
        device = parse_juniper(config)
        assert device.route_maps["P"].clauses[0].action is Action.PERMIT


class TestBgp:
    CONFIG = """\
routing-options {
    autonomous-system 65000;
    router-id 1.1.1.1;
}
policy-options {
    policy-statement OUT { term t { then accept; } }
}
protocols {
    bgp {
        group EXTERNAL {
            type external;
            export OUT;
            neighbor 10.0.0.1 {
                peer-as 65001;
                description "spine";
            }
            neighbor 10.0.0.5 {
                peer-as 65002;
                import OUT;
            }
        }
        group CLIENTS {
            type internal;
            cluster 1.2.3.4;
            neighbor 10.0.1.1;
        }
    }
}
"""

    def test_process(self):
        device = parse_juniper(self.CONFIG)
        assert device.bgp.asn == 65000
        assert device.bgp.router_id == ip_to_int("1.1.1.1")

    def test_group_export_inherited(self):
        device = parse_juniper(self.CONFIG)
        neighbor = device.bgp.neighbor_map()[ip_to_int("10.0.0.1")]
        assert neighbor.export_policy == "OUT"
        assert neighbor.remote_as == 65001
        assert neighbor.description == "spine"

    def test_neighbor_import_overrides(self):
        device = parse_juniper(self.CONFIG)
        neighbor = device.bgp.neighbor_map()[ip_to_int("10.0.0.5")]
        assert neighbor.import_policy == "OUT"

    def test_cluster_marks_reflector_clients(self):
        device = parse_juniper(self.CONFIG)
        client = device.bgp.neighbor_map()[ip_to_int("10.0.1.1")]
        assert client.route_reflector_client
        assert client.remote_as == 65000  # iBGP defaults to own AS

    def test_send_community_default_true(self):
        device = parse_juniper(self.CONFIG)
        assert all(n.send_community for n in device.bgp.neighbors)


class TestOspf:
    CONFIG = """\
protocols {
    ospf {
        reference-bandwidth 100g;
        area 0.0.0.0 {
            interface xe-0/0/0.0 {
                metric 42;
                hello-interval 5;
            }
            interface xe-0/0/1.0 {
                passive;
            }
        }
        area 0.0.0.1 {
            interface xe-0/0/2.0;
        }
    }
}
"""

    def test_interfaces_and_areas(self):
        device = parse_juniper(self.CONFIG)
        interfaces = device.ospf.interface_map()
        assert interfaces["xe-0/0/0.0"].area == 0
        assert interfaces["xe-0/0/0.0"].cost == 42
        assert interfaces["xe-0/0/0.0"].hello_interval == 5
        assert interfaces["xe-0/0/1.0"].passive
        assert interfaces["xe-0/0/2.0"].area == 1

    def test_reference_bandwidth_units(self):
        device = parse_juniper(self.CONFIG)
        assert device.ospf.reference_bandwidth == 100_000_000_000


class TestFirewall:
    CONFIG = """\
firewall {
    family inet {
        filter GUARD {
            term allow_web {
                from {
                    source-address { 172.16.0.0/16; }
                    protocol tcp;
                    destination-port 443;
                }
                then accept;
            }
            term drop_rest {
                then discard;
            }
        }
    }
}
"""

    def test_filter_terms(self):
        device = parse_juniper(self.CONFIG)
        acl = device.acls["GUARD"]
        assert len(acl.lines) == 2
        first = acl.lines[0]
        assert first.action is AclAction.PERMIT
        assert first.protocol == 6
        assert first.dst_ports[0].low == 443
        assert first.src.matches(ip_to_int("172.16.9.9"))
        assert acl.lines[1].action is AclAction.DENY

    def test_default_discard(self):
        device = parse_juniper(self.CONFIG)
        assert device.acls["GUARD"].default_action is AclAction.DENY

    def test_port_ranges(self):
        config = (
            "firewall { family inet { filter F { term t { from { "
            "protocol udp; destination-port 5000-6000; } then accept; } } } }\n"
        )
        device = parse_juniper(config)
        port_range = device.acls["F"].lines[0].dst_ports[0]
        assert (port_range.low, port_range.high) == (5000, 6000)


class TestRobustness:
    def test_unsupported_stanzas_warn_not_fail(self):
        device = parse_juniper("snmp { community public; }\nchassis { }\n")
        assert device.hostname == "juniper-router"

    def test_raw_lines_preserved(self):
        text = "system {\n    host-name r1;\n}\n"
        device = parse_juniper(text)
        assert device.raw_lines[1] == "    host-name r1;"


class TestInterfaceAddresses:
    TEXT = """interfaces {
    xe-0/0/0 {
        unit 0 {
            family inet {
                address 10.200.1.1/30;
            }
        }
    }
}
"""

    def test_equal_addresses_compare_equal(self):
        first = parse_juniper(self.TEXT, "a.conf").interfaces["xe-0/0/0.0"]
        second = parse_juniper(self.TEXT, "b.conf").interfaces["xe-0/0/0.0"]
        assert type(first.address) is type(second.address)
        assert first.address == second.address
        assert first == second

    def test_host_bits_are_kept(self):
        address = parse_juniper(self.TEXT).interfaces["xe-0/0/0.0"].address
        assert address.network == ip_to_int("10.200.1.1")
        assert address.length == 30
        assert type(address) is HostPrefix

    def test_device_pickles(self):
        device = parse_juniper(self.TEXT, "a.conf")
        restored = pickle.loads(pickle.dumps(device))
        assert restored == device
        assert restored.fingerprints == device.fingerprints
