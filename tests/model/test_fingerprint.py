"""Tests for canonical component fingerprints."""

import pickle

import pytest

from repro.model import fingerprint as fp_module
from repro.model.fingerprint import (
    ComponentFingerprints,
    DeviceTemplate,
    canonical_form,
    compute_fingerprints,
    compute_template,
    fingerprint_value,
    partition_by_template_fingerprint,
)
from repro.model.types import SourceSpan
from repro.parsers import parse_cisco, parse_juniper
from repro.workloads.datacenter import parameterized_clos_fleet
from repro.workloads.figure1 import CISCO_FIGURE1


def _named(hostname, filename=None, text=CISCO_FIGURE1):
    renamed = text.replace("hostname cisco_router", f"hostname {hostname}")
    return parse_cisco(renamed, filename or f"{hostname}.cfg")


class TestCanonicalForm:
    def test_spans_are_erased(self):
        span = SourceSpan("a.cfg", 1, 2, ("line",))
        assert canonical_form(span) == ("<span>",)

    def test_dict_order_does_not_leak(self):
        assert canonical_form({"b": 2, "a": 1}) == canonical_form(
            {"a": 1, "b": 2}
        )

    def test_set_order_does_not_leak(self):
        assert canonical_form({3, 1, 2}) == canonical_form({2, 3, 1})

    def test_sequence_order_matters(self):
        assert canonical_form([1, 2]) != canonical_form([2, 1])


class TestDeviceFingerprints:
    def test_computed_at_parse_time(self):
        device = _named("r1")
        assert "_fingerprints" in device.__dict__
        assert isinstance(device.fingerprints, ComponentFingerprints)

    def test_identity_changes_do_not_change_fingerprints(self):
        # Same content under a different hostname and filename: every
        # component fingerprint (and the whole-device one) is equal.
        one = _named("r1", "one.cfg")
        two = _named("r2", "subdir/two.cfg")
        assert one.fingerprints == two.fingerprints

    def test_line_numbers_do_not_change_fingerprints(self):
        shifted = "!\n!\n!\n" + CISCO_FIGURE1
        assert (
            _named("r1").fingerprints == _named("r1", text=shifted).fingerprints
        )

    def test_semantic_change_changes_fingerprints(self):
        base = _named("r1")
        changed = _named("r1", text=CISCO_FIGURE1.replace("deny", "permit", 1))
        assert base.fingerprints != changed.fingerprints
        assert base.fingerprints.device != changed.fingerprints.device

    def test_component_accessors(self):
        fps = _named("r1").fingerprints
        for name, digest in fps.route_maps.items():
            assert fps.route_map(name) == digest
        for name, digest in fps.acls.items():
            assert fps.acl(name) == digest

    def test_fingerprints_survive_pickling(self):
        device = _named("r1")
        expected = device.fingerprints
        clone = pickle.loads(pickle.dumps(device))
        assert "_fingerprints" in clone.__dict__
        assert clone.fingerprints == expected

    def test_fingerprints_are_deterministic(self):
        assert (
            compute_fingerprints(_named("r1"))
            == compute_fingerprints(_named("r1"))
        )


class TestDeviceTemplate:
    def test_cached_on_first_access(self):
        device = _named("r1")
        assert "_template" not in device.__dict__
        assert isinstance(device.template, DeviceTemplate)
        assert "_template" in device.__dict__
        assert device.template is device.template

    def test_renamed_clone_has_identical_template(self):
        one = _named("r1", "one.cfg")
        two = _named("r2", "two.cfg")
        assert one.template.fingerprint == two.template.fingerprint
        assert one.template.substitution == two.template.substitution

    def test_same_role_devices_share_template_with_distinct_substitutions(
        self,
    ):
        devices, role_of = parameterized_clos_fleet(
            count=6, roles=2, rule_count=6, seed=0
        )
        same_role = [
            d for d in devices if role_of[d.hostname] == role_of[devices[0].hostname]
        ]
        first, second = same_role[0], same_role[1]
        assert first.fingerprints.device != second.fingerprints.device
        assert first.template.fingerprint == second.template.fingerprint
        assert first.template.substitution != second.template.substitution
        assert first.template.kind_sequence == second.template.kind_sequence

    def test_partition_groups_by_role(self):
        devices, role_of = parameterized_clos_fleet(
            count=6, roles=2, rule_count=6, seed=0
        )
        classes = partition_by_template_fingerprint(devices)
        assert len(classes) == 2
        for group in classes.values():
            assert len({role_of[h] for h in group}) == 1
            assert group == tuple(sorted(group))

    def test_acl_literal_change_changes_template(self):
        # ACL match semantics are never holed: a changed address there
        # is a changed answer, so the template must diverge.
        base = _named("r1")
        changed = _named(
            "r1", text=CISCO_FIGURE1.replace("deny", "permit", 1)
        )
        assert base.template.fingerprint != changed.template.fingerprint

    def test_interface_hole_atom_is_masked_subnet(self):
        # The hole *value* keeps the host form (substitution replay
        # rewrites raw text) while the equality *atom* is the masked
        # subnet — the only form the diff's connected routes consult.
        devices, _ = parameterized_clos_fleet(
            count=2, roles=1, rule_count=4, seed=0, uplinks=1
        )
        template = devices[0].template
        holes = [
            h for h in template.holes if h.kind == "interface-address"
        ]
        assert holes
        uplink = next(h for h in holes if h.value.endswith("/30"))
        ((tag, subnet),) = uplink.atoms
        assert tag == "subnet"
        assert subnet.endswith("/30")
        assert subnet != uplink.value  # host bits masked away

    def test_free_holes_carry_no_atoms(self):
        devices, _ = parameterized_clos_fleet(
            count=2, roles=1, rule_count=4, seed=0
        )
        template = devices[0].template
        kinds = set(template.kind_sequence)
        assert "router-id" in kinds
        assert "bgp-update-source" in kinds
        for hole in template.holes:
            if hole.kind in ("router-id", "bgp-update-source"):
                assert hole.atoms == ()
            elif hole.kind == "bgp-peer":
                assert hole.atoms == (("peer", hole.value),)

    def test_template_is_deterministic(self):
        device = _named("r1")
        assert compute_template(device) == compute_template(_named("r1"))


class TestSchemaVersion:
    def test_schema_bump_changes_every_digest(self, monkeypatch):
        before = fingerprint_value(("payload",), kind="test")
        monkeypatch.setattr(
            fp_module,
            "FINGERPRINT_SCHEMA_VERSION",
            fp_module.FINGERPRINT_SCHEMA_VERSION + 1,
        )
        assert fingerprint_value(("payload",), kind="test") != before

    def test_kind_separates_digests(self):
        assert fingerprint_value((), kind="acl") != fingerprint_value(
            (), kind="route_map"
        )


# ---------------------------------------------------------------------------
# Pinned digests.  Fingerprints are cache keys: the memo tables and the
# on-disk artifact cache are addressed by them, so a walk that changes a
# digest without bumping FINGERPRINT_SCHEMA_VERSION would silently serve
# stale entries.  These values were computed before the per-type walker
# and the stanza memo existed; they must never change under a schema 1.

PINNED_CISCO = """hostname pin-cisco
!
interface Loopback0
 ip address 10.255.0.1 255.255.255.255
!
interface Ethernet1
 ip address 10.200.0.1 255.255.255.252
 ip access-group EDGE in
!
ip access-list extended EDGE
 permit tcp 10.0.0.0 0.0.0.255 host 10.1.1.1 eq 443
 deny udp any 10.2.0.0 0.0.255.255 range 100 200
 permit icmp any any echo
 deny ip any any
!
ip prefix-list NETS permit 10.1.0.0/16 le 24
!
route-map OUT permit 10
 match ip address prefix-list NETS
 set local-preference 150
!
router bgp 65000
 bgp router-id 10.255.0.1
 neighbor 10.200.0.2 remote-as 64000
 neighbor 10.200.0.2 route-map OUT out
!
router ospf 1
 router-id 10.255.0.1
 network 10.200.0.0 0.0.0.255 area 0
!
"""

PINNED_JUNOS = """system {
    host-name pin-junos;
}
interfaces {
    xe-0/0/0 {
        unit 0 {
            family inet {
                filter {
                    input EDGE;
                }
                address 10.200.0.1/30;
            }
        }
    }
    lo0 {
        unit 0 {
            family inet {
                address 10.255.0.1/32;
            }
        }
    }
}
routing-options {
    autonomous-system 65000;
    router-id 10.255.0.1;
}
firewall {
    family inet {
        filter EDGE {
            term web {
                from {
                    source-address {
                        10.0.0.0/24;
                    }
                    destination-address {
                        10.1.1.1/32;
                    }
                    protocol tcp;
                    destination-port 443;
                }
                then accept;
            }
            term rest {
                then discard;
            }
        }
    }
}
"""


PINNED_DIGESTS = {
    "cisco": {
        "acls": {"EDGE": "ee3a119303c15351957b1a6d779f6b4dba8ad6829d4a0f529e99ffd43bceda31"},
        "route_maps": {"OUT": "91c17dfcadf50e10d080be1620759fe784da9ca7656bb2a00d0d54d72ef0f7c8"},
        "static_routes": "10782b8e81136cebb076779e09d5ce652843615982ae1b25076072b01dc6707f",
        "interfaces": "dbac498e0674b2efb491fa0576156f78d070264cdd3941c3100dd490c1b4834d",
        "bgp": "95c2a4158cf728e5d8a0a65ebb710c2ceab41cbabad1a6e5dc1957d1b4f277d4",
        "ospf": "c400b539db69b1af3eaf0ddbd5b5608c104e56cabc7d3c932573b3365f37930e",
        "admin_distances": "c409b9672e8118bf017d4c1820bce9fd528501066bfe654454b575f122ea9892",
        "structural": "0b6df84ec9ca71acb986b36a5f3a2608a41ae438c4358225f6c67f6c04aa2856",
        "device": "37cbf06af505cb3d181e0406dcacef87af9d1ca4d9468fe08893042c2c966efe",
        "template": "b80cbb5ec5bfbb7a90f13a3dad5e761996379eae1f453fe773ec11f110ae2998",
        "substitution": (
            "10.200.0.1/30",
            "10.255.0.1/32",
            "10.255.0.1",
            "10.200.0.2",
            "10.255.0.1",
        ),
    },
    "junos": {
        "acls": {"EDGE": "99b831c6ffa8b121a21b8d3ddaea3408925198765a9ecf726c5a77af7ab11610"},
        "route_maps": {},
        "static_routes": "10782b8e81136cebb076779e09d5ce652843615982ae1b25076072b01dc6707f",
        "interfaces": "da1569322515054092b594692c46237155b664327355aa9c6cfb0434fea25cee",
        "bgp": "057c9365745bbb042de17e351b235249a5196a867ce0a86164ae6ffa0429dd83",
        "ospf": "6966881ee2f70b6430e094fe5f4bec60799f76da25b842093a142938a50dbb0f",
        "admin_distances": "c409b9672e8118bf017d4c1820bce9fd528501066bfe654454b575f122ea9892",
        "structural": "5332c2b9fae27e43760b82481fe925332733671a3d071e6881092144fb2db12a",
        "device": "70e54e6bb920f35658e32e920ace2900946560069540702f54e1ea460f9b0c91",
        "template": "a7a71423471e8d6002afd7eeae3bc94106e25689f47b85417df1f7b72ea569f0",
        "substitution": ("10.255.0.1/32", "10.200.0.1/30"),
    },
}


def _pinned_devices():
    return {
        "cisco": parse_cisco(PINNED_CISCO, "pin.cfg"),
        "junos": parse_juniper(PINNED_JUNOS, "pin.conf"),
    }


class TestPinnedDigests:
    @pytest.mark.parametrize("dialect", ["cisco", "junos"])
    def test_component_device_and_template_digests(self, dialect):
        assert fp_module.FINGERPRINT_SCHEMA_VERSION == 1
        device = _pinned_devices()[dialect]
        expected = PINNED_DIGESTS[dialect]
        fingerprints = device.fingerprints
        for name, digest in expected.items():
            if name == "template":
                assert device.template.fingerprint == digest
            elif name == "substitution":
                assert device.template.substitution == digest
            else:
                assert getattr(fingerprints, name) == digest, name

    @pytest.mark.parametrize("dialect", ["cisco", "junos"])
    def test_fresh_walk_matches_parse_time_digests(self, dialect):
        device = _pinned_devices()[dialect]
        assert compute_fingerprints(device) == device.fingerprints
        assert compute_template(device) == device.template

    def test_walker_learns_each_type_once(self):
        _pinned_devices()
        learned = len(fp_module._SHAPES)
        for _ in range(3):
            for device in _pinned_devices().values():
                compute_template(device)
        assert len(fp_module._SHAPES) == learned
